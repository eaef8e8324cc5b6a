"""Run statistics: arithmetic counts and data-structure peaks."""
from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Counters from one engine run.

    ``field_ops`` counts the Z_p operations (additions, negations,
    products, divisions) that the inline arithmetic charged to the
    field. The remaining values are maxima over samples taken after
    each simplex insertion: ``matrix_nonzeros_peak`` is the total number
    of stored nonzero entries, ``g_max_total`` the total number of live
    cocycle rows over all dimensions, and ``s_max_total`` the total
    number of distinct nonzero columns, with per-dimension peaks
    alongside.
    """

    field_ops: int = 0
    matrix_nonzeros_peak: int = 0
    g_max_total: int = 0
    s_max_total: int = 0
    g_max_by_dim: dict[int, int] = field(default_factory=dict)
    s_max_by_dim: dict[int, int] = field(default_factory=dict)


def format_stats(stats: RunStats) -> str:
    """Flat key-value text rendering."""
    lines = [
        f"field_ops={stats.field_ops}",
        f"matrix_nonzeros_peak={stats.matrix_nonzeros_peak}",
        f"G_m={stats.g_max_total}",
        f"S_m={stats.s_max_total}",
    ]
    for dim in sorted(set(stats.g_max_by_dim) | set(stats.s_max_by_dim)):
        lines.append(f"g_m[{dim}]={stats.g_max_by_dim.get(dim, 0)}")
        lines.append(f"s_m[{dim}]={stats.s_max_by_dim.get(dim, 0)}")
    return "\n".join(lines) + "\n"


class StatsCollector:
    """Keeps running maxima over per-insertion samples."""

    def __init__(self):
        self._stats = RunStats()

    def sample(self, matrices, top_rows: int, transient: int | None = None) -> None:
        """One sample: ``matrices[d]`` serves dimension d below the top.

        The top dimension stores nothing, yet each of its ``top_rows``
        live classes counts as one row, one distinct unit column and one
        nonzero, as a stored annotation would. A class folded into the
        coface that kills it is never stored either; the sample at its
        birth names its dimension as ``transient``, which counts one more
        row, distinct unit column and nonzero there.
        """
        st = self._stats
        total_g = total_s = nnz = top_rows
        for dim, matrix in enumerate(matrices):
            g = matrix.live_row_count
            s = matrix.distinct_column_count
            if dim == transient:
                g += 1
                s += 1
                nnz += 1
            total_g += g
            total_s += s
            nnz += matrix.nonzero_count
            if g > st.g_max_by_dim.get(dim, -1):
                st.g_max_by_dim[dim] = g
            if s > st.s_max_by_dim.get(dim, -1):
                st.s_max_by_dim[dim] = s
        top = len(matrices)
        if top_rows > st.g_max_by_dim.get(top, -1):
            st.g_max_by_dim[top] = st.s_max_by_dim[top] = top_rows
        if total_g > st.g_max_total:
            st.g_max_total = total_g
        if total_s > st.s_max_total:
            st.s_max_total = total_s
        if nnz > st.matrix_nonzeros_peak:
            st.matrix_nonzeros_peak = nnz

    def result(self, field_ops: int = 0) -> RunStats:
        st = self._stats
        return RunStats(
            field_ops=field_ops,
            matrix_nonzeros_peak=st.matrix_nonzeros_peak,
            g_max_total=st.g_max_total,
            s_max_total=st.s_max_total,
            g_max_by_dim=dict(st.g_max_by_dim),
            s_max_by_dim=dict(st.s_max_by_dim),
        )
