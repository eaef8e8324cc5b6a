"""Text file formats: point clouds, filtrations, diagrams, run statistics.

One record per line, whitespace-separated; lines whose first nonblank
character is ``#`` are comments. Floats are written with ``repr`` so
output is byte-stable and reads back exactly.

- point cloud:   ``x_1 x_2 ... x_D``         (one point per line)
- filtration:    ``value v_0 v_1 ... v_k``   (one simplex per line)
- diagram:       ``dim birth death``         (``inf`` for essential classes)
- run stats:     ``name=value``              (one counter per line, written only)

A filtration line means what SimplexTree.insert_simplex makes of it. A
file of valid lines that lists each simplex once is read column by
column, in chunks of about ``_CHUNK`` characters of whole lines: each
chunk's data lines are grouped by token count, and each group's columns
are converted and checked with one pass apiece. Any other file is read
again with one insert_simplex per line, at about twice the read time.
"""
from __future__ import annotations

import math
from itertools import groupby, repeat
from operator import add, lt

from .diagram import PersistenceDiagram
from .engine import RunStats
from .errors import InvariantViolation, ParseError
from .simplex_tree import SimplexTree

# Characters read_filtration asks for at a time; a chunk ends at the first
# line end after them, exactly where iterating over the file would.
_CHUNK = 8192


class _Ids(dict):
    """Vertex token -> int, each token converted once per file."""

    def __missing__(self, token: str) -> int:
        value = self[token] = int(token)
        return value


def _data_lines(path):
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def read_points(path) -> list[tuple[float, ...]]:
    """Load a point cloud as one float tuple per point; every line must
    have the same arity and every coordinate must be finite."""
    rows: list[tuple[float, ...]] = []
    width = None
    for lineno, line in _data_lines(path):
        try:
            coords = tuple(map(float, line.split()))
        except ValueError as exc:
            raise ParseError(f"bad coordinate ({exc})", path=path, line=lineno)
        if not all(map(math.isfinite, coords)):
            raise ParseError("coordinates must be finite", path=path, line=lineno)
        if width is None:
            width = len(coords)
        elif len(coords) != width:
            raise ParseError(
                f"expected {width} coordinates, got {len(coords)}",
                path=path,
                line=lineno,
            )
        rows.append(coords)
    return rows


def read_filtration(path) -> SimplexTree:
    """Load and finalize a filtration; closure/monotonicity violations
    surface from finalize().

    Each line is read as SimplexTree.insert_simplex reads a simplex: a
    simplex listed twice keeps its smaller value, and -0.0 is stored as
    0.0. The columnar pass (see the module docstring) rejects a file with
    a faulty line or a twice-listed simplex; _read_lines then reads it
    again, raising the ParseError for the first faulty line in file
    order with insert_simplex's message.
    """
    values: dict[tuple[int, ...], float] = {}
    listed = 0
    ids = _Ids()
    with open(path, encoding="utf-8") as fh:
        while lines := fh.readlines(_CHUNK):
            for columns in _chunk_columns(lines):
                group = _group_records(columns, ids)
                if group is None:
                    _read_lines(path)
                    raise InvariantViolation(
                        f"{path}: a check failed, but no line is faulty"
                    )
                values.update(zip(*group))
                listed += len(group[1])
    if len(values) < listed:  # some simplex is listed twice
        del values, ids  # freed before the second read builds its own dict
        tree = _read_lines(path)
        tree.finalize()
        return tree
    return SimplexTree._from_values(values)


def _read_lines(path) -> SimplexTree:
    """An unfinalized tree with one insert_simplex per data line of the
    file at ``path``; raises the ParseError for its first faulty line."""
    tree = SimplexTree()
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 2:
            raise ParseError("expected: value v0 [v1 ...]", path=path, line=lineno)
        try:
            value = float(tokens[0])
            verts = list(map(int, tokens[1:]))
        except ValueError as exc:
            raise ParseError(f"bad token ({exc})", path=path, line=lineno)
        try:
            tree.insert_simplex(verts, value)
        except ValueError as exc:
            raise ParseError(str(exc), path=path, line=lineno)
    return tree


def _chunk_columns(lines: list[str]) -> list[list[tuple[str, ...]]]:
    """The token columns of each group of the chunk's data lines that
    share a token count."""
    rows = [row for row in map(str.split, lines) if row and row[0][0] != "#"]
    groups: dict[int, list[list[str]]] = {}
    for size, run in groupby(rows, len):
        groups.setdefault(size, []).extend(run)
    return [list(zip(*group)) for group in groups.values()]


def _group_records(
    columns: list[tuple[str, ...]], ids: _Ids
) -> tuple[list[tuple[int, ...]], list[float]] | None:
    """The simplices and values of a group of lines with one token count,
    or None if a line in it is faulty."""
    if len(columns) < 2:
        return None
    try:
        # + 0.0 reads -0.0 as 0.0, as insert_simplex does
        values = list(map(add, map(float, columns[0]), repeat(0.0)))
        vertices = [list(map(ids.__getitem__, column)) for column in columns[1:]]
    except ValueError:
        return None
    if not all(map(math.isfinite, values)):
        return None
    if _ascending(vertices):
        simplices = list(zip(*vertices))
    else:
        simplices = [tuple(sorted(simplex)) for simplex in zip(*vertices)]
        vertices = list(zip(*simplices))
        if not _ascending(vertices):
            return None
    # ascending ids are distinct, and non-negative if the first is
    if min(vertices[0]) < 0:
        return None
    return simplices, values


def _ascending(columns) -> bool:
    """Whether every row is strictly ascending across the columns."""
    return all(all(map(lt, left, right)) for left, right in zip(columns, columns[1:]))


def format_diagram(diagram: PersistenceDiagram) -> str:
    """Canonical text rendering, in the diagram's (dim, birth, death) order.

    Each value is written as ``repr(float(value))``, computed once per run
    of equal values in its column: the pairs are sorted, so equal births
    of one dimension are adjacent, as are the ``inf`` deaths of essential
    classes that share a birth. A zero is always written on its own,
    because ``-0.0 == 0.0`` would let one run print both with one sign.
    """
    lines = []
    birth_text = death_text = last_birth = last_death = None
    for dim, birth, death, _, _ in diagram.pairs:
        if birth != last_birth or not birth:
            birth_text, last_birth = repr(float(birth)), birth
        if death != last_death or not death:
            death_text, last_death = repr(float(death)), death
        lines.append(f"{dim} {birth_text} {death_text}")
    return "\n".join(lines) + ("\n" if lines else "")


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
