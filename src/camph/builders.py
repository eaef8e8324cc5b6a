"""Complex construction: flag-complex filtrations of point clouds, each
any sequence of equal-length coordinate sequences (NumPy arrays too)."""
from __future__ import annotations

import math
from bisect import bisect_right

from .errors import DimensionMismatch
from .simplex_tree import SimplexTree


def _rows(points) -> list[tuple[float, ...]]:
    try:
        rows = [tuple(map(float, point)) for point in points]
    except TypeError:  # a bare number where a point should be
        raise DimensionMismatch("points must form an (n, d) array") from None
    if len({len(row) for row in rows}) > 1:
        raise DimensionMismatch("points must share one dimension")
    return rows


def _distances(columns, i: int, others: list[int]) -> list[float]:
    """The distances from point i to each point in ``others``, all of them
    indices into the same columns: the root of the squared differences
    added left to right from 0.0."""
    acc = [0.0] * len(others)
    for col in columns:
        x = col[i]
        acc = [s + (x - col[j]) * (x - col[j]) for s, j in zip(acc, others)]
    return list(map(math.sqrt, acc))


# Cells are this much wider than the reach, so that two points two cells
# apart are out of reach even after their cell indices and their distance
# are rounded (see _cells).
_CELL_MARGIN = 1.0 + 2.0**-10
# Up to this many cells from 0, a rounded cell index is off by at most
# 2**-21 of a cell, well inside the margin.
_MAX_CELLS = 2.0**32
# From this reach up, the square of a gap at least the reach is a normal
# float, so its rounding error is relative; below it, it may underflow
# to 0.0 and a wide gap may still be in reach.
_MIN_REACH = 2.0**-500


def _cells(col, max_edge_length: float) -> list[int]:
    """Each coordinate's cell, ``floor(y / width)`` for cells just wider
    than the reach; all in cell 0 where such cells would not be exact.

    If two points' cells differ by 2 or more, their gap on this
    coordinate exceeds the reach by more than 2**-11 of it, although
    both indices were rounded. Its term in the distance sum, and so the
    distance, then comes out above the reach, as the subtraction, square
    and root each round by a relative 2**-53 at most. The argument needs
    a finite reach of at least _MIN_REACH and indices that stay within
    _MAX_CELLS of 0.
    """
    width = max_edge_length * _CELL_MARGIN
    in_range = _MIN_REACH <= max_edge_length < math.inf
    if in_range and max(map(abs, col)) < width * _MAX_CELLS:
        return [math.floor(y / width) for y in col]
    return [0] * len(col)


def _near(
    rows: list[tuple[float, ...]], max_edge_length: float
) -> list[dict[int, float]]:
    """near[v]: each later vertex u within reach of v -> their distance,
    in ascending u order.

    The points are swept in order of their widest coordinate, and only
    pairs inside the sweep window are candidates. A pair is left out
    only when one coordinate's term alone, as the distance sum computes
    it, is out of reach: the terms are non-negative and rounding is
    monotone, so the whole sum is at least any one term. Along the sweep
    the term grows, so each window ends where bisect finds it. Within a
    window, only the points in the same or an adjacent cell of the
    second-widest coordinate are measured (see _cells); without such
    cells, every point in the window is.
    """
    n = len(rows)
    columns = list(zip(*rows))
    # without coordinates every pair is in the window
    widest = sorted(columns, key=lambda col: max(col) - min(col), reverse=True)
    axis = widest[0] if widest else [0.0] * n
    cells = _cells(widest[1], max_edge_length) if len(widest) > 1 else [0] * n
    order = sorted(range(n), key=axis.__getitem__)
    xs = [axis[i] for i in order]
    cs = [cells[i] for i in order]
    columns = [[col[i] for i in order] for col in columns]
    pairs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for k, v in enumerate(order):
        x = xs[k]
        end = bisect_right(
            xs, max_edge_length, k + 1, key=lambda y: math.sqrt(0.0 + (y - x) * (y - x))
        )
        c = cs[k]
        others = [j for j in range(k + 1, end) if -2 < cs[j] - c < 2]
        for j, d in zip(others, _distances(columns, k, others)):
            if d <= max_edge_length:
                u = order[j]
                if v < u:
                    pairs[v].append((u, d))
                else:
                    pairs[u].append((v, d))
    return [dict(sorted(links)) for links in pairs]


def build_rips(points, max_edge_length: float, max_dim: int) -> SimplexTree:
    """Flag-complex filtration of a point cloud.

    A simplex is included when its diameter (largest pairwise distance) is
    at most ``max_edge_length`` and its dimension at most ``max_dim``; its
    filtration value is that diameter, with vertices at 0. Only the pairs
    that a sweep along one coordinate and cells along a second cannot
    rule out are measured (see _near), each as the square root of the
    squared coordinate differences added left to right from 0.0. Cliques
    are grown by intersecting sorted upper-neighbor lists, so
    enumeration is lexicographic and duplicate-free, and the result is
    closed and monotone by construction. Each candidate vertex carries
    its largest distance to the clique, so a grown clique's diameter
    takes one comparison; the finished value dict goes to the tree in
    one piece, still in lexicographic order, which finalize sorts
    without comparing vertex tuples.
    The cyclic garbage collector is left running: pausing it here only
    defers its first pass over the new simplices to the caller's next
    allocations, which then pay for it.
    """
    if not max_edge_length >= 0:
        raise ValueError(
            f"max_edge_length must be non-negative, got {max_edge_length!r}"
        )
    if not isinstance(max_dim, int) or isinstance(max_dim, bool):
        raise ValueError(f"max_dim must be an integer, got {max_dim!r}")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    pts = _rows(points)
    if not all(math.isfinite(x) for point in pts for x in point):
        raise ValueError("point coordinates must be finite")
    near = _near(pts, max_edge_length)
    values: dict[tuple[int, ...], float] = {}

    def expand(
        simplex: tuple[int, ...], candidates: list[tuple[int, float]], diameter: float
    ):
        # candidates: (w, reach) for each common later neighbour w of the
        # simplex's vertices, reach being w's largest distance to them
        values[simplex] = diameter
        if len(simplex) == max_dim:  # the cofaces are top simplices
            for w, reach in candidates:
                values[simplex + (w,)] = reach if reach > diameter else diameter
        elif len(simplex) == max_dim - 1:
            # as below, but the cofaces' own cofaces are top simplices, so
            # they are stored at once, without a candidate list or a call
            for i, (v, reach) in enumerate(candidates):
                links = near[v]
                coface = simplex + (v,)
                values[coface] = grown = reach if reach > diameter else diameter
                for w, r in candidates[i + 1 :]:
                    if (d := links.get(w)) is not None:
                        far = r if r >= d else d
                        values[coface + (w,)] = far if far > grown else grown
        elif len(simplex) < max_dim:
            for i, (v, reach) in enumerate(candidates):
                links = near[v]
                shared = [
                    (w, r if r >= d else d)
                    for w, r in candidates[i + 1 :]
                    if (d := links.get(w)) is not None
                ]
                expand(simplex + (v,), shared, reach if reach > diameter else diameter)

    for v, links in enumerate(near):
        expand((v,), list(links.items()), 0.0)
    # Squared distances overflow to inf only for coordinates near the float
    # limit, and such an edge is in reach only when max_edge_length is inf.
    if math.inf in values.values():
        simplex = next(s for s, value in values.items() if value == math.inf)
        raise ValueError(f"value inf of {simplex} is not finite")
    return SimplexTree._from_values(values)
