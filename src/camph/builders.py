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


def _distances(columns, i: int, lo: int, hi: int) -> list[float]:
    """The distances from point i to points lo..hi-1 of the same columns:
    the root of the squared differences added left to right from 0.0."""
    acc = [0.0] * (hi - lo)
    for col in columns:
        x = col[i]
        acc = [s + (x - y) * (x - y) for s, y in zip(acc, col[lo:hi])]
    return list(map(math.sqrt, acc))


def _near(
    rows: list[tuple[float, ...]], max_edge_length: float
) -> list[dict[int, float]]:
    """near[v]: each later vertex u within reach of v -> their distance,
    in ascending u order.

    The points are swept in order of their widest coordinate, and only
    pairs inside the sweep window are measured. A pair is left out only
    when that coordinate's term alone, as the distance sum computes it,
    is out of reach: the terms are non-negative and rounding is
    monotone, so the whole sum is at least any one term. Along the sweep
    the term grows, so each window ends where bisect finds it.
    """
    n = len(rows)
    columns = list(zip(*rows))
    # without coordinates every pair is in the window
    axis = max(columns, key=lambda col: max(col) - min(col), default=[0.0] * n)
    order = sorted(range(n), key=axis.__getitem__)
    xs = [axis[i] for i in order]
    columns = [[col[i] for i in order] for col in columns]
    pairs: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for k, v in enumerate(order):
        x = xs[k]
        end = bisect_right(
            xs, max_edge_length, k + 1, key=lambda y: math.sqrt(0.0 + (y - x) * (y - x))
        )
        for u, d in zip(order[k + 1 : end], _distances(columns, k, k + 1, end)):
            if d <= max_edge_length:
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
    that a sweep along one coordinate cannot rule out are measured (see
    _near), each as the square root of the squared coordinate differences
    added left to right from 0.0. Cliques are grown by intersecting sorted
    upper-neighbor lists, so enumeration is lexicographic and
    duplicate-free, and the result is closed and monotone by
    construction. Each candidate vertex carries its largest
    distance to the clique, so a grown clique's diameter takes one
    comparison; the finished value dict goes to the tree in one piece.
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
