"""Complex construction: flag-complex filtrations of point clouds, each
any sequence of equal-length coordinate sequences (NumPy arrays too)."""
from __future__ import annotations

import math

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


def _upper_distances(rows: list[tuple[float, ...]]) -> list[list[float]]:
    """n lists of n floats whose entry [i][j], i < j, is the distance of
    points i and j; the entries on and below the diagonal are 0.0."""
    columns = list(zip(*rows))
    n = len(rows)
    dist: list[list[float]] = []
    for i in range(n):
        # squared distances from point i to every later point
        acc = [0.0] * (n - i - 1)
        for col in columns:
            x = col[i]
            acc = [s + (x - y) * (x - y) for s, y in zip(acc, col[i + 1 :])]
        dist.append([0.0] * (i + 1) + list(map(math.sqrt, acc)))
    return dist


def pairwise_distances(points) -> list[list[float]]:
    """Euclidean distances of an (n, d) cloud as n lists of n floats: the
    root of the squared differences added left to right from 0.0. NumPy's
    sum gives the same bits for up to 7 coordinates but may differ in the
    last bit from 8 on, where it sums in another order."""
    dist = _upper_distances(_rows(points))
    for i, row in enumerate(dist):
        row[:i] = [earlier[i] for earlier in dist[:i]]
    return dist


def build_rips(points, max_edge_length: float, max_dim: int) -> SimplexTree:
    """Flag-complex filtration of a point cloud.

    A simplex is included when its diameter (largest pairwise distance) is
    at most ``max_edge_length`` and its dimension at most ``max_dim``; its
    filtration value is that diameter, with vertices at 0. Cliques are
    grown by intersecting sorted upper-neighbor lists, so enumeration is
    lexicographic and duplicate-free, and the result is closed and
    monotone by construction. Each candidate vertex carries its largest
    distance to the clique, so a grown clique's diameter takes one
    comparison; the finished value dict goes to the tree in one piece.
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
    dist = _upper_distances(pts)
    # near[v]: each later vertex within reach of v -> its distance to v
    near = [
        {u: d for u, d in enumerate(row[v + 1 :], v + 1) if d <= max_edge_length}
        for v, row in enumerate(dist)
    ]
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
