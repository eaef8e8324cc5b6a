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
    monotone by construction.
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
    n = len(pts)
    dist = _upper_distances(pts)  # read only at [u][v] with u < v
    upper = [
        [u for u in range(v + 1, n) if dist[v][u] <= max_edge_length]
        for v in range(n)
    ]
    upper_sets = [set(us) for us in upper]
    tree = SimplexTree()

    def expand(simplex: tuple[int, ...], candidates: list[int], diameter: float):
        tree.insert_simplex(simplex, diameter)
        if len(simplex) - 1 == max_dim:
            return
        for i, v in enumerate(candidates):
            grown = max(diameter, max(dist[u][v] for u in simplex))
            shared = [w for w in candidates[i + 1 :] if w in upper_sets[v]]
            expand(simplex + (v,), shared, grown)

    for v in range(n):
        expand((v,), upper[v], 0.0)
    tree.finalize()
    return tree

