"""Complex construction: flag-complex filtrations of point clouds."""
from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch
from .simplex_tree import SimplexTree


def pairwise_distances(points) -> np.ndarray:
    """Euclidean distance matrix of an (n, d) cloud."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise DimensionMismatch("points must form an (n, d) array")
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


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
        raise ValueError("max_edge_length must be non-negative")
    if not isinstance(max_dim, int) or isinstance(max_dim, bool):
        raise ValueError(f"max_dim must be an integer, got {max_dim!r}")
    if max_dim < 0:
        raise ValueError("max_dim must be non-negative")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        tree = SimplexTree()
        tree.finalize()
        return tree
    if pts.ndim != 2:
        raise DimensionMismatch("points must form an (n, d) array")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    n = len(pts)
    dist = pairwise_distances(pts)
    upper = [
        [u for u in range(v + 1, n) if dist[v, u] <= max_edge_length]
        for v in range(n)
    ]
    upper_sets = [set(us) for us in upper]
    tree = SimplexTree()

    def expand(simplex: tuple[int, ...], candidates: list[int], diameter: float):
        tree.insert_simplex(simplex, diameter)
        if len(simplex) - 1 == max_dim:
            return
        for i, v in enumerate(candidates):
            grown = max(diameter, max(dist[u, v] for u in simplex))
            shared = [w for w in candidates[i + 1 :] if w in upper_sets[v]]
            expand(simplex + (v,), shared, grown)

    for v in range(n):
        expand((v,), upper[v], 0.0)
    tree.finalize()
    return tree

