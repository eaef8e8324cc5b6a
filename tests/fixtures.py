"""Shared complexes and corpora for the test suite."""
from __future__ import annotations

import math
import random

from camph import SimplexTree, build_rips

# the primes every engine/oracle equivalence check runs over
EQUIVALENCE_PRIMES = (2, 3, 11, 7919)

# 7-vertex torus triangulation: the two cyclic families cover each of the
# 21 edges of K7 exactly twice.
TORUS_TRIANGLES = [
    tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)
] + [tuple(sorted((i, (i + 2) % 7, (i + 3) % 7))) for i in range(7)]

# 6-vertex projective-plane triangulation (antipodal icosahedron quotient):
# 15 edges, 10 triangles, Euler characteristic 1.
RP2_TRIANGLES = [
    (0, 1, 3),
    (0, 1, 4),
    (0, 2, 3),
    (0, 2, 5),
    (0, 4, 5),
    (1, 2, 4),
    (1, 2, 5),
    (1, 3, 5),
    (2, 3, 4),
    (3, 4, 5),
]


def vec(*entries) -> tuple:
    """The annotation vector with these ``(row, coefficient)`` entries, given
    in row order: ``vec((0, 1), (2, 3))`` is ``((0, 2), (1, 3))``, parallel
    rows and coefficients, and ``vec()`` is the zero vector ``()``."""
    return tuple(zip(*entries))


def surface_complex(triangles, iso: bool = False) -> SimplexTree:
    """Vertices at 0, edges at 1, triangles at 2 (all at 0 when iso)."""
    tree = SimplexTree()
    vertices = sorted({v for tri in triangles for v in tri})
    edges = sorted(
        {tuple(sorted(pair)) for tri in triangles for pair in
         ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))}
    )
    for v in vertices:
        tree.insert_simplex([v], 0.0)
    for edge in edges:
        tree.insert_simplex(edge, 0.0 if iso else 1.0)
    for tri in triangles:
        tree.insert_simplex(tri, 0.0 if iso else 2.0)
    tree.finalize()
    return tree


def full_triangle() -> SimplexTree:
    return surface_complex([(0, 1, 2)])


def hollow_triangle() -> SimplexTree:
    tree = SimplexTree()
    for v in range(3):
        tree.insert_simplex([v], 0.0)
    for edge in ((0, 1), (0, 2), (1, 2)):
        tree.insert_simplex(edge, 1.0)
    tree.finalize()
    return tree


def tetra_boundary(iso: bool = False) -> SimplexTree:
    """All proper faces of the 3-simplex: a triangulated 2-sphere."""
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return surface_complex(triangles, iso=iso)


def torus_7(iso: bool = False) -> SimplexTree:
    return surface_complex(TORUS_TRIANGLES, iso=iso)


def projective_plane_6(iso: bool = False) -> SimplexTree:
    return surface_complex(RP2_TRIANGLES, iso=iso)


def two_adjacent_triangles() -> SimplexTree:
    """Vertices pre-inserted at 0; edges and both triangles share value 1."""
    tree = SimplexTree()
    for v in range(4):
        tree.insert_simplex([v], 0.0)
    for edge in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3)):
        tree.insert_simplex(edge, 1.0)
    tree.insert_simplex((0, 1, 2), 1.0)
    tree.insert_simplex((1, 2, 3), 1.0)
    tree.finalize()
    return tree


def path_3() -> SimplexTree:
    """Vertices 0,1,2 at value 0; edges 01 and 12 at value 1."""
    tree = SimplexTree()
    for v in range(3):
        tree.insert_simplex([v], 0.0)
    tree.insert_simplex((0, 1), 1.0)
    tree.insert_simplex((1, 2), 1.0)
    tree.finalize()
    return tree


def canned_complexes() -> dict[str, SimplexTree]:
    return {
        "full_triangle": full_triangle(),
        "hollow_triangle": hollow_triangle(),
        "tetra_boundary": tetra_boundary(),
        "tetra_boundary_iso": tetra_boundary(iso=True),
        "torus_7": torus_7(),
        "torus_7_iso": torus_7(iso=True),
        "projective_plane_6": projective_plane_6(),
        "projective_plane_6_iso": projective_plane_6(iso=True),
        "two_adjacent_triangles": two_adjacent_triangles(),
        "path_3": path_3(),
    }


def quantize_values(complex: SimplexTree, digits: int) -> SimplexTree:
    """Copy with rounded filtration values (rounding is monotone, so the
    result is still a valid filtration, now with large equal-value blocks)."""
    tree = SimplexTree()
    for simplex, value in complex.simplices():
        tree.insert_simplex(simplex, round(value, digits))
    tree.finalize()
    return tree


def random_rips_corpus(
    count: int = 100,
    seed: int = 987231,
    max_points: int = 12,
    max_dim: int = 3,
    quantize: bool = False,
) -> list[SimplexTree]:
    """Seeded random flag-complex filtrations from small clouds in R^3."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(4, max_points)
        points = [[rng.uniform(0.0, 1.0) for _ in range(3)] for _ in range(n)]
        rho = rng.uniform(0.3, 1.2)
        complex = build_rips(points, rho, max_dim)
        if quantize:
            complex = quantize_values(complex, 1)
        out.append(complex)
    return out


def torus_point_sample(n: int = 100, seed: int = 55771) -> list[list[float]]:
    """Seeded sample from a torus surface in R^3 (R=2, r=1)."""
    rng = random.Random(seed)
    points = []
    for _ in range(n):
        u = rng.uniform(0.0, 2.0 * math.pi)
        v = rng.uniform(0.0, 2.0 * math.pi)
        w = 2.0 + math.cos(v)
        points.append([w * math.cos(u), w * math.sin(u), math.sin(v)])
    return points
