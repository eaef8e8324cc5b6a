import math
import random

import numpy as np
import pytest

from camph import (
    PrimeField,
    SimplexTree,
    build_rips,
    close_complex,
    compute_persistence,
    diagram_equal,
    pairwise_distances,
)
from camph.errors import DimensionMismatch

from tests.fixtures import random_rips_corpus

F2 = PrimeField(2)


def test_two_points_within_reach():
    c = build_rips([[0.0], [1.0]], 2.0, 1)
    assert sorted(s for s, _ in c.simplices()) == [(0,), (0, 1), (1,)]
    assert c.value((0,)) == 0.0
    assert c.value((0, 1)) == 1.0


def test_two_points_out_of_reach():
    c = build_rips([[0.0], [3.0]], 2.0, 1)
    assert sorted(s for s, _ in c.simplices()) == [(0,), (1,)]


def test_equilateral_triangle_diameter_values():
    h = math.sqrt(3.0) / 2.0
    pts = [[0.0, 0.0], [1.0, 0.0], [0.5, h]]
    c = build_rips(pts, 2.0, 2)
    assert len(c) == 7
    assert c.value((0, 1, 2)) == pytest.approx(1.0)
    for e in ((0, 1), (0, 2), (1, 2)):
        assert c.value(e) == pytest.approx(1.0)


def test_max_dim_zero_keeps_only_vertices():
    c = build_rips([[0.0], [0.5]], 2.0, 0)
    assert all(len(s) == 1 for s, _ in c.simplices())


def test_empty_cloud():
    c = build_rips(np.empty((0, 3)), 1.0, 2)
    assert len(c) == 0
    assert c.finalized


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_rips([[0.0]], -1.0, 1)
    with pytest.raises(ValueError):
        build_rips([[0.0]], math.nan, 1)
    with pytest.raises(ValueError):
        build_rips([[0.0]], 1.0, -1)
    with pytest.raises(DimensionMismatch):
        pairwise_distances([0.0, 1.0])


def test_value_is_max_edge_length_of_simplex():
    # diameter decomposition, checked exhaustively on small clouds
    rng = random.Random(92)
    for _ in range(10):
        pts = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(7)]
        dist = pairwise_distances(pts)
        c = build_rips(pts, 0.9, 3)
        for simplex, value in c.simplices():
            if len(simplex) == 1:
                assert value == 0.0
            else:
                expected = max(
                    dist[u, v]
                    for i, u in enumerate(simplex)
                    for v in simplex[i + 1 :]
                )
                assert value == expected


def test_diagram_invariant_under_point_relabelling():
    rng = random.Random(7)
    pts = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(9)]
    base, _ = compute_persistence(build_rips(pts, 1.0, 2), F2)
    for _ in range(3):
        shuffled = list(pts)
        rng.shuffle(shuffled)
        other, _ = compute_persistence(build_rips(shuffled, 1.0, 2), F2)
        assert diagram_equal(base, other)


def test_rips_corpus_is_valid():
    for c in random_rips_corpus(count=5, seed=1):
        assert c.finalized
        assert c.dimension <= 3


def test_close_complex_fills_triangle():
    t = SimplexTree()
    t.insert_simplex([0, 1, 2], 1.0)
    close_complex(t)
    t.finalize()
    assert len(t) == 7
    assert all(v == 1.0 for _, v in t.simplices())


def test_close_complex_minimum_over_cofaces():
    t = SimplexTree()
    t.insert_simplex([0, 1], 1.0)
    t.insert_simplex([0, 1, 2], 2.0)
    close_complex(t)
    t.finalize()
    assert t.value((0,)) == 1.0
    assert t.value((1,)) == 1.0
    assert t.value((2,)) == 2.0
    assert t.value((0, 2)) == 2.0
    assert t.value((1, 2)) == 2.0
    assert t.value((0, 1)) == 1.0


def test_close_complex_noop_on_closed_input():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 1.0)
    before = sorted(t.simplices())
    close_complex(t)
    assert sorted(t.simplices()) == before


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        build_rips([[0.0, 0.0], [bad, 1.0], [1.0, 0.0]], 2.0, 2)
