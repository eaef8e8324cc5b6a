import hashlib
import json
import math
import random
from pathlib import Path

import pytest

from camph import (
    PrimeField,
    build_rips,
    compute_persistence,
    diagram_equal,
    pairwise_distances,
)
from camph.errors import DimensionMismatch

from tests.fixtures import random_rips_corpus, torus_point_sample
from tests.test_stats import stats_digest

F2 = PrimeField(2)
DATA = Path(__file__).parent / "data"


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
    c = build_rips([], 1.0, 2)
    assert len(c) == 0
    assert c.finalized


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_rips([[0.0]], -1.0, 1)
    with pytest.raises(ValueError):
        build_rips([[0.0]], math.nan, 1)
    with pytest.raises(ValueError):
        build_rips([[0.0]], 1.0, -1)
    # a fractional or boolean cap used to be ignored or read as 0/1
    eight = [[float(i)] for i in range(8)]
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="max_dim"):
            build_rips(eight, 10.0, bad)
    with pytest.raises(DimensionMismatch):
        pairwise_distances([0.0, 1.0])
    with pytest.raises(DimensionMismatch):
        build_rips([0.0, 1.0], 1.0, 1)
    with pytest.raises(DimensionMismatch):  # ragged
        build_rips([[0.0, 1.0], [1.0]], 1.0, 1)


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
                    dist[u][v]
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_coordinates_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        build_rips([[0.0, 0.0], [bad, 1.0], [1.0, 0.0]], 2.0, 2)


def test_overflowing_distance_rejected():
    # finite coordinates whose squared difference overflows: the edge is in
    # reach only under an infinite cap, and its value is named as inf
    with pytest.raises(ValueError, match=r"^value inf of \(0, 1\) is not finite$"):
        build_rips([(0.0,), (1e200,)], math.inf, 1)
    # the first simplex built with an infinite value is the one named
    with pytest.raises(ValueError, match=r"^value inf of \(0, 1, 2\) is not finite$"):
        build_rips([(0.0,), (1.0,), (1e200,)], math.inf, 2)
    # without edges nothing overflows
    assert len(build_rips([(0.0,), (1e200,)], math.inf, 0)) == 2


def test_unquantized_rips_bytes_match_recorded_digests():
    # the quantized corpora round diameters to one decimal, which hides a
    # last-bit change in a distance; these digests see every bit
    recorded = json.loads((DATA / "rips_sha256.json").read_text())
    corpus = [stats_digest(c) for c in random_rips_corpus()]
    assert corpus == recorded["random_rips_corpus"]
    points = torus_point_sample(100)
    assert stats_digest(build_rips(points, 1.5, 2)) == recorded["torus_sample_100"]
    dist = repr([[float(d) for d in row] for row in pairwise_distances(points)])
    digest = hashlib.sha256(dist.encode()).hexdigest()
    assert digest == recorded["torus_sample_100_distances"]


@pytest.mark.parametrize("width", range(13))
def test_distances_are_left_to_right_sums(width):
    rng = random.Random(width)
    pts = [tuple(rng.uniform(-5, 5) for _ in range(width)) for _ in range(15)]
    dist = pairwise_distances(pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            total = 0.0
            for x, y in zip(p, q):
                total += (x - y) * (x - y)
            assert dist[i][j] == math.sqrt(total)


def test_zero_width_cloud_is_coincident_vertices():
    c = build_rips([()] * 5, 1.0, 2)
    assert len(c) == 25  # 5 vertices, 10 edges, 10 triangles
    assert all(value == 0.0 for _, value in c.simplices())


def test_numpy_array_input_matches_list_input():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    pts = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(12)]
    from_list = build_rips(pts, 0.5, 2)
    from_array = build_rips(np.array(pts), 0.5, 2)
    assert from_array.simplices() == from_list.simplices()
    assert len(build_rips(np.zeros((5, 0)), 1.0, 2)) == 25
