import hashlib
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camph import PrimeField, build_rips, builders, compute_persistence, diagram_equal
from camph.errors import DimensionMismatch

from tests.fixtures import random_rips_corpus, torus_point_sample
from tests.test_stats import stats_digest

F2 = PrimeField(2)
DATA = Path(__file__).parent / "data"


def _simplices(c):
    """Every simplex of ``c`` with its value, in lexicographic order."""
    return sorted(zip(c.simplex_of, c.value_of))


def _distance(p, q) -> float:
    """The root of the squared coordinate differences added left to right
    from 0.0, the rule build_rips measures by."""
    total = 0.0
    for x, y in zip(p, q):
        total += (x - y) * (x - y)
    return math.sqrt(total)


def _edge_distances(points) -> list[list[float]]:
    """The n x n distance matrix read off the edges of
    ``build_rips(points, inf, 1)``: symmetric, 0.0 on the diagonal."""
    c = build_rips(points, math.inf, 1)
    dist = [[0.0] * len(points) for _ in points]
    for simplex, value in zip(c.simplex_of, c.value_of):
        if len(simplex) == 2:
            u, v = simplex
            dist[u][v] = dist[v][u] = value
    return dist


def test_two_points_within_reach():
    c = build_rips([[0.0], [1.0]], 2.0, 1)
    assert sorted(c.simplex_of) == [(0,), (0, 1), (1,)]
    assert c.value((0,)) == 0.0
    assert c.value((0, 1)) == 1.0


def test_two_points_out_of_reach():
    c = build_rips([[0.0], [3.0]], 2.0, 1)
    assert sorted(c.simplex_of) == [(0,), (1,)]


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
    assert all(len(s) == 1 for s in c.simplex_of)


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
        build_rips([0.0, 1.0], 1.0, 1)
    with pytest.raises(DimensionMismatch):  # ragged
        build_rips([[0.0, 1.0], [1.0]], 1.0, 1)


def test_value_is_max_edge_length_of_simplex():
    # diameter decomposition, checked exhaustively on small clouds
    rng = random.Random(92)
    for _ in range(10):
        pts = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(7)]
        c = build_rips(pts, 0.9, 3)
        for simplex, value in zip(c.simplex_of, c.value_of):
            if len(simplex) == 1:
                assert value == 0.0
            else:
                expected = max(
                    _distance(pts[u], pts[v])
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


def test_overflow_named_in_vertex_order_not_sweep_order():
    # the sweep meets vertex 2 first, but cliques still grow from each
    # vertex's neighbours in ascending order, so (0, 1) is built first
    with pytest.raises(ValueError, match=r"^value inf of \(0, 1\) is not finite$"):
        build_rips([(1e200,), (1.0,), (0.0,)], math.inf, 2)


def test_unquantized_rips_bytes_match_recorded_digests():
    # the quantized corpora round diameters to one decimal, which hides a
    # last-bit change in a distance; these digests see every bit
    recorded = json.loads((DATA / "rips_sha256.json").read_text())
    corpus = [stats_digest(c) for c in random_rips_corpus()]
    assert corpus == recorded["random_rips_corpus"]
    points = torus_point_sample(100)
    assert stats_digest(build_rips(points, 1.5, 2)) == recorded["torus_sample_100"]
    # the digest is of the full n x n matrix, rebuilt here from the edges
    dist = repr(_edge_distances(points))
    digest = hashlib.sha256(dist.encode()).hexdigest()
    assert digest == recorded["torus_sample_100_distances"]


@pytest.mark.parametrize("width", range(13))
def test_distances_are_left_to_right_sums(width):
    rng = random.Random(width)
    pts = [tuple(rng.uniform(-5, 5) for _ in range(width)) for _ in range(15)]
    dist = _edge_distances(pts)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            assert dist[i][j] == _distance(p, q)


def test_zero_width_cloud_is_coincident_vertices():
    c = build_rips([()] * 5, 1.0, 2)
    assert len(c) == 25  # 5 vertices, 10 edges, 10 triangles
    assert all(value == 0.0 for value in c.value_of)


def test_numpy_array_input_matches_list_input():
    np = pytest.importorskip("numpy")
    rng = random.Random(5)
    pts = [[rng.uniform(0, 1) for _ in range(3)] for _ in range(12)]
    from_list = build_rips(pts, 0.5, 2)
    from_array = build_rips(np.array(pts), 0.5, 2)
    assert _simplices(from_array) == _simplices(from_list)
    assert len(build_rips(np.zeros((5, 0)), 1.0, 2)) == 25


def _all_pairs_simplices(points, max_edge_length, max_dim):
    """_simplices(build_rips(...)) the slow way: every vertex subset, its
    diameter the largest of its measured pairs."""
    out = []
    for size in range(1, max_dim + 2):
        for simplex in itertools.combinations(range(len(points)), size):
            pairs = itertools.combinations([points[v] for v in simplex], 2)
            value = max(itertools.starmap(_distance, pairs), default=0.0)
            if value <= max_edge_length:
                out.append((simplex, value))
    return sorted(out)


# a few scales, signs and ties, so that sweep windows end on exact ties,
# and +-1e200, whose gaps' squares overflow to inf
_COORDINATES = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 1e-200, -1e-200, 1e16, 1e16 + 2, 1e200, -1e200]
    ),
    st.integers(-4, 4).map(float),
    st.floats(-3.0, 3.0),
)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0, 1, 2, 3, 5]), st.data())
def test_sweep_measures_every_pair_in_reach(width, data):
    points = data.draw(
        st.lists(st.tuples(*[_COORDINATES] * width), min_size=1, max_size=6)
    )
    copies = data.draw(st.lists(st.integers(0, len(points) - 1), max_size=2))
    points += [points[i] for i in copies]
    # reaches that sit exactly on a distance or on one coordinate's gap
    gaps = [abs(p[c] - q[c]) for p in points for q in points for c in range(width)]
    max_edge_length = data.draw(
        st.one_of(
            st.sampled_from([0.0, math.inf]),
            st.sampled_from([_distance(p, q) for p in points for q in points]),
            st.sampled_from(gaps) if gaps else st.just(0.0),
            st.floats(0.0, 10.0),
        )
    )
    max_dim = data.draw(st.integers(0, 3))
    expected = _all_pairs_simplices(points, max_edge_length, max_dim)
    if any(value == math.inf for _, value in expected):
        with pytest.raises(ValueError, match="is not finite"):
            build_rips(points, max_edge_length, max_dim)
    else:
        assert _simplices(build_rips(points, max_edge_length, max_dim)) == expected


def _on_second(lo: float, hi: float) -> list[tuple[float, float]]:
    """Two points that differ only on the second coordinate, and a third
    that makes the first coordinate the widest, so the sweep's."""
    return [(0.0, lo), (0.0, hi), (3.0, lo)]


# a pair exactly a reach of 1.0 apart at 1 + 2**-9 and 2 + 2**-9 on the
# second coordinate, and its upper point one ulp either side
_EDGE = 2.0 * (1.0 + 2.0**-10)
_BELOW_EDGE = math.nextafter(_EDGE, 0.0)
_ABOVE_EDGE = math.nextafter(_EDGE, 3.0)
# a coincident pair near the float limit, and a pair 1e-300 apart near 0
_HUGE = [
    (-1e300, 1e300),
    (1e300, -1e300),
    (1e300, 1e300),
    (1e300, 1e300),
    (0.0, 0.0),
    (0.0, 1e-300),
]


_BOUNDARY_CASES = [
    # the squared gap underflows to 0.0, so the edge is in reach
    pytest.param([(0.0,), (1e-200,)], 0.0, 3, id="underflow"),
    # exactly the reach apart on the sweep coordinate
    pytest.param([(0.0, 0.0), (1.0, 0.0)], 1.0, 3, id="reach-apart"),
    pytest.param(
        [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (1.0, 0.0)], 0.5, 9, id="reach-apart-tied"
    ),
    # 1e16 + 1.0 rounds to 1e16, the next float is 1e16 + 2
    pytest.param([(1e16,), (1e16 + 2,), (1e16 + 4,)], 1.0, 3, id="1e16-reach-1"),
    pytest.param([(1e16,), (1e16 + 2,), (1e16 + 4,)], 2.0, 5, id="1e16-reach-2"),
    pytest.param([(1e16,), (1e16 + 2,), (1e16 + 4,)], 1.5, 3, id="1e16-reach-1.5"),
    pytest.param([(1e16, 0.0), (1e16, 1.0), (1e16 + 2, 0.0)], 2.0, 5, id="1e16-2d"),
    # opposite signs on either side of 0
    pytest.param([(-0.5,), (0.5,)], 1.0, 3, id="signs"),
    pytest.param([(-0.5, 1.0), (0.5, -1.0), (-0.0, 0.0)], 1.2, 5, id="signs-2d"),
    pytest.param([(-1e-200,), (1e-200,), (0.0,), (-0.0,)], 0.0, 14, id="signs-tiny"),
    # an infinite reach measures every pair
    pytest.param([(0.0,), (1e100,), (-1e100,), (3.0,)], math.inf, 14, id="infinite"),
    # the reach apart on the second coordinate, whose term is tested in
    # the window, and one ulp either side: at 1.0 and 2.0 (1.0 - 2**-53
    # and 2.0 are 1.0 + 2**-53 apart, which rounds to the reach), and at
    # _EDGE - 1.0 and _EDGE
    pytest.param(_on_second(math.nextafter(1.0, 0.0), 2.0), 1.0, 4, id="2nd-below"),
    pytest.param(_on_second(1.0, 2.0), 1.0, 4, id="2nd-reach-edge"),
    pytest.param(_on_second(1.0, math.nextafter(2.0, 3.0)), 1.0, 3, id="2nd-above"),
    pytest.param(_on_second(_EDGE - 1.0, _BELOW_EDGE), 1.0, 4, id="2nd-cell-below"),
    pytest.param(_on_second(_EDGE - 1.0, _EDGE), 1.0, 4, id="2nd-cell-edge"),
    pytest.param(_on_second(_EDGE - 1.0, _ABOVE_EDGE), 1.0, 3, id="2nd-cell-above"),
    pytest.param(
        [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0), (2.0, 5.0)], 1.0, 9, id="2nd-constant"
    ),
    # gaps of 3 reaches whose squares underflow to 0.0: in reach
    pytest.param(
        [(0.0, 0.0), (0.0, 3e-200), (1e-199, 0.0)], 1e-200, 7, id="2d-underflow"
    ),
    # gaps whose squares overflow to inf, and a gap whose square underflows
    pytest.param(_HUGE, 1e-300, 8, id="huge-coordinates-tiny-reach"),
    pytest.param(_HUGE, 1e-100, 8, id="huge-coordinates"),
    # a point 10**13 reaches from 0
    pytest.param([(1e10, 1e10), (0.0, 0.0), (0.0, 1e-3)], 1e-3, 4, id="many-cells"),
    # a reach of 0 or inf, and one coordinate (a second term of 0.0)
    pytest.param(
        [(0.0, 0.0), (0.0, -0.0), (2.0, 1e-200), (2.0, 0.0)], 0.0, 6, id="2d-reach-0"
    ),
    pytest.param(
        [(0.0, 0.0), (1.0, 5.0), (-3.0, 2.0), (2.0, -1.0)],
        math.inf,
        14,
        id="2d-reach-inf",
    ),
    pytest.param([(0.0,), (0.4,), (1.0,), (2.5,)], 1.0, 8, id="one-coordinate"),
]


@pytest.mark.parametrize("points, max_edge_length, size", _BOUNDARY_CASES)
def test_sweep_boundary_cases(points, max_edge_length, size):
    built = _simplices(build_rips(points, max_edge_length, 2))
    assert built == _all_pairs_simplices(points, max_edge_length, 2)
    assert len(built) == size


@pytest.mark.parametrize(
    "points, max_edge_length",
    [
        pytest.param(torus_point_sample(), 0.5, id="torus-0.5"),
        pytest.param(torus_point_sample(), 1.5, id="torus-1.5"),
    ]
    + [pytest.param(*case.values[:2], id=case.id) for case in _BOUNDARY_CASES],
)
def test_measured_pairs_are_in_reach_on_second_coordinate(
    monkeypatch, points, max_edge_length
):
    # _distances gets the columns in their own order, so the second-widest
    # coordinate keeps its index; one coordinate has no such term
    columns = list(zip(*points))
    spans = [max(col) - min(col) for col in columns]
    widest = sorted(range(len(columns)), key=spans.__getitem__, reverse=True)
    measure = builders._distances
    terms = []

    def distances(columns, i, others):
        if len(widest) > 1:
            col = columns[widest[1]]
            y = col[i]
            terms.extend(math.sqrt(0.0 + (col[j] - y) * (col[j] - y)) for j in others)
        else:
            terms.extend(0.0 for _ in others)
        return measure(columns, i, others)

    monkeypatch.setattr(builders, "_distances", distances)
    c = build_rips(points, max_edge_length, 1)
    # every edge was measured, so the wrapper saw the pairs
    assert len(terms) >= sum(len(s) == 2 for s in c.simplex_of)
    assert [t for t in terms if not t <= max_edge_length] == []
