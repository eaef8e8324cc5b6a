import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camph import SimplexTree, read_filtration
from camph.errors import ClosureViolation, MonotonicityViolation, UnknownSimplex

from tests.fixtures import canned_complexes, full_triangle, two_adjacent_triangles
from tests.test_properties import closed_filtrations, tree_of


def test_insert_and_contains():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    assert t.value((0,)) == 0.0
    with pytest.raises(UnknownSimplex):
        t.value((1,))
    assert len(t) == 1


def test_reinsert_keeps_minimum_value():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 1.0)
    t.insert_simplex([1, 0], 0.5)
    assert t.value((0, 1)) == 0.5
    assert len(t) == 3


def test_insert_rejects_bad_vertices():
    t = SimplexTree()
    with pytest.raises(ValueError):
        t.insert_simplex([], 0.0)
    with pytest.raises(ValueError):
        t.insert_simplex([0, 0], 0.0)
    with pytest.raises(ValueError):
        t.insert_simplex([-1], 0.0)


def test_finalize_reports_missing_face():
    t = SimplexTree()
    t.insert_simplex([0, 1, 2], 2.0)
    with pytest.raises(ClosureViolation):
        t.finalize()

    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([0, 1], 1.0)
    with pytest.raises(ClosureViolation, match=r"\(1,\)"):
        t.finalize()


def test_finalize_reports_monotonicity_violation():
    t = SimplexTree()
    t.insert_simplex([0], 2.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 1.0)
    with pytest.raises(MonotonicityViolation):
        t.finalize()


def test_finalize_accepts_full_triangle():
    c = full_triangle()
    assert c.finalized
    assert c.dimension == 2
    assert len(c) == 7


def test_insert_after_finalize_rejected():
    c = full_triangle()
    with pytest.raises(RuntimeError):
        c.insert_simplex([9], 0.0)


def test_boundary_signs():
    c = full_triangle()
    assert c.boundary((0, 1, 2)) == [((1, 2), 1), ((0, 2), -1), ((0, 1), 1)]
    assert c.boundary((0, 1)) == [((1,), 1), ((0,), -1)]
    assert c.boundary((0,)) == []


def test_boundary_unknown_simplex():
    c = full_triangle()
    with pytest.raises(UnknownSimplex):
        c.boundary((0, 3))


def test_cofacets():
    c = full_triangle()
    assert c.cofacets((0, 1)) == [(0, 1, 2)]
    assert c.cofacets((0, 1, 2)) == []
    two = two_adjacent_triangles()
    assert two.cofacets((1, 2)) == [(0, 1, 2), (1, 2, 3)]
    with pytest.raises(UnknownSimplex):
        c.cofacets((5,))


def test_filtration_order_full_triangle():
    c = full_triangle()
    assert c.filtration_order() == [
        (0,),
        (1,),
        (2,),
        (0, 1),
        (0, 2),
        (1, 2),
        (0, 1, 2),
    ]


def test_keys_are_filtration_positions():
    c = two_adjacent_triangles()
    order = c.filtration_order()
    assert [c.key(s) for s in order] == list(range(len(order)))
    assert c.key((2, 1, 0)) == order.index((0, 1, 2))
    assert c.simplex_of == tuple(order)
    assert c.value_of == tuple(c.value(s) for s in order)
    for key, simplex in enumerate(order):
        faces = [c.simplex_of[f] for f in c.faces_of[key]]
        assert faces == [face for face, _ in c.boundary(simplex)]
    with pytest.raises(UnknownSimplex):
        c.key((0, 3))
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    with pytest.raises(RuntimeError):
        t.key((0,))


def _full_simplex(
    size: int, value_of=lambda s: float(len(s)), skip=(), lexicographic=False
) -> SimplexTree:
    """Every face of the simplex on ``size`` vertices except ``skip``,
    inserted by dimension or in lexicographic order."""
    faces = [s for k in range(1, size + 1) for s in combinations(range(size), k)]
    t = SimplexTree()
    for simplex in sorted(faces) if lexicographic else faces:
        if simplex not in skip:
            t.insert_simplex(simplex, value_of(simplex))
    return t


@pytest.mark.parametrize("size", range(1, 7))
def test_face_keys_for_every_simplex_size(size):
    c = _full_simplex(size)
    c.finalize()
    for key, simplex in enumerate(c.simplex_of):
        faces = [c.simplex_of[f] for f in c.faces_of[key]]
        assert faces == [face for face, _ in c.boundary(simplex)]
        assert c.dim_of[key] == len(simplex) - 1


@pytest.mark.parametrize("size", range(2, 7))
def test_bad_face_named_for_every_simplex_size(size):
    _check_bad_face_named(size, lexicographic=False)


@pytest.mark.parametrize("size", range(2, 7))
def test_bad_face_named_after_lexicographic_insertion(size):
    _check_bad_face_named(size, lexicographic=True)


def _check_bad_face_named(size: int, lexicographic: bool) -> None:
    # faces are looked up in boundary order, so the first bad one is named;
    # faces 0 and size - 1 of the top simplex are faces of nothing else
    top = tuple(range(size))
    t = _full_simplex(size, skip=(top[1:], top[:-1]), lexicographic=lexicographic)
    with pytest.raises(ClosureViolation) as err:
        t.finalize()
    assert str(err.value) == f"simplex {top} is stored but its face {top[1:]} is not"
    assert not t.finalized
    late = top[:-1]

    def value_of(s):
        return 9.0 if s == late else float(len(s))

    t = _full_simplex(size, value_of, lexicographic=lexicographic)
    with pytest.raises(MonotonicityViolation) as err:
        t.finalize()
    assert str(err.value) == (
        f"face {late} has value 9.0 above value {float(size)} of its coface {top}"
    )


def test_filtration_order_two_components():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 1.0)
    t.finalize()
    assert t.filtration_order() == [(0,), (1,)]


def test_filtration_order_respects_inclusion_everywhere():
    for name, c in canned_complexes().items():
        seen = set()
        for simplex in c.filtration_order():
            for face, _ in c.boundary(simplex):
                assert face in seen, (name, simplex, face)
            seen.add(simplex)


def test_boundary_of_boundary_vanishes():
    # signed double boundary cancels coefficient-wise over any field
    for p in (2, 3, 11):
        for name, c in canned_complexes().items():
            for simplex in c.simplex_of:
                if len(simplex) < 3:
                    continue
                acc: dict = {}
                for face, sign in c.boundary(simplex):
                    outer = 1 if sign > 0 else p - 1
                    for sub, sub_sign in c.boundary(face):
                        coeff = outer if sub_sign > 0 else p - outer
                        acc[sub] = (acc.get(sub, 0) + coeff) % p
                assert all(v == 0 for v in acc.values()), (name, simplex, p)


def test_boundary_size_matches_dimension():
    for _, c in canned_complexes().items():
        for simplex in c.simplex_of:
            if len(simplex) > 1:
                assert len(c.boundary(simplex)) == len(simplex)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_insert_rejects_non_finite_value(value):
    t = SimplexTree()
    with pytest.raises(ValueError, match="finite"):
        t.insert_simplex([0], value)
    assert len(t) == 0


def test_negative_zero_stored_as_zero():
    # -0.0 == 0.0, so keeping its sign would let the insertion order decide
    # which zero a diagram prints
    t = SimplexTree()
    t.insert_simplex([0], -0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], -0.0)
    t.finalize()
    assert [math.copysign(1.0, v) for v in t.value_of] == [1.0, 1.0, 1.0]


def _record_sorted(values: dict[tuple[int, ...], float]) -> tuple:
    """simplex_of, value_of, dim_of and faces_of, from one sort of
    (value, size, vertices) records."""
    records = sorted((value, len(s), s) for s, value in values.items())
    simplex_of = tuple(s for _, _, s in records)
    keys = {s: key for key, s in enumerate(simplex_of)}
    faces_of = tuple(
        tuple(keys[s[:j] + s[j + 1 :]] for j in range(len(s))) if len(s) > 1 else ()
        for s in simplex_of
    )
    value_of = tuple(value for value, _, _ in records)
    return simplex_of, value_of, tuple(size - 1 for _, size, _ in records), faces_of


@settings(max_examples=60, deadline=None)
@given(closed_filtrations(), st.data())
def test_order_matches_record_sort_in_any_insertion_order(tmp_path_factory, values, data):
    # finalize sorts a complex inserted in lexicographic order without
    # comparing vertex tuples, and any other by records; both must give
    # the record sort's order, faces and views
    expected = _record_sorted(values)
    lexicographic = sorted(values)
    shuffled = data.draw(st.permutations(lexicographic))
    if len(shuffled) > 1 and shuffled == lexicographic:
        shuffled.reverse()
    for order, fast in ((lexicographic, True), (shuffled, len(shuffled) < 2)):
        tree = tree_of({s: values[s] for s in order})
        assert (list(tree._values) == sorted(tree._values)) == fast
        assert (tree.simplex_of, tree.value_of, tree.dim_of, tree.faces_of) == expected
    path = tmp_path_factory.mktemp("flt") / "shuffled.flt"
    path.write_text("".join(f"{values[s]!r} {' '.join(map(str, s))}\n" for s in shuffled))
    read = read_filtration(path)
    assert (read.simplex_of, read.value_of, read.dim_of, read.faces_of) == expected
