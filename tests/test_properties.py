"""Property tests on arbitrary face-closed filtrations, not only Rips ones.

Complexes are drawn as the closure of a few random simplices on at most
nine vertices, up to dimension 3, with values from a handful of levels so
that equal-value blocks are common. Each simplex takes the larger of its
drawn level and its faces' values, which makes the filtration monotone.
"""
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from camph import (
    EngineOptions,
    PrimeField,
    SimplexTree,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
)

PRIMES = (2, 3, 7919)
MODES = [
    EngineOptions(lazy=lazy, reorder=reorder)
    for lazy in (False, True)
    for reorder in (False, True)
]
# debug=True audits every matrix invariant after every operation
AUDITED = EngineOptions(lazy=True, reorder=True, debug=True)


@st.composite
def closed_filtrations(draw) -> dict[tuple[int, ...], float]:
    n = draw(st.integers(1, 9))
    tops = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=10,
        )
    )
    closure = {
        face
        for top in tops
        for size in range(1, len(top) + 1)
        for face in combinations(sorted(top), size)
    }
    simplices = sorted(closure, key=lambda s: (len(s), s))
    levels = draw(st.integers(1, 4))
    drawn = draw(
        st.lists(
            st.integers(0, levels - 1),
            min_size=len(simplices),
            max_size=len(simplices),
        )
    )
    values: dict[tuple[int, ...], float] = {}
    for simplex, level in zip(simplices, drawn):
        faces = combinations(simplex, len(simplex) - 1) if len(simplex) > 1 else ()
        values[simplex] = max([level / 2, *(values[f] for f in faces)])
    return values


def tree_of(values: dict[tuple[int, ...], float]) -> SimplexTree:
    tree = SimplexTree()
    for simplex, value in values.items():
        tree.insert_simplex(simplex, value)
    tree.finalize()
    return tree


@settings(max_examples=40, deadline=None)
@given(closed_filtrations())
def test_engine_matches_oracle_for_every_prime_and_mode(values):
    tree = tree_of(values)
    for p in PRIMES:
        field = PrimeField(p)
        reference = oracle_reduce(tree, field)
        for options in (*MODES, AUDITED):
            diagram, _ = compute_persistence(tree, field, options)
            assert diagram_equal(diagram, reference), (p, options)


@settings(max_examples=40, deadline=None)
@given(closed_filtrations(), st.data())
def test_diagram_unchanged_under_increasing_relabelling(values, data):
    vertices = sorted({v for simplex in values for v in simplex})
    ids = sorted(
        data.draw(
            st.lists(
                st.integers(0, 1000),
                min_size=len(vertices),
                max_size=len(vertices),
                unique=True,
            )
        )
    )
    relabel = dict(zip(vertices, ids))
    moved = {
        tuple(relabel[v] for v in simplex): value for simplex, value in values.items()
    }
    field = PrimeField(3)
    before, _ = compute_persistence(tree_of(values), field)
    after, _ = compute_persistence(tree_of(moved), field)
    assert before.triples() == after.triples()


@settings(max_examples=40, deadline=None)
@given(closed_filtrations(), st.data())
def test_diagram_unchanged_under_any_relabelling(values, data):
    # an arbitrary permutation changes the lexicographic tie-breaks inside
    # equal-value blocks; with zero-length pairs dropped that cannot show
    vertices = sorted({v for simplex in values for v in simplex})
    relabel = dict(zip(vertices, data.draw(st.permutations(vertices))))
    moved = {
        tuple(sorted(relabel[v] for v in simplex)): value
        for simplex, value in values.items()
    }
    before_tree, after_tree = tree_of(values), tree_of(moved)
    for p in PRIMES:
        field = PrimeField(p)
        for options in MODES:
            before, _ = compute_persistence(before_tree, field, options)
            after, _ = compute_persistence(after_tree, field, options)
            assert before.triples() == after.triples(), (p, options)
