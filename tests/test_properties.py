"""Property tests on arbitrary face-closed filtrations, not only Rips ones.

Complexes are drawn as the closure of a few random simplices on at most
nine vertices, up to dimension 3, with values from a handful of levels so
that equal-value blocks are common. Each simplex takes the larger of its
drawn level and its faces' values, which makes the filtration monotone.
"""
from itertools import combinations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from camph import (
    EngineOptions,
    PersistenceEngine,
    PrimeField,
    SimplexTree,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
    read_filtration,
    reordered_filtration,
)
from camph.reorder import _key_ranges, _walk

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


@settings(max_examples=60, deadline=None)
@given(closed_filtrations(), st.data())
def test_read_filtration_matches_insertion(tmp_path_factory, values, data):
    # the reader builds its complex in one pass; it must freeze the same
    # complex as one insert_simplex per line and finalize()
    lines = [
        " ".join([repr(value), *map(str, data.draw(st.permutations(simplex)))])
        for simplex, value in values.items()
    ]
    path = tmp_path_factory.mktemp("flt") / "shuffled.flt"
    path.write_text("\n".join(data.draw(st.permutations(lines))) + "\n")
    read = read_filtration(path)
    inserted = tree_of(values)
    assert read.simplex_of == inserted.simplex_of
    assert read.value_of == inserted.value_of
    assert read.dim_of == inserted.dim_of
    assert read.faces_of == inserted.faces_of
    assert read.dimension == inserted.dimension
    for simplex in values:
        assert read.key(simplex) == inserted.key(simplex)


def _per_block_order(tree: SimplexTree) -> list[tuple[int, ...]]:
    """Each block tested on its own: kept in key order when it has one
    member, or when its second member is no vertex and every later member
    has the first as its youngest face; walked otherwise."""
    out = []
    for lo, hi in _key_ranges(tree):
        later = tree.faces_of[lo + 1 : hi]
        if hi - lo == 1 or (tree.dim_of[lo + 1] and all(max(f) == lo for f in later)):
            out += tree.simplex_of[lo:hi]
        else:
            out += [tree.simplex_of[key] for key in _walk(tree, lo, hi)]
    return out


# vertices 0-3 at 0.0 form a vertex-only block
_VERTICES = {(v,): 0.0 for v in range(4)}


@settings(max_examples=100, deadline=None)
@given(closed_filtrations())
# a vertex-only block, then a one-member last block
@example({**_VERTICES, (0, 1): 1.0})
# a block whose second member is a vertex: (2,), (3,), (2, 3) at 1.0
@example({(0,): 0.0, (1,): 0.0, (0, 1): 0.5, (2,): 1.0, (3,): 1.0, (2, 3): 1.0})
# the triangle in the block of (2, 3) has every face below that block
@example(
    {**_VERTICES, (0, 1): 0.5, (0, 2): 0.5, (1, 2): 0.5, (2, 3): 1.0, (0, 1, 2): 1.0}
)
# a walked block, (0, 3) not hanging off (0, 2), then a kept block of one
# edge and the triangle it closes, then a one-member last block
@example(
    {
        **_VERTICES,
        (1, 2): 0.5,
        (0, 2): 1.0,
        (0, 3): 1.0,
        (0, 1): 1.5,
        (0, 1, 2): 1.5,
        (2, 3): 2.0,
    }
)
def test_key_range_reorder_matches_full_walk(values):
    # reordered_filtration walks only the blocks one scan over the keys
    # finds; that must be the per-block rule, and a block the rule keeps
    # in key order must be one the walk leaves in key order
    tree = tree_of(values)
    keys = [key for lo, hi in _key_ranges(tree) for key in _walk(tree, lo, hi)]
    reference = _per_block_order(tree)
    assert reordered_filtration(tree) == reference
    assert reference == [tree.simplex_of[key] for key in keys]


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
    assert before.multiset() == after.multiset()


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
            assert before.multiset() == after.multiset(), (p, options)


def _shuffled_block(tree, lo, hi, data):
    """A random order of the equal-value block ``[lo, hi)`` in which faces
    still come before their cofaces: a random linear extension of inclusion."""
    pending = list(range(lo, hi))
    done: set[int] = set()
    out = []
    while pending:
        # faces below the block were inserted before it
        ready = [
            key
            for key in pending
            if all(face in done or face < lo for face in tree.faces_of[key])
        ]
        key = data.draw(st.sampled_from(ready))
        pending.remove(key)
        done.add(key)
        out.append(tree.simplex_of[key])
    return out


def _killed_pairs(diagram) -> set:
    return {(q.creator, q.killer) for q in diagram if q.killer is not None}


@settings(max_examples=40, deadline=None)
@given(closed_filtrations(), st.data())
def test_diagram_unchanged_under_block_permutation(values, data):
    # one block goes in as a random face-respecting permutation; the other
    # blocks go in as their slice of the order the mode uses. Zero-length
    # pairs are kept, and every killer pairs as the standard pairing of the
    # fed sequence does: by the oracle on a copy valued by position in it
    tree = tree_of(values)
    blocks = list(_key_ranges(tree))
    chosen = data.draw(st.sampled_from(range(len(blocks))))
    shuffled = _shuffled_block(tree, *blocks[chosen], data)
    orders = {False: tree.filtration_order(), True: reordered_filtration(tree)}
    for mode in MODES:
        options = EngineOptions(lazy=mode.lazy, reorder=mode.reorder, emit_zero_length=True)
        order = orders[options.reorder]
        fed = [
            simplex
            for index, (lo, hi) in enumerate(blocks)
            for simplex in (shuffled if index == chosen else order[lo:hi])
        ]
        by_position = tree_of({simplex: position for position, simplex in enumerate(fed)})
        for p in PRIMES:
            field = PrimeField(p)
            expected, _ = compute_persistence(tree, field, options)
            engine = PersistenceEngine(tree, field, options)
            for simplex in fed:
                engine.insert(simplex)
            diagram = engine.finish()
            assert diagram.multiset() == expected.multiset(), (p, options)
            standard = oracle_reduce(by_position, field, emit_zero_length=True)
            assert _killed_pairs(diagram) == _killed_pairs(standard), (p, options)
