import math
from collections import Counter

import pytest

from camph import (
    Created,
    EngineOptions,
    Killed,
    PersistenceDiagram,
    PersistenceEngine,
    PersistencePair,
    PrimeField,
    SimplexTree,
    betti_profile,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
)
from camph.errors import MissingFace, SlotAlreadyAssigned

from tests.fixtures import (
    canned_complexes,
    full_triangle,
    hollow_triangle,
    path_3,
    random_rips_corpus,
)

F2 = PrimeField(2)
F11 = PrimeField(11)

STANDARD = EngineOptions(lazy=False, reorder=False)


def test_vertex_into_empty_complex_creates_row_zero():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.finalize()
    engine = PersistenceEngine(t, F2, STANDARD)
    assert engine.insert((0,)) == Created(0)
    assert engine.live_cocycle_count(0) == 1


def test_edge_kills_younger_vertex_class():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.5)
    t.insert_simplex([0, 1], 1.0)
    t.finalize()
    engine = PersistenceEngine(t, F11, STANDARD)
    engine.insert((0,))
    engine.insert((1,))
    outcome = engine.insert((0, 1))
    assert isinstance(outcome, Killed)
    assert outcome.row == 1  # the younger class dies
    assert outcome.pair.triple == (0, 0.5, 1.0)
    assert outcome.pair.creator == (1,)
    assert outcome.pair.killer == (0, 1)


def test_cycle_closing_edge_creates_dim1_class():
    c = hollow_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    for simplex in c.filtration_order():
        outcome = engine.insert(simplex)
    assert isinstance(outcome, Created)  # third edge closes the loop
    assert engine.live_cocycle_count(1) == 1


def test_duplicate_insertion_rejected():
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    engine.insert((0,))
    with pytest.raises(SlotAlreadyAssigned):
        engine.insert((0,))


def test_missing_face_detected():
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    with pytest.raises(MissingFace):
        engine.insert((0, 1))


def test_full_triangle_diagram():
    d, _ = compute_persistence(full_triangle(), F2, STANDARD)
    assert d.multiset() == Counter(
        {(0, 0.0, 1.0): 2, (0, 0.0, math.inf): 1, (1, 1.0, 2.0): 1}
    )


def test_hollow_triangle_diagram():
    d, _ = compute_persistence(hollow_triangle(), F2, STANDARD)
    assert d.multiset() == Counter(
        {(0, 0.0, 1.0): 2, (0, 0.0, math.inf): 1, (1, 1.0, math.inf): 1}
    )


def test_empty_complex_gives_empty_diagram():
    t = SimplexTree()
    t.finalize()
    d, stats = compute_persistence(t, F2)
    assert len(d) == 0
    assert stats.field_ops == 0


def test_zero_length_pairs_suppressed_by_default():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 0.0)
    t.finalize()
    d, _ = compute_persistence(t, F2, STANDARD)
    assert d.triples() == [(0, 0.0, math.inf)]
    d, _ = compute_persistence(
        t, F2, EngineOptions(lazy=False, reorder=False, emit_zero_length=True)
    )
    assert sorted(d.triples()) == [(0, 0.0, 0.0), (0, 0.0, math.inf)]
    oracle = oracle_reduce(t, F2, emit_zero_length=True)
    assert sorted(oracle.triples()) == sorted(d.triples())


def test_diagram_equal_semantics():
    a = PersistenceDiagram([PersistencePair(0, 0.0, 1.0, (0,)), PersistencePair(1, 1.0, math.inf, (1, 2))])
    b = PersistenceDiagram([PersistencePair(1, 1.0, math.inf, (0, 2)), PersistencePair(0, 0.0, 1.0, (2,))])
    assert diagram_equal(a, a)
    assert diagram_equal(a, b)  # order and creator identity are ignored
    c = PersistenceDiagram([PersistencePair(0, 0.0, 1.0, (0,))])
    assert not diagram_equal(a, c)


def test_lazy_defers_creators_until_needed():
    c = path_3()
    engine = PersistenceEngine(c, F2, EngineOptions(lazy=True, reorder=False))
    engine.lazy_evaluation((0,))
    engine.lazy_evaluation((1,))
    assert engine.is_marked((0,)) and engine.is_marked((1,))
    assert engine.live_cocycle_count(0) == 0  # nothing inserted yet
    engine.lazy_evaluation((2,))
    engine.lazy_evaluation((0, 1))  # forces 0 and 1 in, then kills one class
    assert not engine.is_marked((0,)) and not engine.is_marked((1,))
    assert engine.live_cocycle_count(0) == 1
    engine.lazy_evaluation((1, 2))
    diagram = engine.finish()  # flushes the still-marked vertex 2 chain
    oracle = oracle_reduce(c, F2)
    assert diagram_equal(diagram, oracle)


def test_lazy_terminal_flush_emits_essential_classes():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 1.0)
    t.finalize()
    engine = PersistenceEngine(t, F2, EngineOptions(lazy=True, reorder=False))
    engine.lazy_evaluation((0,))
    engine.lazy_evaluation((1,))
    d = engine.finish()
    assert sorted(d.triples()) == [(0, 0.0, math.inf), (0, 1.0, math.inf)]


def test_mixed_entry_points_match_oracle():
    # insert() must force the faces lazy_evaluation() left marked
    field = PrimeField(3)
    for name, c in canned_complexes().items():
        engine = PersistenceEngine(c, field, STANDARD)
        for i, simplex in enumerate(c.filtration_order()):
            if i % 2:
                engine.lazy_evaluation(simplex)
            else:
                engine.insert(simplex)
        assert diagram_equal(engine.finish(), oracle_reduce(c, field)), name


def test_killed_row_is_maximal_row_of_boundary():
    for c in random_rips_corpus(count=5, seed=17):
        engine = PersistenceEngine(c, F11, STANDARD)
        for simplex in c.filtration_order():
            if len(simplex) == 1:
                engine.insert(simplex)
                continue
            a_bd = engine._boundary_annotation(c.key(simplex))
            outcome = engine.insert(simplex)
            if isinstance(outcome, Killed):
                assert a_bd and outcome.row == a_bd[-1][0]


def test_prefix_live_counts_match_oracle_betti():
    for name, c in canned_complexes().items():
        profile = betti_profile(c, F2)
        engine = PersistenceEngine(c, F2, STANDARD)
        for i, simplex in enumerate(c.filtration_order(), start=1):
            engine.insert(simplex)
            expected = profile[i]
            for dim in range(c.dimension + 1):
                assert engine.live_cocycle_count(dim) == expected[dim], (
                    name,
                    i,
                    dim,
                )


def test_essential_count_matches_final_betti():
    for name, c in canned_complexes().items():
        d, _ = compute_persistence(c, F2)
        betti = betti_profile(c, F2)[len(c)]
        essentials = d.betti()
        for dim in range(c.dimension + 1):
            assert essentials.get(dim, 0) == betti[dim], (name, dim)


def test_engine_matches_oracle_on_small_corpus():
    for c in random_rips_corpus(count=10, seed=3):
        for p in (2, 11):
            field = PrimeField(p)
            d, _ = compute_persistence(c, field)
            assert diagram_equal(d, oracle_reduce(c, field))


def test_finish_only_once():
    t = SimplexTree()
    t.finalize()
    engine = PersistenceEngine(t, F2)
    engine.finish()
    with pytest.raises(RuntimeError):
        engine.finish()


def test_requires_finalized_complex():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    with pytest.raises(ValueError):
        PersistenceEngine(t, F2)
