import math
from collections import Counter

import pytest

from camph import (
    CompressedAnnotationMatrix,
    EngineOptions,
    PersistenceDiagram,
    PersistenceEngine,
    PersistencePair,
    PrimeField,
    SimplexTree,
    betti_profile,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
    reordered_filtration,
)
from camph.errors import MissingFace, SlotAlreadyAssigned

from tests.fixtures import (
    EQUIVALENCE_PRIMES,
    canned_complexes,
    full_triangle,
    hollow_triangle,
    path_3,
    random_rips_corpus,
)

F2 = PrimeField(2)
F11 = PrimeField(11)

STANDARD = EngineOptions(lazy=False, reorder=False)


@pytest.fixture
def killed_rows(monkeypatch):
    """The rows kill_cocycle returns, in call order."""
    rows = []
    kill = CompressedAnnotationMatrix.kill_cocycle

    def recording(self, a_bd):
        rows.append(kill(self, a_bd))
        return rows[-1]

    monkeypatch.setattr(CompressedAnnotationMatrix, "kill_cocycle", recording)
    return rows


def test_vertex_into_empty_complex_creates_row_zero():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.finalize()
    engine = PersistenceEngine(t, F2, STANDARD)
    assert engine.insert((0,)) is None
    assert engine.live_cocycle_count(0) == 1
    pair = engine.finish().pairs[0]
    assert (pair.triple, pair.creator) == ((0, 0.0, math.inf), (0,))
    # vertices are top-dimensional there; below the top, the first class
    # takes row 0 of the dimension's annotation matrix
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 1.0)
    t.finalize()
    engine = PersistenceEngine(t, F2, STANDARD)
    engine.insert((0,))
    assert engine._matrices[0].find_annotation(t.key((0,))) == ((0, 1),)


def test_edge_kills_younger_vertex_class(killed_rows):
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.5)
    t.insert_simplex([0, 1], 1.0)
    t.finalize()
    engine = PersistenceEngine(t, F11, STANDARD)
    engine.insert((0,))
    engine.insert((1,))
    engine.insert((0, 1))
    assert killed_rows == [1]  # the younger class dies
    assert engine.live_cocycle_count(0) == 1
    essential, pair = engine.finish()  # sorted by (dim, birth, death)
    assert pair.triple == (0, 0.5, 1.0)
    assert pair.creator == (1,)
    assert pair.killer == (0, 1)
    assert essential.creator == (0,)


def test_cycle_closing_edge_creates_dim1_class(killed_rows):
    c = hollow_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    *rest, last = c.filtration_order()
    for simplex in rest:
        engine.insert(simplex)
    kills = len(killed_rows)
    assert engine.live_cocycle_count(1) == 0
    engine.insert(last)  # third edge closes the loop
    assert len(killed_rows) == kills
    assert engine.live_cocycle_count(1) == 1
    assert engine.finish().pairs[-1].creator == last


def test_duplicate_insertion_rejected():
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    engine.insert((0,))
    with pytest.raises(SlotAlreadyAssigned):
        engine.insert((0,))


def test_missing_face_detected():
    # the message names the first face, in boundary order, not inserted
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    with pytest.raises(MissingFace, match=r"face \(1,\) of \(0, 1\)"):
        engine.insert((0, 1))
    engine.insert((1,))
    with pytest.raises(MissingFace, match=r"face \(0,\) of \(0, 1\)"):
        engine.insert((0, 1))


@pytest.mark.parametrize(
    "face_entry,coface_entry",
    [("lazy_evaluation", "insert"), ("lazy_evaluation", "lazy_evaluation")],
)
def test_missing_face_named_after_marked_face_is_forced(face_entry, coface_entry):
    # (1,) is marked and (0,) was never inserted: the marked face goes in,
    # and the error names the never-inserted one
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    getattr(engine, face_entry)((1,))
    assert engine.is_marked((1,))
    with pytest.raises(MissingFace, match=r"face \(0,\) of \(0, 1\)"):
        getattr(engine, coface_entry)((0, 1))
    assert not engine.is_marked((1,))
    assert engine.live_cocycle_count(0) == 1


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


def test_killed_row_is_maximal_row_of_boundary(killed_rows):
    for c in random_rips_corpus(count=5, seed=17):
        engine = PersistenceEngine(c, F11, STANDARD)
        for simplex in c.filtration_order():
            if len(simplex) == 1:
                engine.insert(simplex)
                continue
            a_bd = engine._boundary_annotation(c.key(simplex))
            kills = len(killed_rows)
            engine.insert(simplex)
            if a_bd:
                assert killed_rows[kills:] == [a_bd[-1][0]]
            else:
                assert len(killed_rows) == kills


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


@pytest.mark.parametrize("entry", ["insert", "lazy_evaluation"])
def test_no_insertion_after_finish(entry):
    t = SimplexTree()
    for v in range(3):
        t.insert_simplex([v], 0.0)
    t.insert_simplex((0, 1), 1.0)
    t.finalize()
    engine = PersistenceEngine(t, F2)
    step = getattr(engine, entry)
    step((0,))
    step((1,))
    engine.finish()
    assert engine.live_cocycle_count(0) == 2
    for simplex in ((2,), (0, 1)):
        with pytest.raises(RuntimeError, match="finish"):
            step(simplex)
    assert engine.live_cocycle_count(0) == 2


def test_requires_finalized_complex():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    with pytest.raises(ValueError):
        PersistenceEngine(t, F2)


# ----------------------------------------------------------------------
# the top dimension stores no annotation: no simplex there is a face

MODES = [
    EngineOptions(lazy=lazy, reorder=reorder)
    for lazy in (False, True)
    for reorder in (False, True)
]
MODE_IDS = [f"lazy={o.lazy}-reorder={o.reorder}" for o in MODES]


def _sequence(c, options):
    return reordered_filtration(c) if options.reorder else c.filtration_order()


def _run(c, options):
    """An engine fed the mode's whole sequence, not yet finished."""
    engine = PersistenceEngine(c, F2, options)
    step = engine.lazy_evaluation if options.lazy else engine.insert
    for simplex in _sequence(c, options):
        step(simplex)
    return engine, step


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_no_annotation_matrix_for_the_top_dimension(options, monkeypatch):
    built = []
    slots = []
    init = CompressedAnnotationMatrix.__init__
    create = CompressedAnnotationMatrix.create_cocycle
    zero = CompressedAnnotationMatrix.assign_zero
    fold = CompressedAnnotationMatrix.fold

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    def recording_create(self, slot, row):
        slots.append(slot)
        create(self, slot, row)

    def recording_zero(self, slot):
        slots.append(slot)
        zero(self, slot)

    def recording_fold(self, slot, row, faces):
        # a fold assigns its slot only when it applies
        folded = fold(self, slot, row, faces)
        if folded:
            slots.append(slot)
        return folded

    monkeypatch.setattr(CompressedAnnotationMatrix, "__init__", counting_init)
    monkeypatch.setattr(CompressedAnnotationMatrix, "create_cocycle", recording_create)
    monkeypatch.setattr(CompressedAnnotationMatrix, "assign_zero", recording_zero)
    monkeypatch.setattr(CompressedAnnotationMatrix, "fold", recording_fold)
    complexes = list(canned_complexes().values()) + random_rips_corpus(count=5, seed=5)
    for c in complexes:
        built.clear()
        slots.clear()
        d, _ = compute_persistence(c, F2, options)
        assert diagram_equal(d, oracle_reduce(c, F2))
        # one matrix per dimension below the top, none for the top itself
        assert len(built) == c.dimension
        assert sorted(slots) == [k for k in range(len(c)) if c.dim_of[k] < c.dimension]


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_top_simplex_inserted_twice_rejected(options):
    # full_triangle's top simplex kills; hollow_triangle's last edge creates
    for c in (full_triangle(), hollow_triangle()):
        engine, step = _run(c, options)
        for simplex in c.filtration_order():
            if len(simplex) - 1 != c.dimension:
                continue
            while engine.is_marked(simplex):
                step(simplex)  # a deferred creator goes in on its second call
            with pytest.raises(SlotAlreadyAssigned):
                step(simplex)


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_top_killer_pairs_with_the_youngest_creator(options):
    # every killer, the top ones and those that a folded creator pairs with
    # included, pairs as the standard pairing of the mode's own insertion
    # order does: by the oracle on a copy valued by position in that order
    complexes = list(canned_complexes().values()) + random_rips_corpus(count=10, seed=7)
    opts = EngineOptions(lazy=options.lazy, reorder=options.reorder, emit_zero_length=True)
    for c in complexes:
        sequence = _sequence(c, options)
        by_position = SimplexTree()
        for position, simplex in enumerate(sequence):
            by_position.insert_simplex(simplex, position)
        by_position.finalize()
        for p in EQUIVALENCE_PRIMES:
            field = PrimeField(p)
            expected = {
                (q.creator, q.killer)
                for q in oracle_reduce(by_position, field, emit_zero_length=True)
                if q.killer is not None
            }
            d, _ = compute_persistence(c, field, opts)
            got = {(q.creator, q.killer) for q in d if q.killer is not None}
            assert got == expected, (len(c), p)


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_zero_boundary_top_simplex_counted_when_created(options):
    c = hollow_triangle()  # top dimension 1; edge (1, 2) closes the loop
    engine, _ = _run(c, options)
    # deferred under lazy, so not yet a live class
    assert engine.is_marked((1, 2)) == options.lazy
    assert engine.live_cocycle_count(1) == (0 if options.lazy else 1)
    d = engine.finish()
    assert engine.live_cocycle_count(1) == 1
    assert (1, 1.0, math.inf) in d.triples()


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_vertices_only_complex(options):
    t = SimplexTree()
    for v, value in ((0, 0.0), (1, 0.5), (2, 0.5)):
        t.insert_simplex([v], value)
    t.finalize()
    stats_on = EngineOptions(lazy=options.lazy, reorder=options.reorder, record_stats=True)
    d, stats = compute_persistence(t, F2, stats_on)
    assert sorted(d.triples()) == [
        (0, 0.0, math.inf),
        (0, 0.5, math.inf),
        (0, 0.5, math.inf),
    ]
    assert diagram_equal(d, oracle_reduce(t, F2))
    assert (stats.g_max_total, stats.s_max_total, stats.matrix_nonzeros_peak) == (3, 3, 3)
    assert stats.g_max_by_dim == stats.s_max_by_dim == {0: 3}


# ----------------------------------------------------------------------
# folding a deferred creator into the coface that kills it on arrival


@pytest.mark.parametrize("reorder", (False, True))
def test_fold_keeps_pairs_and_run_statistics(reorder, monkeypatch):
    # with every fold declined the engine forces each marked face, as the
    # unfolded algorithm does; folding changes no pair, no pair's order and
    # no counter, over every equivalence prime, with and without
    # zero-length pairs
    complexes = list(canned_complexes().values()) + random_rips_corpus(count=10, seed=7)
    fold = CompressedAnnotationMatrix.fold
    folds = []

    def counting_fold(self, slot, row, faces):
        folds.append(fold(self, slot, row, faces))
        return folds[-1]

    def runs():
        return [
            (list(d), stats)
            for c in complexes
            for p in EQUIVALENCE_PRIMES
            for emit in (False, True)
            for d, stats in [
                compute_persistence(
                    c,
                    PrimeField(p),
                    EngineOptions(reorder=reorder, record_stats=True, emit_zero_length=emit),
                )
            ]
        ]

    monkeypatch.setattr(CompressedAnnotationMatrix, "fold", counting_fold)
    folded = runs()
    assert True in folds and False in folds
    monkeypatch.setattr(CompressedAnnotationMatrix, "fold", lambda *args: False)
    assert folded == runs()


def test_full_triangle_folds_every_deferred_creator(killed_rows):
    # a, b, c and bc are deferred; ab forces a and folds b, ac folds c and
    # the top simplex abc folds bc, so nothing is killed and only a's class
    # is ever created
    engine = PersistenceEngine(full_triangle(), F2, EngineOptions(reorder=False))
    for simplex in full_triangle().filtration_order():
        engine.lazy_evaluation(simplex)
    assert killed_rows == []
    assert engine.live_cocycle_count(0) == 1
    assert engine.finish().multiset() == Counter(
        {(0, 0.0, 1.0): 2, (0, 0.0, math.inf): 1, (1, 1.0, 2.0): 1}
    )
