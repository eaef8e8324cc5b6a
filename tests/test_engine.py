import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

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
    build_rips,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
    read_filtration,
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
    torus_point_sample,
    vec,
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
    assert engine._matrices[0].find_annotation(t.key((0,))) == vec((0, 1))


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
    # a failed insertion takes no row and leaves the simplex free for a
    # retry: (0,) arrives second, so its class is on row 1
    engine.insert((0,))
    assert engine._matrices[0].find_annotation(c.key((0,))) == vec((1, 1))
    engine.insert((0, 1))
    assert engine.live_cocycle_count(0) == 1


def test_missing_face_named_when_every_other_face_is_zero():
    # (0, 1) and (0, 2) are killers, so they are the zero column's slots;
    # the triangle's sum is not skipped as zero but reports the missing (1, 2)
    c = full_triangle()
    engine = PersistenceEngine(c, F2, STANDARD)
    for simplex in [(0,), (1,), (2,), (0, 1), (0, 2)]:
        engine.insert(simplex)
    assert engine._matrices[1]._zero.slots == {c.key((0, 1)), c.key((0, 2))}
    with pytest.raises(MissingFace, match=r"face \(1, 2\) of \(0, 1, 2\)"):
        engine.insert((0, 1, 2))


def test_zero_slots_hold_the_zero_annotation(monkeypatch):
    # a matrix skips a boundary sum whose slots are all in its zero set, so
    # after every insertion, before any lookup, the set must be exactly the
    # slots that hold (): killers, folds that leave (), which lazy
    # insertion reaches on the Rips corpus, and slots whose column a kill
    # cancelled
    fold = CompressedAnnotationMatrix.fold
    folded = set()

    def recording_fold(self, slot, row, faces):
        applied = fold(self, slot, row, faces)
        if applied:
            folded.add(slot)
        return applied

    monkeypatch.setattr(CompressedAnnotationMatrix, "fold", recording_fold)
    zero_folds = 0
    for c in random_rips_corpus(count=10, seed=3):
        folded.clear()
        engine = PersistenceEngine(c, F11)
        for simplex in c.filtration_order():
            engine.insert(simplex)
            for matrix in engine._matrices:
                zero = set(matrix._zero.slots)
                holding_zero = {k for k in matrix._slots if matrix.find_annotation(k) == ()}
                assert zero == holding_zero
        zero_folds += sum(len(m._zero.slots & folded) for m in engine._matrices)
        assert diagram_equal(engine.finish(), oracle_reduce(c, F11))
    assert zero_folds


@pytest.mark.parametrize(
    "face_entry,coface_entry",
    [("lazy_evaluation", "insert"), ("lazy_evaluation", "lazy_evaluation")],
)
def test_missing_face_named_after_marked_face_is_forced(face_entry, coface_entry):
    # (1,) is marked and (0,) was never inserted: the error names the
    # never-inserted face, and the call is rejected before the marked face
    # would be forced, under either name of the one insertion
    c = full_triangle()
    engine = PersistenceEngine(
        c, PrimeField(3), EngineOptions(reorder=False, record_stats=True)
    )
    getattr(engine, face_entry)((1,))
    assert engine.is_marked((1,))
    before = engine.stats()
    for _ in range(3):
        with pytest.raises(MissingFace, match=r"face \(0,\) of \(0, 1\)"):
            getattr(engine, coface_entry)((0, 1))
        assert engine.is_marked((1,))
        assert engine.live_cocycle_count(0) == 0
        assert engine.stats() == before
    # the failed calls took no row: (0,) arrives on row 1, and the retry
    # forces (1,) and folds (0,)
    engine.insert((0,))
    assert engine._marked == {c.key((1,)): 0, c.key((0,)): 1}
    getattr(engine, coface_entry)((0, 1))
    assert not engine.is_marked((0,)) and not engine.is_marked((1,))
    assert engine._creators[0] == {0: c.key((1,))}


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
    assert [q.triple for q in d] == [(0, 0.0, math.inf)]
    d, _ = compute_persistence(
        t, F2, EngineOptions(lazy=False, reorder=False, emit_zero_length=True)
    )
    assert [q.triple for q in d] == [(0, 0.0, 0.0), (0, 0.0, math.inf)]
    oracle = oracle_reduce(t, F2, emit_zero_length=True)
    assert oracle.multiset() == d.multiset()


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
    assert [q.triple for q in d] == [(0, 0.0, math.inf), (0, 1.0, math.inf)]


def test_mixed_entry_points_match_oracle():
    # lazy_evaluation is insert under another name: whether an engine
    # defers is fixed when it is built, so alternating the two names gives
    # the diagram and statistics of insert alone, on lazy and standard
    # engines
    field = PrimeField(3)
    for lazy in (False, True):
        options = EngineOptions(lazy=lazy, reorder=False, record_stats=True)
        for name, c in canned_complexes().items():
            runs = []
            for mixed in (False, True):
                engine = PersistenceEngine(c, field, options)
                for i, simplex in enumerate(c.filtration_order()):
                    if mixed and i % 2:
                        engine.lazy_evaluation(simplex)
                    else:
                        engine.insert(simplex)
                diagram = engine.finish()
                runs.append((list(diagram), engine.stats()))
            assert runs[0] == runs[1], (lazy, name)
            assert diagram_equal(diagram, oracle_reduce(c, field)), (lazy, name)


def test_killed_row_is_maximal_row_of_boundary(killed_rows):
    for c in random_rips_corpus(count=5, seed=17):
        engine = PersistenceEngine(c, F11, STANDARD)
        for simplex in c.filtration_order():
            if len(simplex) == 1:
                engine.insert(simplex)
                continue
            faces = c.faces_of[c.key(simplex)]
            a_bd = engine._matrices[len(simplex) - 2].signed_sum(faces)
            kills = len(killed_rows)
            engine.insert(simplex)
            if a_bd:
                rows, _ = a_bd
                assert killed_rows[kills:] == [rows[-1]]
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
        essentials = Counter(q.dim for q in d if q.essential)
        for dim in range(c.dimension + 1):
            assert essentials[dim] == betti[dim], (name, dim)


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


def _run(c, options, field=F2):
    """An engine fed the mode's whole sequence, not yet finished."""
    engine = PersistenceEngine(c, field, options)
    for simplex in _sequence(c, options):
        engine.insert(simplex)
    return engine


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
def test_top_simplex_inserted_twice_rejected(options, monkeypatch):
    # every simplex, not only the top ones that no matrix holds: creators,
    # killers, and under lazy fold killers, forced creators and deferred
    # creators; full_triangle's top simplex kills, hollow_triangle's last
    # edge creates. A rejected call does no work: it charges the field
    # nothing and moves no peak
    fold = CompressedAnnotationMatrix.fold
    lazy_evaluation = PersistenceEngine.lazy_evaluation
    folds = []
    calls = []

    def counting_fold(self, slot, row, faces):
        folds.append(fold(self, slot, row, faces))
        return folds[-1]

    def counting_lazy_evaluation(self, simplex):
        calls.append(simplex)
        lazy_evaluation(self, simplex)

    monkeypatch.setattr(CompressedAnnotationMatrix, "fold", counting_fold)
    monkeypatch.setattr(PersistenceEngine, "lazy_evaluation", counting_lazy_evaluation)
    forced = deferred = 0
    for c in canned_complexes().values():
        calls.clear()
        engine = _run(c, replace(options, record_stats=True))
        # forced faces re-enter through lazy_evaluation, and nothing else does
        forced += len(calls)
        for simplex in c.filtration_order():
            while engine.is_marked(simplex):
                deferred += 1
                engine.insert(simplex)  # a deferred creator goes in on its second call
            before = engine.stats()
            with pytest.raises(SlotAlreadyAssigned):
                engine.insert(simplex)
            assert engine.stats() == before, simplex
    assert (True in folds, forced > 0, deferred > 0) == (options.lazy,) * 3


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_rejected_insertion_changes_nothing(options):
    # before each simplex of the mode's sequence, every simplex that would
    # be rejected is tried: one with a face that has not arrived, and one
    # that has arrived and is not marked. Each call raises before it takes
    # a row, forces a marked face or charges the field
    for name, c in canned_complexes().items():
        engine = PersistenceEngine(c, PrimeField(3), replace(options, record_stats=True))
        fed = set()

        def state():
            live = [engine.live_cocycle_count(dim) for dim in range(c.dimension + 1)]
            return engine.stats(), dict(engine._marked), live, repr(engine._arrivals)

        for simplex in _sequence(c, options):
            for key, other in enumerate(c.simplex_of):
                if other in fed:
                    if engine.is_marked(other):
                        continue
                    error = SlotAlreadyAssigned
                elif all(c.simplex_of[face] in fed for face in c.faces_of[key]):
                    continue
                else:
                    error = MissingFace
                before = state()
                with pytest.raises(error):
                    engine.insert(other)
                assert state() == before, (name, other)
            engine.insert(simplex)
            fed.add(simplex)


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
    engine = _run(c, options)
    # deferred under lazy, so not yet a live class
    assert engine.is_marked((1, 2)) == options.lazy
    assert engine.live_cocycle_count(1) == (0 if options.lazy else 1)
    d = engine.finish()
    assert engine.live_cocycle_count(1) == 1
    assert (1, 1.0, math.inf) in d.multiset()


@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_vertices_only_complex(options):
    t = SimplexTree()
    for v, value in ((0, 0.0), (1, 0.5), (2, 0.5)):
        t.insert_simplex([v], value)
    t.finalize()
    stats_on = EngineOptions(lazy=options.lazy, reorder=options.reorder, record_stats=True)
    d, stats = compute_persistence(t, F2, stats_on)
    assert [q.triple for q in d] == [
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


# ----------------------------------------------------------------------
# the paper's validity invariant: every inserted simplex's signed boundary
# sum is zero. The fields count nothing, so these sums charge no counter.

VALIDITY_PRIMES = (2, 3, 7919)


def _nonzero_boundary_sums(engine, simplices) -> list:
    """The simplices among ``simplices`` whose faces' annotations have a
    nonzero signed sum, added up here from each face's ``find_annotation``
    so that no shortcut of ``signed_sum`` is taken on trust."""
    c, p = engine.complex, engine.field.p
    nonzero = []
    for simplex in simplices:
        acc = {}
        for j, face in enumerate(c.faces_of[c.key(simplex)]):
            annotation = engine._matrices[len(simplex) - 2].find_annotation(face)
            for row, coeff in zip(*annotation):
                acc[row] = (acc.get(row, 0) + (-coeff if j % 2 else coeff)) % p
        if any(acc.values()):
            nonzero.append(simplex)
    return nonzero


@pytest.mark.parametrize("p", VALIDITY_PRIMES)
@pytest.mark.parametrize("options", MODES, ids=MODE_IDS)
def test_boundary_sums_vanish_after_each_insertion(options, p):
    for name, c in canned_complexes().items():
        engine = PersistenceEngine(c, PrimeField(p), options)
        fed = []
        for simplex in _sequence(c, options):
            engine.insert(simplex)
            fed.append(simplex)
            live = [s for s in fed if not engine.is_marked(s)]
            assert _nonzero_boundary_sums(engine, live) == [], (name, simplex)
        engine.finish()
        assert _nonzero_boundary_sums(engine, fed) == [], name


@pytest.fixture(scope="module")
def validity_inputs():
    inputs = random_rips_corpus(quantize=True)
    inputs.append(read_filtration(Path(__file__).parent / "data" / "rp2.flt"))
    inputs.append(build_rips(torus_point_sample(100), 1.5, 2))
    return inputs


@pytest.mark.parametrize("p", VALIDITY_PRIMES)
def test_boundary_sums_vanish_after_finish(validity_inputs, p):
    for i, c in enumerate(validity_inputs):
        for options in MODES:
            engine = _run(c, options, PrimeField(p))
            engine.finish()
            simplices = c.filtration_order()
            assert _nonzero_boundary_sums(engine, simplices) == [], (i, options)
