import math
from collections import Counter
from itertools import count

import pytest
from hypothesis import Phase, find, given, settings
from hypothesis import strategies as st

from camph import CompressedAnnotationMatrix, PrimeField
from camph.annotations import _Column
from camph.errors import (
    InvariantViolation,
    SlotAlreadyAssigned,
    UnassignedSlot,
    ZeroAnnotation,
)
from camph.field import OpCountingField

from tests.fixtures import vec

F2 = PrimeField(2)
F11 = PrimeField(11)


# ----------------------------------------------------------------------
# signed boundary sums


def _holding(field, vectors, rows=13):
    """A matrix whose slots 0, 1, ... hold ``vectors`` over rows < ``rows``.

    Rows 0 .. rows-1 are live unit columns. Slot i starts as the unit
    column of a fresh row r, and killing r with v + (r, -1) turns that
    column into exactly v (lambda = -f/c = 1); only public operations.
    """
    m = CompressedAnnotationMatrix(field, debug=True)
    for row in range(rows):
        m.create_cocycle(("unit", row), row)
    for slot, v in enumerate(vectors):
        row = rows + slot
        m.create_cocycle(slot, row)
        m.kill_cocycle(vec(*zip(*v), (row, field.p - 1)))
    return m


def test_sum_cancels_and_reports_max_row():
    # a - b with b = -((1,8),(2,5)): 3+8 = 0 mod 11 cancels row 1, and
    # the maximal row comes last, where kill_cocycle reads it
    m = _holding(F11, [vec((1, 3), (4, 2)), vec((1, 3), (2, 6))])
    total = m.signed_sum([0, 1])
    assert total == vec((2, 5), (4, 2))
    assert (total[0][-1], total[1][-1]) == (4, 2)


def test_sum_zero_identity():
    a = vec((0, 1), (3, 7))
    m = _holding(F11, [a, ()])
    assert m.signed_sum([]) == ()
    assert m.signed_sum([1]) == ()
    assert m.signed_sum([0, 1]) == a
    assert m.signed_sum([1, 1, 0]) == a
    assert m.signed_sum([1, 1]) == ()


def test_sum_self_cancellation_over_z2():
    # over Z_2 the signs collapse: a - a and a + a both vanish
    m = _holding(F2, [vec((0, 1))])
    assert m.signed_sum([0, 0]) == ()
    assert m.signed_sum([0, ("unit", 1), 0]) == vec((1, 1))


def test_scale_examples():
    # a kill with a_bd = a + (6, c) turns the unit column of row 6 into
    # lambda * a, lambda = -1/c: c = 5 gives lambda = 2, c = 10 gives 1
    a = ((0, 3), (5, 6))
    for c, scaled in ((5, vec((0, 6), (5, 1))), (10, vec(*a))):
        m = CompressedAnnotationMatrix(F11, debug=True)
        for slot in range(7):
            m.create_cocycle(slot, slot)
        assert m.kill_cocycle(vec(*a, (6, c))) == 6
        assert m.find_annotation(6) == scaled


def test_negate():
    # an odd position negates its term
    m = _holding(F11, [(), vec((0, 3), (2, 4))])
    assert m.signed_sum([0, 1]) == vec((0, 8), (2, 7))
    assert m.signed_sum([0, 0]) == ()


def _vectors(p):
    entries = st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=p - 1),
        max_size=8,
    )
    return entries.map(lambda d: vec(*sorted(d.items())))


@settings(max_examples=300)
@given(_vectors(11), _vectors(11))
def test_sum_commutes_and_is_canonical(a, b):
    # terms in even positions can be swapped without changing the sum
    m = _holding(F11, [a, b, ()])
    left = m.signed_sum([0, 2, 1])
    assert left == m.signed_sum([1, 2, 0])
    assert left == () or (len(left) == 2 and len(left[0]) == len(left[1]) > 0)
    entries = list(zip(*left))
    rows = [r for r, _ in entries]
    assert rows == sorted(set(rows))
    assert all(0 < c < 11 for _, c in entries)
    expected = {r: c for r, c in zip(*a)}
    for r, c in zip(*b):
        expected[r] = (expected.get(r, 0) + c) % 11
    assert left == vec(*sorted((r, c) for r, c in expected.items() if c))


@settings(max_examples=300)
@given(_vectors(11), _vectors(11), _vectors(11))
def test_sum_is_associative(a, b, c):
    # (a - b) + c == a - (b - c): grouping the terms does not matter
    first = _holding(F11, [a, b, c])
    ab = first.signed_sum([0, 1])
    bc = first.signed_sum([1, 2])
    m = _holding(F11, [a, b, c, ab, bc, ()])
    abc = m.signed_sum([0, 1, 2])
    assert m.signed_sum([3, 5, 2]) == abc
    assert m.signed_sum([0, 4]) == abc


@settings(max_examples=300)
@given(_vectors(11))
def test_negation_is_additive_inverse(a):
    m = _holding(F11, [a])
    assert m.signed_sum([0, 0]) == ()


# ----------------------------------------------------------------------
# compressed matrix


def test_create_cocycle_uses_the_given_row():
    # rows are the caller's seniority: a class goes on the row it is given,
    # gaps and all, and a live row is refused with no change
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a", 5)
    assert m.find_annotation("a") == vec((5, 1))
    assert m.live_row_count == 1
    m.create_cocycle("b", 8)
    assert m.find_annotation("b") == vec((8, 1))
    assert m.live_row_count == 2
    with pytest.raises(InvariantViolation):
        m.create_cocycle("c", 5)
    with pytest.raises(UnassignedSlot):
        m.find_annotation("c")
    assert (m.live_row_count, m.distinct_column_count, m.nonzero_count) == (2, 2, 2)
    # the maximal row names the youngest class
    assert m.kill_cocycle(vec((5, 1), (8, 1))) == 8
    assert m.find_annotation("b") == vec((5, 1))


def test_create_rejects_assigned_slot():
    m = CompressedAnnotationMatrix(F2)
    m.create_cocycle("a", 0)
    with pytest.raises(SlotAlreadyAssigned):
        m.create_cocycle("a", 1)
    with pytest.raises(SlotAlreadyAssigned):
        m.assign_zero("a")


def test_find_annotation_requires_assignment():
    m = CompressedAnnotationMatrix(F2)
    with pytest.raises(UnassignedSlot):
        m.find_annotation("ghost")


def test_assign_zero_single_class():
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.assign_zero("x")
    m.assign_zero("y")
    assert m.find_annotation("x") == ()
    assert m.find_annotation("y") == ()
    assert m.distinct_column_count == 0


def test_zero_slots_list_assigned_zeros_and_found_cancellations():
    m = CompressedAnnotationMatrix(F11, debug=True)
    m.create_cocycle("a", 0)
    m.assign_zero("z")
    # a fold whose other slots sum to zero leaves (), a nonzero sum does not
    assert m.fold("f", 1, ["z", "f"])
    assert m.fold("g", 2, ["g", "a"])  # s = -a, and g gets -s = a
    assert m._slots["g"] is m._slots["a"]
    assert m._zero.slots == {"z", "f"}
    # a kill cancels the column that a and g share: both slots move to the
    # zero column at the cancel, before any lookup
    m.kill_cocycle(vec((0, 1)))
    assert m._zero.slots == {"z", "f", "a", "g"}
    assert all(m._slots[slot] is m._zero for slot in "zfag")
    assert m.distinct_column_count == 0
    # a sum over listed slots is () with no lookup, but still refuses an
    # unassigned slot
    assert m.signed_sum(["g", "a", "f", "z"]) == ()
    with pytest.raises(UnassignedSlot):
        m.signed_sum(["z", "ghost"])


def test_kill_zeroes_single_column():
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a", 0)
    assert m.kill_cocycle(vec((0, 1))) == 0
    assert m.live_row_count == 0
    assert m.distinct_column_count == 0
    assert m.find_annotation("a") == ()


def test_kill_rejects_zero_annotation():
    m = CompressedAnnotationMatrix(F2)
    m.create_cocycle("a", 0)
    with pytest.raises(ZeroAnnotation):
        m.kill_cocycle(())


def test_kill_rejects_a_dead_row_before_any_change():
    # row 1 of a_bd is not live; the kill's row 2 holds "c", untouched
    m = CompressedAnnotationMatrix(F11, debug=True)
    m.create_cocycle("a", 0)
    m.create_cocycle("c", 2)
    for a_bd, dead in (
        (vec((1, 3), (2, 4)), 1),
        (vec((0, 1), (1, 3)), 1),
        (vec((2, 1), (3, 1)), 3),
    ):
        with pytest.raises(InvariantViolation, match=f"^row {dead} is not live$"):
            m.kill_cocycle(a_bd)
        assert [m.find_annotation(s) for s in "ac"] == [vec((0, 1)), vec((2, 1))]
        assert (m.live_row_count, m.distinct_column_count, m.nonzero_count) == (2, 2, 2)
        m.check_invariants()


def test_kill_merges_colliding_columns_z2():
    # two unit columns; destroying the younger folds it onto the older
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a", 0)
    m.create_cocycle("b", 1)
    assert m.kill_cocycle(vec((0, 1), (1, 1))) == 1
    assert m.find_annotation("a") == vec((0, 1))
    assert m.find_annotation("b") == vec((0, 1))
    assert m.distinct_column_count == 1
    assert m.live_row_count == 1


def test_kill_updates_multi_entry_column_z2():
    # build the state {[(0,1)], [(1,1)], [(0,1),(1,1)]} through the ops,
    # then destroy row 1: the mixed column folds onto [(0,1)], the unit
    # column at row 1 becomes zero
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a", 0)
    m.create_cocycle("b", 1)
    m.create_cocycle("c", 2)
    m.kill_cocycle(vec((0, 1), (1, 1), (2, 1)))  # column of "c" -> [(0,1),(1,1)]
    assert m.find_annotation("c") == vec((0, 1), (1, 1))
    assert m.distinct_column_count == 3
    assert m.kill_cocycle(vec((1, 1))) == 1
    assert m.find_annotation("a") == vec((0, 1))
    assert m.find_annotation("b") == ()
    assert m.find_annotation("c") == vec((0, 1))
    assert m.distinct_column_count == 1
    assert m.live_row_count == 1


def test_forward_chain_followed_and_compressed():
    # with no lookup between the kills, b's column merges into a's, and the
    # merged column then takes in x's and w's slots: every slot points
    # straight at the one stored column
    m = CompressedAnnotationMatrix(F2, debug=True)
    for row, slot in enumerate("wxab"):
        m.create_cocycle(slot, row)
    m.kill_cocycle(vec((2, 1), (3, 1)))  # b's column becomes a's
    m.kill_cocycle(vec((1, 1), (2, 1)))  # a's column becomes x's
    m.kill_cocycle(vec((0, 1), (1, 1)))  # x's column becomes w's
    column = m._slots["b"]
    assert column.slots == set("wxab")
    assert all(m._slots[slot] is column for slot in "wxab")
    for slot in "wxab":
        assert m.find_annotation(slot) == vec((0, 1))
    assert m.distinct_column_count == 1


def test_kill_arithmetic_z11():
    # the column update is A + (-f/c_j) * a_bd; for A = [(1,1)],
    # a_bd = [(0,3),(1,4)]: lambda = -1/4 = 8, so A becomes
    # [(0, 3*8 mod 11)] = [(0,2)]  (brute-force mod-11 arithmetic)
    m = CompressedAnnotationMatrix(F11, debug=True)
    m.create_cocycle("a", 0)
    m.create_cocycle("b", 1)
    assert m.kill_cocycle(vec((0, 3), (1, 4))) == 1
    assert m.find_annotation("b") == vec((0, 2))
    assert m.find_annotation("a") == vec((0, 1))
    assert m.live_row_count == 1


def test_kill_scaling_z11_matches_scalar_oracle():
    # the update A <- A + (-f/c_j)*a_bd with A = [(2,5)], a_bd =
    # [(0,3),(2,4)]; every expected value recomputed by direct modular
    # arithmetic: -5/4 = 6 * inv(4) = 6*3 = 18 = 7; 3*7 = 21 = 10;
    # 5 + 4*7 = 33 = 0
    m = CompressedAnnotationMatrix(F11, debug=True)
    for row, slot in enumerate("abcd"):
        m.create_cocycle(slot, row)
    # d = [(3,1)] receives -1 * [(2,6),(3,1)]: A = [(2,5)]
    assert m.kill_cocycle(vec((2, 6), (3, 1))) == 3
    assert m.find_annotation("d") == vec((2, 5))
    assert m.kill_cocycle(vec((0, 3), (2, 4))) == 2
    assert m.find_annotation("d") == vec((0, 10))
    # c = [(2,1)]: -1/4 = 8, so c becomes [(0, 3*8 = 24 = 2)]
    assert m.find_annotation("c") == vec((0, 2))


def test_kill_field_ops_z11_hand_trace():
    # the kill charges the calls the update makes through the field: per
    # touched column one neg and one div for lambda, |a_bd| muls when
    # lambda != 1, and one add per row the column shares with a_bd
    field = OpCountingField(11)
    m = CompressedAnnotationMatrix(field, debug=True)
    for row, slot in enumerate("abc"):
        m.create_cocycle(slot, row)
    # c = [(2,1)] receives -1 * a_bd: c = [(0,10),(1,10)]
    m.kill_cocycle(vec((0, 1), (1, 1), (2, 1)))
    assert m.find_annotation("c") == vec((0, 10), (1, 10))
    before = field.ops
    # row 1 holds b (f = 1) and c (f = 10); c_j = 3, inv(3) = 4
    assert m.kill_cocycle(vec((0, 3), (1, 3))) == 1
    # b = [(1,1)]: lambda = -1*4 = 7; row 0: 7*3 = 21 = 10; shared row 1
    # cancels: 1 + 7*3 = 22 = 0. 1 neg + 1 div + 2 mul + 1 add = 5
    assert m.find_annotation("b") == vec((0, 10))
    # c: lambda = -10*4 = -40 = 4; shared row 0 cancels: 10 + 4*3 = 22 = 0,
    # and row 1 too: 10 + 4*3 = 0. 1 neg + 1 div + 2 mul + 2 add = 6
    assert m.find_annotation("c") == ()
    assert field.ops - before == 5 + 6


def test_row_rings_empty_after_kill():
    # after destroying row j no live column retains an entry there
    m = CompressedAnnotationMatrix(F11, debug=True)
    for slot in range(4):
        m.create_cocycle(slot, slot)
    m.kill_cocycle(vec((0, 2), (1, 5), (3, 7)))
    for slot in range(4):
        assert all(row != 3 for row, _ in zip(*m.find_annotation(slot)))
    assert m.live_row_count == 3
    m.check_invariants()


def _drop_row_entry(m):
    entries = m._rows[0]
    del entries[next(iter(entries))]


def _noncanonical_column_coefficient(m):
    # slot "a"'s column, re-stored under its key with p in row 0
    column = m._columns.pop(m.find_annotation("a"))
    column.key = vec((0, F11.p))
    m._columns[column.key] = column


def _coefficients_longer_than_rows(m):
    # slot "a"'s column, re-stored with a coefficient that has no row
    column = m._columns.pop(m.find_annotation("a"))
    column.key = ((0,), (1, 1))
    m._columns[column.key] = column


def _store_empty_rows_and_coefficients(m):
    # a zero slot pointed at a stored column of no rows: a zero vector that
    # is not ()
    m.assign_zero("z")
    column = m._slots["z"] = _Column(((), ()))
    m._columns[column.key] = column


def _list_column_without_entry(m):
    # row 0 lists slot "c"'s column in place of slot "b"'s, so the
    # nonzero counts still agree
    entries = m._rows[0]
    del entries[m._slots["b"]]
    entries[m._slots["c"]] = None


def _bump_nonzero_count(m):
    m._nnz += 1


def _move_slot(m, slot, column):
    # point ``slot`` at ``column``, keeping the slot sets in step
    m._slots[slot].slots.remove(slot)
    column.slots.add(slot)
    m._slots[slot] = column


def _point_at_unindexed_column(m):
    # slot "d" moves to a copy of the column it shares with "c": equal key,
    # but not the stored object
    _move_slot(m, "d", _Column(m.find_annotation("d")))


def _list_nonzero_slot_as_zero(m):
    # slot "a" holds a stored nonzero column
    m._zero.slots.add("a")


def _end_chain_at_private_zero(m):
    # slot "d" moves to a zero column other than the matrix's own, as it
    # would if its column cancelled and kept its slots
    _move_slot(m, "d", _Column(()))


def _store_column_without_slots(m):
    # slot "b", the only slot of its stored column, moves to the zero
    # column and leaves that column stored
    _move_slot(m, "b", m._zero)


@pytest.mark.parametrize(
    "corrupt",
    [_drop_row_entry, _noncanonical_column_coefficient,
     _coefficients_longer_than_rows, _store_empty_rows_and_coefficients,
     _list_column_without_entry, _bump_nonzero_count,
     _point_at_unindexed_column, _list_nonzero_slot_as_zero,
     _end_chain_at_private_zero, _store_column_without_slots],
)
def test_audit_catches_corruption(corrupt):
    # row 0 holds two columns, vec((0, 1)) and vec((0, 2)); row 2 holds one,
    # which slots c and d share
    m = CompressedAnnotationMatrix(F11, debug=True)
    for row, slot in enumerate("abc"):
        m.create_cocycle(slot, row)
    m.kill_cocycle(vec((0, 3), (1, 4)))
    assert m.fold("d", 3, ["d", "c"])
    assert len(m._rows[0]) == 2
    assert m._slots["c"].slots == {"c", "d"}
    m.check_invariants()
    corrupt(m)
    with pytest.raises(InvariantViolation):
        m.check_invariants()


def _two_classes():
    # live rows 0 and 1 over Z_3: slots a and b hold their unit columns,
    # and killing row 2 left slot c on vec((0, 2), (1, 2))
    m = CompressedAnnotationMatrix(PrimeField(3), debug=True)
    for row, slot in enumerate("abc"):
        m.create_cocycle(slot, row)
    m.kill_cocycle(vec((0, 1), (1, 1), (2, 1)))
    assert m.find_annotation("c") == vec((0, 2), (1, 2))
    return m


def _empty_live_row(m):
    m._rows[5] = {}


def _stale_key(m):
    # a's column, also stored under a key that no column has
    m._columns[vec((1, 2))] = m._columns[vec((0, 1))]


def _descending_rows(m):
    # c's column, re-keyed with its rows swapped and stored under that key
    column = m._columns.pop(vec((0, 2), (1, 2)))
    column.key = ((1, 0), (2, 2))
    m._columns[column.key] = column


def _slot_left_out_of_its_set(m):
    m._slots["b"].slots.discard("b")


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_empty_live_row, "live row 5 is empty"),
        (_stale_key, "column stored under a stale key"),
        (_descending_rows, "column rows not strictly ascending"),
        (_slot_left_out_of_its_set, "a slot is missing from its column's slot set"),
    ],
)
def test_audit_names_each_corruption(corrupt, message):
    m = _two_classes()
    corrupt(m)
    with pytest.raises(InvariantViolation, match=f"^{message}$"):
        m.check_invariants()


def test_kill_with_a_repeated_maximal_row_is_caught():
    # the argument names row 1 twice, so zeroing one copy leaves row 1 live
    m = _two_classes()
    with pytest.raises(InvariantViolation, match="^row 1 survived its destruction$"):
        m.kill_cocycle(((1, 1), (1, 1)))



# ----------------------------------------------------------------------
# differential test of kill_cocycle against a dense model
#
# A program is a few creations, then a list of operations whose indices
# pick among the live rows or the nonzero slots of the moment (modulo
# their number), so any drawn list runs. Besides random boundary
# annotations, a kill may use a multiple of a live annotation, which
# cancels that column to zero unless extra entries are added, or a
# multiple of the difference of two, which makes their columns collide.
# Each step also carries a tuple of slot picks whose annotations and signed
# sum are checked after the operation; every slot is checked at the end.
# After every step each slot must point straight at a stored column or the
# zero column, the lookups must change no slot or slot set, and no slot may
# have moved to a nonzero column more than log2(#slots) times: union by
# size at least doubles the slot set a slot is in at each such move.

PRIMES = (2, 3, 7919)
PATHS = ("survive", "cancel", "merge", "remerge", "cancel_merged")


def _programs(p):
    pick = st.integers(0, 63)
    coeff = st.integers(1, p - 1)
    entries = st.lists(st.tuples(pick, coeff), max_size=4)
    op = st.one_of(
        st.tuples(st.just("create")),
        st.tuples(st.just("zero")),
        st.tuples(st.just("random"), entries),
        st.tuples(st.just("multiple"), pick, coeff, entries),
        st.tuples(st.just("difference"), pick, pick, coeff),
    )
    step = st.tuples(op, st.lists(pick, max_size=6))
    creates = st.integers(1, 8).map(lambda n: [(("create",), [])] * n)
    return st.tuples(creates, st.lists(step, min_size=1, max_size=30)).map(
        lambda parts: parts[0] + parts[1]
    )


def _vector(x: dict[int, int]):
    return vec(*sorted((row, c) for row, c in x.items() if c))


def _dense(v) -> dict[int, int]:
    return dict(zip(*v))


def _dense_kill(x: dict[int, int], a_bd, p) -> dict[int, int]:
    # x - (x_j / c_j) * a_bd, with Fermat's inverse
    row_j, c_j = a_bd[0][-1], a_bd[1][-1]
    lam = -x.get(row_j, 0) * pow(c_j, p - 2, p)
    out = dict(x)
    for row, a in zip(*a_bd):
        out[row] = (out.get(row, 0) + lam * a) % p
    return _dense(_vector(out))


def _paths(slots_per_vector: Counter, a_bd, p) -> set[str]:
    """How the kill updates each distinct column meeting row j; a column
    that already stands for two or more slots (an earlier merge) adds the
    paths "remerge" when it collides again and "cancel_merged" when it
    cancels."""
    row_j = a_bd[0][-1]
    after = {v: _vector(_dense_kill(_dense(v), a_bd, p)) for v in slots_per_vector}
    paths = set()
    for v, w in after.items():
        if _dense(v).get(row_j):
            if not w:
                path = "cancel"
            elif list(after.values()).count(w) > 1:
                path = "merge"
            else:
                path = "survive"
            paths.add(path)
            if slots_per_vector[v] > 1 and path != "survive":
                paths.add({"cancel": "cancel_merged", "merge": "remerge"}[path])
    return paths


def _model_signed_sum(vectors, p) -> tuple[tuple, int]:
    """The signed sum by negating each odd term, then merge-adding the terms
    one by one, with the field operations that sequence makes."""
    acc: dict[int, int] = {}
    ops = 0
    for j, x in enumerate(vectors):
        if j % 2:
            ops += len(x)
            x = {row: -c % p for row, c in x.items()}
        ops += len(acc.keys() & x.keys())
        for row, c in x.items():
            acc[row] = (acc.get(row, 0) + c) % p
        acc = _dense(_vector(acc))
    return _vector(acc), ops


def _slot_state(m):
    """The slot map and every column's slot set, as copies."""
    columns = (m._zero, *m._columns.values())
    return dict(m._slots), [(column, set(column.slots)) for column in columns]


def _run_program(p, program) -> tuple[set[str], Counter]:
    """Replay ``program`` on an audited matrix and on the dense model,
    checking after every step what the comment above lists, and every slot
    at the end; returns the update paths hit and how often each slot moved
    to a nonzero column."""
    field = OpCountingField(p)
    m = CompressedAnnotationMatrix(field, debug=True)
    model: dict[int, dict[int, int]] = {}
    live: list[int] = []
    rows = count()
    paths: set[str] = set()
    moves: Counter = Counter()
    for op, terms in program:
        pointed = dict(m._slots)
        paths |= _apply(m, model, live, rows, op, p)
        for slot, column in m._slots.items():
            assert column is m._zero or m._columns.get(column.key) is column, slot
            if column is not pointed.get(slot, column) and column is not m._zero:
                moves[slot] += 1
        assert max(moves.values(), default=0) <= math.log2(len(m._slots))
        slots = [i % len(model) for i in terms]
        state = _slot_state(m)
        for slot in slots:
            assert m.find_annotation(slot) == _vector(model[slot]), slot
        expected, ops = _model_signed_sum([model[i] for i in slots], p)
        before = field.ops
        assert m.signed_sum(slots) == expected, slots
        assert field.ops - before == ops, slots
        assert _slot_state(m) == state
    for slot, x in model.items():
        assert m.find_annotation(slot) == _vector(x), slot
    return paths, moves


def _apply(m, model, live, rows, op, p) -> set[str]:
    """One operation of a program; returns the update paths a kill hit. A
    creation takes the next row of ``rows``, an increasing counter."""
    kind, *args = op
    nonzero = [x for x in model.values() if x]
    if kind == "random" and live:
        a = {live[i % len(live)]: c for i, c in args[0]}
    elif kind == "multiple" and nonzero:
        # k * u cancels u's column; extra entries let it survive
        i, k, extra = args
        a = {row: k * c for row, c in nonzero[i % len(nonzero)].items()}
        for i, c in extra:
            row = live[i % len(live)]
            a[row] = a.get(row, 0) + c
    elif kind == "difference" and nonzero:
        u, v = (nonzero[i % len(nonzero)] for i in args[:2])
        a = {row: args[2] * (u.get(row, 0) - v.get(row, 0)) for row in u | v}
    elif kind == "zero":
        m.assign_zero(len(model))
        model[len(model)] = {}
        return set()
    else:
        live.append(next(rows))
        m.create_cocycle(len(model), live[-1])
        model[len(model)] = {live[-1]: 1}
        return set()
    a_bd = _vector({row: c % p for row, c in a.items()})
    if not a_bd:
        return set()
    paths = _paths(Counter(_vector(x) for x in nonzero), a_bd, p)
    assert m.kill_cocycle(a_bd) == a_bd[0][-1]
    live.remove(a_bd[0][-1])
    for slot, x in model.items():
        model[slot] = _dense_kill(x, a_bd, p)
    return paths


@pytest.mark.parametrize("p", PRIMES)
def test_kill_matches_dense_model(p):
    @settings(max_examples=150, deadline=None)
    @given(_programs(p))
    def check(program):
        _run_program(p, program)

    check()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("path", PATHS)
def test_kill_programs_reach_every_update_path(p, path):
    # the drawn programs do exercise each branch of the column update;
    # find raises NoSuchExample if none of 500 draws reaches this one
    find(
        _programs(p),
        lambda program: path in _run_program(p, program)[0],
        settings=settings(max_examples=500, phases=[Phase.generate], database=None),
    )


def _folding_program(p):
    """Five creations, then four kills that each make the youngest live
    column equal to the next older one: slot 4's column meets slot 3's,
    and the merged column then meets 2's, 1's and 0's, so every kill after
    the first collides a column that already stands for two or more slots.
    The last step looks up slots 4 and 0."""
    folds = [(("random", [(i, p - 1), (i + 1, 1)]), []) for i in (3, 2, 1, 0)]
    folds[-1] = (folds[-1][0], [4, 0])
    return [(("create",), [])] * 5 + folds


@pytest.mark.parametrize("p", PRIMES)
def test_folding_program_reaches_a_four_link_chain(p):
    # four merges in a row: union by size keeps the growing column, so each
    # slot moves once; keeping the older column at every merge would move
    # slot 4 four times, more than log2(5)
    paths, moves = _run_program(p, _folding_program(p))
    assert moves == {4: 1, 2: 1, 1: 1, 0: 1}
    assert {"merge", "remerge"} <= paths


@pytest.mark.parametrize("p", PRIMES)
def test_signed_sum_follows_and_compresses_forwards(p):
    # after the folding program's four merges, with no lookup between them,
    # slots 0-4 point straight at one stored column; signed_sum reads the
    # slot map and, like find_annotation, changes no slot or slot set
    field = OpCountingField(p)
    m = CompressedAnnotationMatrix(field, debug=True)
    model = {}
    for slot in range(6):
        m.create_cocycle(slot, slot)
        model[slot] = {slot: 1}
    m.assign_zero(6)
    model[6] = {}
    for i in (3, 2, 1, 0):
        a_bd = vec((i, p - 1), (i + 1, 1))
        m.kill_cocycle(a_bd)
        model = {slot: _dense_kill(x, a_bd, p) for slot, x in model.items()}
    column = m._slots[0]
    assert column.slots == {0, 1, 2, 3, 4}
    assert all(m._slots[slot] is column for slot in range(5))
    state = _slot_state(m)
    # many terms, one term at an odd position, one at an even one, none
    for slots in ([4, 5, 2, 6, 3], [6, 4], [3, 6], [6, 6]):
        expected, ops = _model_signed_sum([model[i] for i in slots], p)
        before = field.ops
        assert m.signed_sum(slots) == expected, slots
        assert field.ops - before == ops, slots
    for slot, x in model.items():
        assert m.find_annotation(slot) == _vector(x), slot
    assert _slot_state(m) == state


@pytest.mark.parametrize("p", PRIMES)
def test_merged_pairs_move_a_slot_twice(p):
    # slots 1 and 3 merge into 0's and 2's columns, then the two merged
    # columns meet with two slots each: on the tie the rewritten pair moves,
    # so slot 3 moves twice, exactly log2(4). The picks index the live rows
    # (0 1 2 3, then 0 2 3, then 0 2)
    merge = [(("random", [(i, p - 1), (j, 1)]), []) for i, j in ((0, 1), (1, 2), (0, 1))]
    paths, moves = _run_program(p, [(("create",), [])] * 4 + merge)
    assert moves == {1: 1, 2: 1, 3: 2}
    assert {"merge", "remerge"} <= paths


# ----------------------------------------------------------------------
# fold against create + signed_sum + kill on a twin matrix
#
# A fold program replays a drawn program, setting one row aside at a drawn
# step, so that rows created later lie above it; then a new slot joins a
# drawn list of the program's slots at a drawn position. One matrix folds
# the new slot on the row set aside; its twin creates the slot there, sums
# the list and kills with the sum when the sum's top row is that row.

FOLD_OUTCOMES = (True, False)


def _fold_programs(p):
    pick = st.integers(0, 63)
    return st.tuples(_programs(p), pick, st.lists(pick, max_size=4), pick)


def _replay(p, program, reserve_at):
    """The program on an audited matrix and the dense model, with the row
    that a creation before step ``reserve_at`` (modulo the program's length)
    would take set aside, unused."""
    field = OpCountingField(p)
    m = CompressedAnnotationMatrix(field, debug=True)
    model: dict[int, dict[int, int]] = {}
    live: list[int] = []
    rows = count()
    reserved = None
    for i, (op, _) in enumerate(program):
        if i == reserve_at % len(program):
            reserved = next(rows)
        _apply(m, model, live, rows, op, p)
    return m, field, model, reserved


def _state(m, slots):
    return (
        [m.find_annotation(slot) for slot in slots],
        m.live_row_count,
        m.distinct_column_count,
        m.nonzero_count,
    )


def _run_fold(p, fold_program) -> bool:
    """Fold on one matrix, create + signed_sum + kill on its twin; both
    must agree with each other and with the dense model. Returns whether
    the fold applied."""
    program, reserve_at, picks, position = fold_program
    m, field, model, row = _replay(p, program, reserve_at)
    twin, twin_field, _, _ = _replay(p, program, reserve_at)
    new = len(model)
    faces = [i % new for i in picks]
    faces.insert(position % (len(faces) + 1), new)
    before, ops = _state(m, range(new)), field.ops
    folded = m.fold(new, row, faces)
    twin_ops = twin_field.ops
    twin.create_cocycle(new, row)
    a_bd = twin.signed_sum(faces)
    # the new slot's unit term keeps the sum nonzero
    assert a_bd and _dense(a_bd)[row] in (1, p - 1)
    assert folded == (a_bd[0][-1] == row)
    if folded:
        assert twin.kill_cocycle(a_bd) == row
        model[new] = _dense_kill({row: 1}, a_bd, p)
        assert field.ops - ops == twin_field.ops - twin_ops
        assert _state(m, range(new + 1)) == _state(twin, range(new + 1))
        assert m.find_annotation(new) == _vector(model[new])
    else:
        assert field.ops == ops
        with pytest.raises(UnassignedSlot):
            m.find_annotation(new)
        assert _state(m, range(new)) == before
    for slot in range(new):
        assert m.find_annotation(slot) == _vector(model[slot]), slot
    m.check_invariants()
    twin.check_invariants()
    return folded


@pytest.mark.parametrize("p", PRIMES)
def test_fold_matches_create_sum_kill(p):
    @settings(max_examples=150, deadline=None)
    @given(_fold_programs(p))
    def check(fold_program):
        _run_fold(p, fold_program)

    check()


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("outcome", FOLD_OUTCOMES)
def test_fold_programs_reach_both_outcomes(p, outcome):
    # the drawn programs both fold and decline; find raises NoSuchExample
    # if none of 500 draws gives this outcome
    find(
        _fold_programs(p),
        lambda fold_program: _run_fold(p, fold_program) == outcome,
        settings=settings(max_examples=500, phases=[Phase.generate], database=None),
    )


def test_fold_checks_its_slot_row_and_other_slots():
    field = OpCountingField(11)
    m = CompressedAnnotationMatrix(field, debug=True)
    m.create_cocycle("a", 0)
    row = 1
    with pytest.raises(SlotAlreadyAssigned):
        m.fold("a", row, ["a"])
    with pytest.raises(InvariantViolation):
        m.fold("b", 0, ["b", "a"])  # row 0 is live
    with pytest.raises(UnassignedSlot):
        m.fold("b", row, ["a", "b", "ghost"])
    assert field.ops == 0
    with pytest.raises(UnassignedSlot):
        m.find_annotation("b")
    # over Z_11: b at the odd position 1 of a - b + z, with a = (0, 1) and z
    # zero, gives s = (0, 1) and c = -1, so b's column is s = a's column
    m.assign_zero("z")
    assert m.fold("b", row, ["a", "b", "z"])
    assert m.find_annotation("b") == vec((0, 1))
    assert m._slots["b"] is m._slots["a"]
    assert field.ops == 4
    # d at the even position 0 of d - z + a: s = (0, 1) and c = 1, so d
    # gets -s = (0, 10), for 3 ops and |s| + 1 = 2 multiplications by
    # -1/c = 10 != 1
    assert m.fold("d", 2, ["d", "z", "a"])
    assert m.find_annotation("d") == vec((0, 10))
    assert field.ops == 4 + 3 + 2
    assert (m.live_row_count, m.distinct_column_count, m.nonzero_count) == (1, 2, 2)
