import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camph import (
    CompressedAnnotationMatrix,
    PrimeField,
    negate_annotation,
    scale_annotation,
    sum_annotations,
)
from camph.errors import (
    InvariantViolation,
    SlotAlreadyAssigned,
    UnassignedSlot,
    ZeroAnnotation,
)

F2 = PrimeField(2)
F11 = PrimeField(11)


# ----------------------------------------------------------------------
# vector operations


def test_sum_cancels_and_reports_max_row():
    vec, top = sum_annotations(((1, 3), (4, 2)), ((1, 8), (2, 5)), F11)
    assert vec == ((2, 5), (4, 2))  # 3+8 = 0 mod 11 cancels row 1
    assert top == (4, 2)


def test_sum_zero_identity():
    a = ((0, 1), (3, 7))
    assert sum_annotations(a, (), F11) == (a, (3, 7))
    assert sum_annotations((), a, F11) == (a, (3, 7))
    assert sum_annotations((), (), F11) == ((), None)


def test_sum_self_cancellation_over_z2():
    vec, top = sum_annotations(((0, 1),), ((0, 1),), F2)
    assert vec == ()
    assert top is None


def test_scale_examples():
    assert scale_annotation(((0, 3), (5, 6)), 2, F11) == ((0, 6), (5, 1))
    a = ((0, 3), (5, 6))
    assert scale_annotation(a, 1, F11) is a
    assert scale_annotation(a, 0, F11) == ()


def test_negate():
    assert negate_annotation(((0, 3), (2, 4)), F11) == ((0, 8), (2, 7))
    assert negate_annotation((), F11) == ()


def _vectors(p):
    entries = st.dictionaries(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=1, max_value=p - 1),
        max_size=8,
    )
    return entries.map(lambda d: tuple(sorted(d.items())))


@settings(max_examples=300)
@given(_vectors(11), _vectors(11))
def test_sum_commutes_and_is_canonical(a, b):
    left, top = sum_annotations(a, b, F11)
    right, _ = sum_annotations(b, a, F11)
    assert left == right
    rows = [r for r, _ in left]
    assert rows == sorted(set(rows))
    assert all(0 < c < 11 for _, c in left)
    assert top == (left[-1] if left else None)


@settings(max_examples=300)
@given(_vectors(11), _vectors(11), _vectors(11))
def test_sum_is_associative(a, b, c):
    ab, _ = sum_annotations(a, b, F11)
    bc, _ = sum_annotations(b, c, F11)
    assert sum_annotations(ab, c, F11)[0] == sum_annotations(a, bc, F11)[0]


@settings(max_examples=300)
@given(_vectors(11))
def test_negation_is_additive_inverse(a):
    vec, top = sum_annotations(a, negate_annotation(a, F11), F11)
    assert vec == ()
    assert top is None


# ----------------------------------------------------------------------
# compressed matrix


def test_create_cocycle_allocates_monotone_rows():
    m = CompressedAnnotationMatrix(F2, debug=True)
    assert m.create_cocycle("a") == 0
    assert m.find_annotation("a") == ((0, 1),)
    assert m.live_row_count == 1
    assert m.create_cocycle("b") == 1
    assert m.live_row_count == 2
    m.kill_cocycle(((0, 1),))
    assert m.create_cocycle("c") == 2  # index 0 is never reused
    assert m.next_row_index == 3


def test_create_rejects_assigned_slot():
    m = CompressedAnnotationMatrix(F2)
    m.create_cocycle("a")
    with pytest.raises(SlotAlreadyAssigned):
        m.create_cocycle("a")
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


def test_kill_zeroes_single_column():
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a")
    assert m.kill_cocycle(((0, 1),)) == 0
    assert m.live_row_count == 0
    assert m.distinct_column_count == 0
    assert m.find_annotation("a") == ()


def test_kill_rejects_zero_annotation():
    m = CompressedAnnotationMatrix(F2)
    m.create_cocycle("a")
    with pytest.raises(ZeroAnnotation):
        m.kill_cocycle(())


def test_kill_merges_colliding_columns_z2():
    # two unit columns; destroying the younger folds it onto the older
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a")
    m.create_cocycle("b")
    assert m.kill_cocycle(((0, 1), (1, 1))) == 1
    assert m.find_annotation("a") == ((0, 1),)
    assert m.find_annotation("b") == ((0, 1),)
    assert m.distinct_column_count == 1
    assert m.live_row_count == 1


def test_kill_updates_multi_entry_column_z2():
    # build the state {[(0,1)], [(1,1)], [(0,1),(1,1)]} through the ops,
    # then destroy row 1: the mixed column folds onto [(0,1)], the unit
    # column at row 1 becomes zero
    m = CompressedAnnotationMatrix(F2, debug=True)
    m.create_cocycle("a")
    m.create_cocycle("b")
    m.create_cocycle("c")
    m.kill_cocycle(((0, 1), (1, 1), (2, 1)))  # column of "c" -> [(0,1),(1,1)]
    assert m.find_annotation("c") == ((0, 1), (1, 1))
    assert m.distinct_column_count == 3
    assert m.kill_cocycle(((1, 1),)) == 1
    assert m.find_annotation("a") == ((0, 1),)
    assert m.find_annotation("b") == ()
    assert m.find_annotation("c") == ((0, 1),)
    assert m.distinct_column_count == 1
    assert m.live_row_count == 1


def test_kill_arithmetic_z11():
    # the column update is A + (-f/c_j) * a_bd; for A = [(1,1)],
    # a_bd = [(0,3),(1,4)]: lambda = -1/4 = 8, so A becomes
    # [(0, 3*8 mod 11)] = [(0,2)]  (brute-force mod-11 arithmetic)
    m = CompressedAnnotationMatrix(F11, debug=True)
    m.create_cocycle("a")
    m.create_cocycle("b")
    assert m.kill_cocycle(((0, 3), (1, 4))) == 1
    assert m.find_annotation("b") == ((0, 2),)
    assert m.find_annotation("a") == ((0, 1),)
    assert m.live_row_count == 1


def test_kill_scaling_z11_matches_scalar_oracle():
    # single-column variant of the update A <- A + (-f/c_j)*a_bd with
    # A = [(2,5)], a_bd = [(0,3),(2,4)] decomposed into its pieces;
    # every expected value recomputed by direct modular arithmetic:
    # -5/4 = 6 * inv(4) = 6*3 = 18 = 7; 3*7 = 21 = 10; 5 + 4*7 = 33 = 0
    lam = F11.div(F11.neg(5), 4)
    assert lam == 7
    scaled = scale_annotation(((0, 3), (2, 4)), lam, F11)
    assert scaled == ((0, 10), (2, 6))
    updated, top = sum_annotations(((2, 5),), scaled, F11)
    assert updated == ((0, 10),)
    assert top == (0, 10)


def test_row_rings_empty_after_kill():
    # after destroying row j no live column retains an entry there
    m = CompressedAnnotationMatrix(F11, debug=True)
    for slot in range(4):
        m.create_cocycle(slot)
    m.kill_cocycle(((0, 2), (1, 5), (3, 7)))
    for slot in range(4):
        assert all(row != 3 for row, _ in m.find_annotation(slot))
    assert m.live_row_count == 3
    m.check_invariants()


def _drop_row_entry(m):
    entries = m._rows[0]
    del entries[next(iter(entries))]


def _change_coefficient(m):
    entries = m._rows[0]
    column = next(iter(entries))
    entries[column] = F11.add(entries[column], 1)


def _bump_nonzero_count(m):
    m._nnz += 1


@pytest.mark.parametrize(
    "corrupt", [_drop_row_entry, _change_coefficient, _bump_nonzero_count]
)
def test_audit_catches_corruption(corrupt):
    # row 0 holds two columns, ((0, 1),) and ((0, 2),); row 2 holds one
    m = CompressedAnnotationMatrix(F11, debug=True)
    for slot in "abc":
        m.create_cocycle(slot)
    m.kill_cocycle(((0, 3), (1, 4)))
    assert len(m._rows[0]) == 2
    m.check_invariants()
    corrupt(m)
    with pytest.raises(InvariantViolation):
        m.check_invariants()
