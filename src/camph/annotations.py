"""Sparse annotation vectors and the compressed annotation matrix.

An annotation vector assigns one Z_p coefficient to each live cocycle row.
The zero vector is ``()``; any other is ``(rows, coeffs)``, two parallel
tuples with the rows strictly ascending and every coefficient in 1..p-1,
so a merge walks two flat tuples and builds no pair per entry. Rows are the
caller's seniority: it creates each class on a row above every older
class's, so a vector's maximal row names its youngest class. This module is
the only one that reads or builds vectors: callers hand the matrix slots and
get back the signed boundary sum that ``kill_cocycle`` takes. One matrix per
simplex dimension stores each distinct nonzero column exactly once, with
each coefficient only in the column's key, and indexes each live row by
the columns with an entry there, so that destroying a cocycle touches only
the columns that actually meet its row (the paper's doubly linked row
lists, with the same O(1) insert and delete). Each slot points straight at
a column; killers share one zero column. A column that becomes equal to a
stored one forwards to it, and one that a kill cancels forwards to the
zero column, so the forwarding pointers form a union-find forest over
columns, walked with path compression.

A signed boundary sum over slots known to hold the zero column (assigned
it, or found there by a lookup) is () at once. Any other sum reads each
face's column straight from the slot map, and a sum with at most one
nonzero term is that term, negated at an odd position, with no
accumulation: on flag complexes most face annotations are zero.

Destroying a cocycle with boundary annotation a_bd costs one modular
inverse, then O(|column| + |a_bd|) per touched column: one merge pass over
the rows in the support of a_bd, which changes the row index only where an
entry appears or cancels.

A fold stands for a creation that a kill undoes at once. A slot created
on row r and then summed with other slots s (at sign c = +-1) gives
s + c at row r; when every row of s is below r, the kill removes row r
and touches only the new unit column, which becomes -c * s. The fold
assigns the slot that column directly, never creating row r: the
annotation-matrix analogue of Ripser's apparent pairs (Bauer, arXiv
1908.02518). It charges the field exactly what the create, the sum and
the kill would have, so field operation counts are those of the unfolded
algorithm, and the matrix's live rows, distinct columns and nonzeros
after it are too.
"""
from __future__ import annotations

import math
from bisect import bisect_left

from .errors import (
    InvariantViolation,
    SlotAlreadyAssigned,
    UnassignedSlot,
    ZeroAnnotation,
)
from .field import PrimeField

# () or (rows, coeffs)
AnnotationVector = tuple[tuple[int, ...], ...]

# a sentinel above every row, ending each column's walk in a kill
_PAST_LAST = (math.inf,)


class _Column:
    """One annotation vector shared by the slots that point at it.

    A column is stored (the only one with its nonzero key), the zero
    column (key ``()``, stored nowhere) or forwarded: ``forward`` is the
    column it became equal to, and it keeps no key and no row entries.
    Hashed by identity, so a row dict keyed by columns costs O(1) per
    operation whatever the vector's length.
    """

    __slots__ = ("key", "forward")

    def __init__(self, key: AnnotationVector):
        self.key = key
        self.forward: _Column | None = None


class CompressedAnnotationMatrix:
    """Annotation columns for the simplices of one dimension.

    Slots are caller-chosen hashable ids (one per simplex). Each slot is
    assigned exactly once, either to a fresh unit column (creation) or to
    the shared zero column (destruction); later updates may forward a
    column to an equal one, or to the zero column when it cancels. The
    caller gives each class a row above those of every older class and
    never reuses one, so the maximal row of a boundary annotation is
    always the youngest contributing cocycle.
    """

    def __init__(self, field: PrimeField, debug: bool = False):
        self._field = field
        self._debug = debug
        self._columns: dict[AnnotationVector, _Column] = {}
        # live row -> the columns with a nonzero there, in the insertion order
        # that decides which of two colliding columns survives a kill
        self._rows: dict[int, dict[_Column, None]] = {}
        self._slots: dict[object, _Column] = {}
        self._zero = _Column(())
        # slots assigned the zero column or found there by a lookup
        self._zero_slots: set = set()
        self._nnz = 0

    # ------------------------------------------------------------------
    # observations

    @property
    def live_row_count(self) -> int:
        """Rank of the cohomology group currently represented."""
        return len(self._rows)

    @property
    def distinct_column_count(self) -> int:
        return len(self._columns)

    @property
    def nonzero_count(self) -> int:
        return self._nnz

    # ------------------------------------------------------------------
    # operations

    def create_cocycle(self, slot, row: int) -> None:
        """Start a new cocycle class for ``slot`` on ``row``.

        ``row`` is the class's seniority and must not be live. All other
        columns keep an implicit zero in the new row, so the sparse store
        needs no padding.
        """
        self._check_free(slot)
        if row in self._rows:
            raise InvariantViolation(f"row {row} is live")
        self._rows[row] = {}
        self._assign(slot, ((row,), (1,)))

    def assign_zero(self, slot) -> None:
        """Give ``slot`` the zero annotation: the shared zero column."""
        self._check_free(slot)
        self._assign(slot, ())

    def find_annotation(self, slot) -> AnnotationVector:
        """Vector of the column the slot points at, after any forwards."""
        column = self._slots.get(slot)
        if column is None:
            raise UnassignedSlot(f"slot {slot!r} has no annotation")
        if column.forward is not None:
            column = self._find(slot)
        return column.key

    def signed_sum(self, slots) -> AnnotationVector:
        """Sum over j of (-1)^j times the annotation of ``slots[j]``.

        A sum over slots known to hold the zero column (assigned it, or
        found there by an earlier lookup) is () with no lookup. Otherwise
        each slot's column is read from the slot map directly, following
        and compressing its forwards as ``find_annotation`` does. When at
        most one term is nonzero, that term, negated at an odd position, is
        the sum. Otherwise one dict accumulates the sum with inline
        arithmetic, so no negated copy is built. Either way the field is
        charged what negating every odd term and merge-adding the terms in
        order would cost: one negation per entry of an odd term and one
        addition per row that a term shares with the running sum. Raises
        UnassignedSlot at the first slot without an annotation.
        """
        if self._zero_slots.issuperset(slots):
            return ()
        vec, ops = self._sum(slots)
        if ops:
            self._field.charge(ops)
        return vec

    def fold(self, slot, row, slots) -> bool:
        """Create and at once destroy the class of ``slot`` on ``row``, if
        the coface with boundary ``slots`` would kill it.

        ``slot`` is one of ``slots`` and has no annotation yet; s is the
        signed sum of the others, in their positions, and c the sign of
        ``slot``'s own position. Were ``slot`` created on ``row``, the
        boundary sum would be s + c at ``row``; when every row of s is below
        ``row`` (or s is zero) that sum's maximal row is ``row``, so
        ``kill_cocycle`` would touch only the new unit column and leave it
        -c * s. The fold assigns ``slot`` that column directly, never
        creating ``row``, and charges the field what ``create_cocycle``, the
        full ``signed_sum`` and that kill would have charged: the sum of the
        others, 1 for negating the unit term at an odd position, 3 for the
        kill's negation, division and shared-row addition, and |s| + 1
        multiplications when -1/c != 1. Returns True; otherwise (some row of
        s is above ``row``) returns False and changes and charges nothing.
        Raises UnassignedSlot, with no change, if another slot has no
        annotation.
        """
        self._check_free(slot)
        if row in self._rows:
            raise InvariantViolation(f"row {row} is live")
        vec, ops = self._sum(slots, slot)
        if vec and vec[0][-1] > row:
            return False
        p = self._field.p
        if slots.index(slot) % 2:
            # c = -1: the unit term was negated, and -1/c = 1 scales nothing
            ops += 4
        elif p == 2:
            ops += 3  # -1/c = 1 again, and -s = s
        else:
            ops += 4
            if vec:
                rows, coeffs = vec
                ops += len(rows)
                vec = (rows, tuple([p - c for c in coeffs]))
        self._field.charge(ops)
        self._assign(slot, vec)
        return True

    def kill_cocycle(self, boundary_annotation: AnnotationVector) -> int:
        """Remove the youngest cocycle meeting ``boundary_annotation``.

        Let (j, c) be the maximal-row entry of the argument. Every column
        holding f != 0 in row j receives ``-f/c`` times the argument, which
        zeroes row j everywhere at once; a column that cancels forwards to
        the zero column, and one that collides with a stored column
        forwards to it. Returns j. Each f is read from the column's key,
        its only copy; the row index changes only where an entry appears
        or cancels.

        The arithmetic is done inline; the field is charged the operations
        of the update: per touched column a negation and a division for
        -f/c, |a_bd| multiplications unless that factor is 1, and one
        addition per row shared with the argument.
        """
        a_bd = boundary_annotation
        if not a_bd:
            raise ZeroAnnotation("cannot destroy with the zero annotation")
        bd_rows, bd_coeffs = a_bd
        rows = self._rows
        try:
            bd = list(zip(bd_rows, bd_coeffs, [rows[row] for row in bd_rows]))
        except KeyError as exc:
            raise InvariantViolation(f"row {exc.args[0]} is not live") from None
        n_bd = len(bd)
        row_j = bd_rows[-1]
        p = self._field.p
        inv = pow(bd_coeffs[-1], -1, p)
        columns = self._columns
        # the row operation is simultaneous: every touched column leaves the
        # key index before any new key is looked up, so a new key collides
        # only with an untouched column or one already rewritten here
        touched = list(bd[-1][2])
        for column in touched:
            del columns[column.key]
        ops = 0
        for column in touched:
            key_rows, key_coeffs = column.key
            lam = (p - key_coeffs[bisect_left(key_rows, row_j)]) * inv % p
            ext = key_rows + _PAST_LAST
            out_r = []
            out_c = []
            add_r = out_r.append
            add_c = out_c.append
            shared = i = 0
            kr = ext[0]
            # merge the key with lam * a_bd; only rows of a_bd change, and
            # only an entry that appears or cancels changes its row's
            # membership
            for row, a, entries in bd:
                while kr < row:
                    add_r(kr)
                    add_c(key_coeffs[i])
                    i += 1
                    kr = ext[i]
                if kr == row:
                    shared += 1
                    x = (key_coeffs[i] + lam * a) % p
                    i += 1
                    kr = ext[i]
                    if x:
                        add_r(row)
                        add_c(x)
                    else:
                        del entries[column]
                else:
                    add_r(row)
                    add_c(lam * a % p)
                    entries[column] = None
            # the field operations of -f/c, of scaling a_bd by lam != 1 and of
            # one addition per shared row
            ops += 2 + shared + (n_bd if lam != 1 else 0)
            new_rows = tuple(out_r) + key_rows[i:]
            self._nnz += len(new_rows) - len(key_rows)
            new_key = (new_rows, tuple(out_c) + key_coeffs[i:]) if new_rows else ()
            existing = columns.setdefault(new_key, column) if new_key else self._zero
            if existing is not column:
                # cancelled or equal to a stored column: drop this copy
                for row in new_rows:
                    del rows[row][column]
                self._nnz -= len(new_rows)
                new_key, column.forward = (), existing
            column.key = new_key
        self._field.charge(ops)
        if rows[row_j]:
            raise InvariantViolation(f"row {row_j} survived its destruction")
        del rows[row_j]
        if self._debug:
            self.check_invariants()
        return row_j

    # ------------------------------------------------------------------
    # internals

    def _check_free(self, slot) -> None:
        if slot in self._slots:
            raise SlotAlreadyAssigned(f"slot {slot!r} is already assigned")

    def _assign(self, slot, vec: AnnotationVector) -> None:
        # point the free slot at vec's column: the zero column, the stored
        # column equal to vec, or a new stored column entered in vec's rows
        if not vec:
            column = self._zero
            self._zero_slots.add(slot)
        elif vec in self._columns:
            column = self._columns[vec]
        else:
            column = self._columns[vec] = _Column(vec)
            for r in vec[0]:
                self._rows[r][column] = None
            self._nnz += len(vec[0])
        self._slots[slot] = column
        if self._debug:
            self.check_invariants()

    def _sum(self, slots, held=None) -> tuple[AnnotationVector, int]:
        # signed_sum's vector and the field operations it makes, uncharged;
        # an unassigned slot equal to ``held`` is a zero term
        table = self._slots
        terms = []
        for j, slot in enumerate(slots):
            column = table.get(slot)
            if column is None:
                if slot == held:
                    continue
                raise UnassignedSlot(f"slot {slot!r} has no annotation")
            if column.forward is not None:
                column = self._find(slot)
            if column.key:
                terms.append((j, column.key))
        p = self._field.p
        if len(terms) < 2:
            if not terms:
                return (), 0
            j, vec = terms[0]
            if j % 2 == 0:
                return vec, 0
            rows, coeffs = vec
            return (rows, tuple([p - c for c in coeffs])), len(rows)
        acc: dict[int, int] = {}
        ops = 0
        for j, (rows, coeffs) in terms:
            odd = j % 2
            if odd:
                ops += len(rows)
            for row, c in zip(rows, coeffs):
                if odd:
                    c = p - c
                x = acc.pop(row, 0)
                if x:
                    ops += 1
                    c = (x + c) % p
                if c:
                    acc[row] = c
        if not acc:
            return (), ops
        rows = tuple(sorted(acc))
        return (rows, tuple(map(acc.__getitem__, rows))), ops

    def _find(self, slot) -> _Column:
        # the end of the slot's forwarding chain; every column on the chain,
        # and the slot itself, is then pointed straight at it
        column = root = self._slots[slot]
        while root.forward is not None:
            root = root.forward
        while column is not root:
            column.forward, column = root, column.forward
        self._slots[slot] = root
        if root is self._zero:
            self._zero_slots.add(slot)
        return root

    # ------------------------------------------------------------------
    # debug checking

    def check_invariants(self) -> None:
        """Exhaustive structural audit; raises InvariantViolation on failure."""
        p = self._field.p
        indexed = 0
        for row, entries in self._rows.items():
            if not entries:
                raise InvariantViolation(f"live row {row} is empty")
            for column in entries:
                stored_as = self._columns.get(column.key)
                if stored_as is not column or row not in column.key[0]:
                    raise InvariantViolation("row lists a column with no entry there")
            indexed += len(entries)
        stored = 0
        for key, column in self._columns.items():
            if column.key != key:
                raise InvariantViolation("column stored under a stale key")
            if not key or not key[0]:
                raise InvariantViolation("zero vector stored as a column")
            if len(key) != 2 or len(key[0]) != len(key[1]):
                raise InvariantViolation("column rows and coefficients differ in shape")
            rows, coeffs = key
            if list(rows) != sorted(set(rows)):
                raise InvariantViolation("column rows not strictly ascending")
            for row, coeff in zip(rows, coeffs):
                if not 0 < coeff < p:
                    raise InvariantViolation("non-canonical coefficient in column")
                if column not in self._rows.get(row, ()):
                    raise InvariantViolation("column entry missing from its row")
            stored += len(rows)
        if not (self._nnz == stored == indexed):
            raise InvariantViolation("nonzero counter out of sync")
        # every slot's chain ends at the zero column or a stored one, and
        # every stored column ends some chain; so a forwarded column is
        # neither stored nor, by the row check above, in any row
        ends = {}
        for slot, column in self._slots.items():
            while column.forward is not None:
                column = column.forward
            ends[slot] = column
        if {end for end in ends.values() if end.key} != set(self._columns.values()):
            raise InvariantViolation("stored columns and nonzero chain ends differ")
        if any(not end.key and end is not self._zero for end in ends.values()):
            raise InvariantViolation("a chain ends at a zero column of its own")
        if any(ends.get(slot) is not self._zero for slot in self._zero_slots):
            raise InvariantViolation("a listed zero slot does not resolve to zero")
