"""Sparse annotation vectors and the compressed annotation matrix.

An annotation vector assigns one Z_p coefficient to each live cocycle row;
vectors are sorted tuples of ``(row, coefficient)`` pairs with every
coefficient nonzero, the empty tuple being the zero vector. This module is
the only one that reads or builds them: callers hand the matrix slots and
get back the signed boundary sum that ``kill_cocycle`` takes. One matrix per
simplex dimension stores each distinct nonzero column exactly once, shares
columns between simplices through a union-find forest, and indexes each
live row by a dict from column to its coefficient there, so that destroying
a cocycle touches only the columns that actually meet its row (the paper's
doubly linked row lists, with the same O(1) insert and delete). A class
whose root owns no column has the zero vector.

Destroying a cocycle with boundary annotation a_bd costs one modular
inverse, then O(|column| + |a_bd|) per touched column: one merge pass
that writes row-dict entries only for the rows in the support of a_bd,
since every other row of the column keeps its coefficient.
"""
from __future__ import annotations

from .errors import (
    InvariantViolation,
    SlotAlreadyAssigned,
    UnassignedSlot,
    ZeroAnnotation,
)
from .field import PrimeField

AnnotationVector = tuple[tuple[int, int], ...]

ZERO: AnnotationVector = ()


class _Column:
    """One distinct nonzero annotation vector, owned by one class root.

    Hashed by identity, so a row dict keyed by columns costs O(1) per
    operation whatever the vector's length.
    """

    __slots__ = ("key", "owner")

    def __init__(self, key: AnnotationVector, owner: int):
        self.key = key
        self.owner = owner


class CompressedAnnotationMatrix:
    """Annotation columns for the simplices of one dimension.

    Slots are caller-chosen hashable ids (one per simplex). Each slot is
    assigned exactly once, either to a fresh unit column (creation) or to
    a class of its own without a column (destruction, the zero vector);
    later updates may merge classes whose columns become equal. Row
    indices grow monotonically and are never reused, so the maximal row
    of a boundary annotation is always the youngest contributing cocycle.
    """

    def __init__(self, field: PrimeField, debug: bool = False):
        self._field = field
        self._debug = debug
        self._columns: dict[AnnotationVector, _Column] = {}
        # live row -> {column: its nonzero coefficient in that row}
        self._rows: dict[int, dict[_Column, int]] = {}
        self._parent: dict[int, int] = {}
        self._rank: dict[int, int] = {}
        self._root_column: dict[int, _Column] = {}  # nonzero class roots only
        self._next_row = 0
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

    def is_assigned(self, slot) -> bool:
        return slot in self._parent

    # ------------------------------------------------------------------
    # operations

    def reserve_row(self) -> int:
        """Claim the next row index without materializing a column.

        Lets a caller that defers insertions pin each cocycle's seniority
        at its original filtration position: row order, which drives the
        destruction rule, then reflects filtration age even when columns
        materialize late.
        """
        row = self._next_row
        self._next_row += 1
        return row

    def create_cocycle(self, slot, row: int | None = None) -> int:
        """Start a new cocycle class for ``slot``; returns its row.

        Allocates a fresh row unless a previously reserved one is given.
        All other columns keep an implicit zero in the new row, so the
        sparse store needs no padding.
        """
        self._make_set(slot)
        if row is None:
            row = self.reserve_row()
        elif row >= self._next_row or row in self._rows:
            raise InvariantViolation(f"row {row} was not reserved or is live")
        self._rows[row] = {}
        column = _Column(((row, 1),), slot)
        self._store(column)
        self._root_column[slot] = column
        if self._debug:
            self.check_invariants()
        return row

    def assign_zero(self, slot) -> None:
        """Give ``slot`` the zero annotation: a class without a column."""
        self._make_set(slot)
        if self._debug:
            self.check_invariants()

    def find_annotation(self, slot) -> AnnotationVector:
        """Vector of the slot's class root (the zero vector for killers)."""
        if slot not in self._parent:
            raise UnassignedSlot(f"slot {slot!r} has no annotation")
        column = self._root_column.get(self._find(slot))
        return column.key if column is not None else ZERO

    def signed_sum(self, slots) -> AnnotationVector:
        """Sum over j of (-1)^j times the annotation of ``slots[j]``.

        One dict accumulates the sum with inline arithmetic, so no negated
        copy is built. The field is charged what negating every odd term
        and merge-adding the terms in order would call: one negation per
        entry of an odd term and one addition per row that a term shares
        with the running sum. Raises UnassignedSlot at the first slot
        without an annotation.
        """
        p = self._field.p
        find = self.find_annotation
        acc: dict[int, int] = {}
        ops = 0
        for j, slot in enumerate(slots):
            vec = find(slot)
            odd = j % 2
            if odd:
                ops += len(vec)
            for row, c in vec:
                if odd:
                    c = p - c
                x = acc.pop(row, 0)
                if x:
                    ops += 1
                    c = (x + c) % p
                if c:
                    acc[row] = c
        self._field.charge(ops)
        return tuple(sorted(acc.items()))

    def kill_cocycle(self, boundary_annotation: AnnotationVector) -> int:
        """Remove the youngest cocycle meeting ``boundary_annotation``.

        Let (j, c) be the maximal-row entry of the argument. Every column
        holding f != 0 in row j receives ``-f/c`` times the argument, which
        zeroes row j everywhere at once; updated columns are
        re-canonicalized, merging classes whose vectors collide. Returns j.

        The arithmetic is done inline; the field is charged the calls the
        same update makes through it: per touched column a negation and a
        division for -f/c, |a_bd| multiplications unless that factor is 1,
        and one addition per row shared with the argument.
        """
        a_bd = boundary_annotation
        if not a_bd:
            raise ZeroAnnotation("cannot destroy with the zero annotation")
        rows = self._rows
        for row, _ in a_bd:
            if row not in rows:
                raise InvariantViolation(f"row {row} is not live")
        row_j, c_j = a_bd[-1]
        p = self._field.p
        inv = pow(c_j, -1, p)
        columns = self._columns
        root_column = self._root_column
        # the row operation is simultaneous: every touched column leaves the
        # key index before any new key is looked up, so a new key collides
        # only with an untouched column or one already rewritten here
        touched = list(rows[row_j].items())
        for column, _ in touched:
            del columns[column.key]
        bd = [(row, a, rows[row]) for row, a in a_bd]
        n_bd = len(bd)
        # a sentinel entry above every live row ends each column's walk
        end = ((self._next_row, 0),)
        ops = 0
        for column, f in touched:
            lam = (p - f) * inv % p
            key = column.key
            ext = key + end
            out = []
            append = out.append
            shared = i = 0
            kr, kc = ext[0]
            # merge key with lam * a_bd; only rows of a_bd change, so only
            # their row dicts are written
            for row, a, entries in bd:
                while kr < row:
                    append((kr, kc))
                    i += 1
                    kr, kc = ext[i]
                if kr == row:
                    shared += 1
                    x = (kc + lam * a) % p
                    i += 1
                    kr, kc = ext[i]
                    if x:
                        append((row, x))
                        entries[column] = x
                    else:
                        del entries[column]
                else:
                    x = lam * a % p
                    append((row, x))
                    entries[column] = x
            # the field calls of -f/c, of scaling a_bd by lam != 1 and of
            # one addition per shared row
            ops += 2 + shared + (n_bd if lam != 1 else 0)
            new_key = tuple(out) + key[i:]
            self._nnz += len(new_key) - len(key)
            root = self._find(column.owner)
            if not new_key:
                del root_column[root]
                continue
            existing = columns.setdefault(new_key, column)
            if existing is column:
                column.key = new_key
                continue
            for row, _ in new_key:
                del rows[row][column]
            self._nnz -= len(new_key)
            other = self._find(existing.owner)
            del root_column[root]
            del root_column[other]
            root_column[self._union(root, other)] = existing
        self._field.charge(ops)
        if rows[row_j]:
            raise InvariantViolation(f"row {row_j} survived its destruction")
        del rows[row_j]
        if self._debug:
            self.check_invariants()
        return row_j

    # ------------------------------------------------------------------
    # internals

    def _store(self, column: _Column) -> None:
        rows = self._rows
        for row, coeff in column.key:
            rows[row][column] = coeff
        self._columns[column.key] = column
        self._nnz += len(column.key)

    def _make_set(self, slot) -> None:
        if slot in self._parent:
            raise SlotAlreadyAssigned(f"slot {slot!r} is already assigned")
        self._parent[slot] = slot
        self._rank[slot] = 0

    def _find(self, x):
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def _union(self, ra, rb):
        # both arguments must be roots; returns the surviving root
        if ra == rb:
            return ra
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1
        return ra

    # ------------------------------------------------------------------
    # debug checking

    def check_invariants(self) -> None:
        """Exhaustive structural audit; raises InvariantViolation on failure."""
        p = self._field.p
        indexed = 0
        for row, entries in self._rows.items():
            if row >= self._next_row:
                raise InvariantViolation(f"live row {row} above the allocator")
            if not entries:
                raise InvariantViolation(f"live row {row} is empty")
            for column, coeff in entries.items():
                if not 0 < coeff < p:
                    raise InvariantViolation("non-canonical coefficient in row")
                stored_as = self._columns.get(column.key)
                if stored_as is not column or dict(column.key).get(row) != coeff:
                    raise InvariantViolation("row entry disagrees with its column")
            indexed += len(entries)
        stored = 0
        for key, column in self._columns.items():
            if column.key != key:
                raise InvariantViolation("column stored under a stale key")
            if not key:
                raise InvariantViolation("zero vector stored as a column")
            rows = [row for row, _ in key]
            if rows != sorted(set(rows)):
                raise InvariantViolation("column rows not strictly ascending")
            for row, coeff in key:
                if self._rows.get(row, {}).get(column) != coeff:
                    raise InvariantViolation("column entry missing from its row")
            stored += len(key)
        if not (self._nnz == stored == indexed):
            raise InvariantViolation("nonzero counter out of sync")
        # class forest <-> distinct columns
        for root in self._root_column:
            if self._parent.get(root) != root:
                raise InvariantViolation("column payload on a non-root")
        owned = set(self._root_column.values())
        same = owned == set(self._columns.values())
        if not same or len(self._root_column) != len(self._columns):
            raise InvariantViolation("roots and distinct columns not in bijection")
        for root, column in self._root_column.items():
            if self._find(column.owner) != root:
                raise InvariantViolation("column owner left its class")
