"""Cocycle-tracking persistence computation.

Simplices enter in filtration order. For each one the engine sums the
annotations of its boundary faces with alternating signs (signs collapse
over Z_2 but the code path is field-generic): a vanishing sum starts a
fresh cocycle class in the simplex's dimension, a nonvanishing sum
destroys the youngest class contributing to it one dimension below and
pairs that class's creator with the new simplex. Live classes at the end
become essential pairs.

Two insertion-order strategies are available: deferring each creator
until one of its cofaces arrives, and reordering equal-value blocks; both
leave the diagram unchanged.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .annotations import (
    ZERO,
    AnnotationVector,
    CompressedAnnotationMatrix,
    negate_annotation,
    sum_annotations,
)
from .diagram import PersistenceDiagram, PersistencePair
from .errors import MissingFace, SlotAlreadyAssigned, UnassignedSlot
from .field import OpCountingField, PrimeField
from .reorder import reordered_filtration
from .simplex_tree import SimplexTree
from .stats import RunStats, StatsCollector


@dataclass
class EngineOptions:
    lazy: bool = True
    reorder: bool = True
    record_stats: bool = False
    emit_zero_length: bool = False
    debug: bool = False


@dataclass(frozen=True)
class Created:
    """The inserted simplex started a new cocycle class in this row."""

    row: int


@dataclass(frozen=True)
class Killed:
    """The inserted simplex destroyed a class and produced a pair."""

    row: int
    pair: PersistencePair


InsertionOutcome = Created | Killed


class PersistenceEngine:
    """Drives one filtration over one coefficient field.

    Strictly sequential; independent runs may share the (frozen) complex.
    Simplices are addressed by their filtration keys, which also serve as
    the annotation matrices' slots.
    """

    def __init__(
        self,
        complex: SimplexTree,
        field: PrimeField,
        options: EngineOptions | None = None,
    ):
        if not complex.finalized:
            raise ValueError("the complex must be finalized first")
        self.complex = complex
        self.options = options or EngineOptions()
        if self.options.record_stats and not isinstance(field, OpCountingField):
            field = OpCountingField(field.p)
        self.field = field
        self._simplex_of = complex.simplex_of
        self._value_of = complex.value_of
        self._faces_of = complex.faces_of
        self._matrices: dict[int, CompressedAnnotationMatrix] = {}
        # per dimension: live row -> creator key
        self._creators: dict[int, dict[int, int]] = {}
        self._pairs: list[PersistencePair] = []
        self._marked: dict[int, int] = {}  # key -> reserved row
        self._finished = False
        self._collector = StatsCollector() if self.options.record_stats else None

    # ------------------------------------------------------------------
    # insertion

    def insert(self, simplex) -> InsertionOutcome:
        """Standard insertion; every face must already be inserted or marked."""
        return self._insert(self.complex.key(simplex), defer=False)

    def lazy_evaluation(self, simplex) -> None:
        """Deferred insertion: creators wait until a coface needs them.

        A marked simplex goes in directly as a creator, skipping its
        boundary sum. Otherwise a nonzero boundary sum destroys as usual
        while a zero sum only marks the simplex and defers it.

        Marking reserves the simplex's row index immediately, so a
        deferred class keeps the seniority of its original filtration
        position however late its column materializes. Without this, two
        deferred creators whose first cofaces arrive in opposite order
        would swap ages, and the destruction rule (remove the
        maximal-index row) would pair them differently than the standard
        insertion order does, changing the diagram.
        """
        self._insert(self.complex.key(simplex), defer=True)

    def finish(self) -> PersistenceDiagram:
        """Flush deferred creators, close essential classes, emit the diagram."""
        if self._finished:
            raise RuntimeError("finish() was already called")
        self._finished = True
        for key in list(self._marked):
            self._insert_creator(key, self._marked.pop(key))
        pairs = list(self._pairs)
        for dim in sorted(self._creators):
            rows = self._creators[dim]
            for row in sorted(rows):
                creator = rows[row]
                simplex, birth = self._simplex_of[creator], self._value_of[creator]
                pairs.append(PersistencePair(dim, birth, math.inf, simplex))
        if not self.options.emit_zero_length:
            pairs = [q for q in pairs if q.birth != q.death]
        return PersistenceDiagram(pairs)

    # ------------------------------------------------------------------
    # observations

    def is_marked(self, simplex) -> bool:
        return self.complex.key(simplex) in self._marked

    def live_cocycle_count(self, dim: int) -> int:
        matrix = self._matrices.get(dim)
        return matrix.live_row_count if matrix is not None else 0

    def stats(self) -> RunStats:
        ops = self.field.ops if isinstance(self.field, OpCountingField) else 0
        if self._collector is None:
            return RunStats(field_ops=ops)
        return self._collector.result(field_ops=ops)

    # ------------------------------------------------------------------
    # internals

    def _matrix(self, dim: int) -> CompressedAnnotationMatrix:
        matrix = self._matrices.get(dim)
        if matrix is None:
            matrix = CompressedAnnotationMatrix(self.field, debug=self.options.debug)
            self._matrices[dim] = matrix
        return matrix

    def _insert(self, key: int, defer: bool) -> InsertionOutcome | None:
        """The one insertion core behind insert() and lazy_evaluation().

        Marked boundary faces are forced in first, oldest reserved row
        first, so the two entry points can be mixed freely. A zero
        boundary sum then marks the simplex when ``defer`` is set and
        creates a class otherwise.
        """
        row = self._marked.pop(key, None)
        if row is not None:
            return Created(self._insert_creator(key, row))
        marked = self._marked
        deferred = [face for face in self._faces_of[key] if face in marked]
        deferred.sort(key=marked.__getitem__)
        for face in deferred:
            # through the public method, so that wrappers see every insertion
            self.lazy_evaluation(self._simplex_of[face])
        a_bd = self._boundary_annotation(key)
        dim = len(self._simplex_of[key]) - 1
        if self._matrix(dim).is_assigned(key):
            raise SlotAlreadyAssigned(
                f"simplex {self._simplex_of[key]} was already inserted"
            )
        if a_bd:
            return self._insert_killer(key, a_bd)
        if defer:
            marked[key] = self._matrix(dim).reserve_row()
            return None
        return Created(self._insert_creator(key))

    def _boundary_annotation(self, key: int) -> AnnotationVector:
        faces = self._faces_of[key]
        if not faces:
            return ZERO
        matrix = self._matrix(len(faces) - 2)
        field = self.field
        acc: AnnotationVector = ZERO
        for j, face in enumerate(faces):
            try:
                vec = matrix.find_annotation(face)
            except UnassignedSlot:
                raise MissingFace(
                    f"face {self._simplex_of[face]} of {self._simplex_of[key]} "
                    "was never inserted"
                ) from None
            if j % 2:
                vec = negate_annotation(vec, field)
            acc, _ = sum_annotations(acc, vec, field)
        return acc

    def _insert_creator(self, key: int, row: int | None = None) -> int:
        dim = len(self._simplex_of[key]) - 1
        row = self._matrix(dim).create_cocycle(key, row=row)
        self._creators.setdefault(dim, {})[row] = key
        self._sample()
        return row

    def _insert_killer(self, key: int, a_bd: AnnotationVector) -> Killed:
        dim = len(self._simplex_of[key]) - 1
        row = self._matrix(dim - 1).kill_cocycle(a_bd)
        self._matrix(dim).assign_zero(key)
        creator = self._creators[dim - 1].pop(row)
        pair = PersistencePair(
            dim - 1,
            self._value_of[creator],
            self._value_of[key],
            self._simplex_of[creator],
            self._simplex_of[key],
        )
        self._pairs.append(pair)
        self._sample()
        return Killed(row, pair)

    def _sample(self) -> None:
        if self._collector is not None:
            self._collector.sample(self._matrices)


def compute_persistence(
    complex: SimplexTree,
    field: PrimeField,
    options: EngineOptions | None = None,
) -> tuple[PersistenceDiagram, RunStats]:
    """Full run: order the filtration, insert everything, emit the diagram.

    With ``options.reorder`` the equal-value blocks are permuted first;
    with ``options.lazy`` insertions go through the deferred path. Stats
    counters are all zero unless ``options.record_stats`` is set.
    """
    opts = options or EngineOptions()
    engine = PersistenceEngine(complex, field, opts)
    if opts.reorder:
        sequence = reordered_filtration(complex)
    else:
        sequence = complex.filtration_order()
    step = engine.lazy_evaluation if opts.lazy else engine.insert
    for simplex in sequence:
        step(simplex)
    return engine.finish(), engine.stats()
