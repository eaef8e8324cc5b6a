"""Cocycle-tracking persistence computation.

Simplices enter in filtration order. For each one the annotation matrix
one dimension down returns the signed sum of its boundary faces'
annotations (signs collapse over Z_2 but the code path is field-generic);
the engine only tests whether the sum vanishes and hands it back to the
matrix, which answers a sum whose faces all hold its zero column with no
lookup. A vanishing sum starts a fresh cocycle class in the simplex's
dimension, a nonvanishing sum destroys the youngest class contributing to
it one dimension below and pairs that class's creator with the new
simplex. Live classes at the end become essential pairs, listed per
dimension in key order, which is the diagram's order for them.

Annotations exist only to answer later boundary sums, and no simplex of
the complex's top dimension is a face of anything, so that dimension gets
no matrix: a top creator becomes an essential class with no row, column
or slot, and a top killer only destroys a class one dimension down. This
is the top-dimensional case of clearing (Bauer, Kerber & Reininghaus,
"Clear and Compress", arXiv 1303.0477). The run statistics still count
each live top class as one row, column and nonzero, at the moment its
creation would have stored them.

Each arriving simplex takes the next number of one counter as its row, and
a creator's class lives on that row whether it is created at once,
deferred and created later, or folded. Row order is thus arrival order,
the seniority by which a boundary sum's maximal row names its youngest
class.

Two insertion-order strategies are available: deferring each creator
until one of its cofaces arrives, and reordering equal-value blocks; both
leave the diagram unchanged. An engine defers or not as
``EngineOptions.lazy`` says when it is built; ``insert`` is its one
insertion, and it rejects a bad simplex before it changes anything.

A deferred creator is most often killed by the very coface that forces
it. The coface's youngest marked face sigma, on row r, is
therefore folded into it when the signed sum s of the coface's other faces
is zero or has every row below r: forcing sigma would create a class on r
that the coface kills at once, touching only sigma's unit column, which
the kill leaves as -c * s for sigma's sign c in the boundary. The matrix
assigns sigma that column without creating row r, and (sigma, coface) is
paired directly. This is the annotation-matrix analogue of Ripser's
apparent pairs (Bauer, arXiv 1908.02518). The field is charged what the
unfolded create, sum and kill would have charged, and the run statistics
count sigma's class at the moment its creation would have stored it, so
``G_m``, ``S_m``, nonzeros and field operations are those of the unfolded
algorithm.

Under ``EngineOptions.record_stats`` the engine samples its matrices into
its own ``RunStats`` (``_sample``): after each insertion that changes them,
after ``finish`` flushes its deferred creators, and at the birth of a class
that may be folded. ``stats()`` returns a copy of the peaks with the field's
operation count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from .annotations import CompressedAnnotationMatrix
from .diagram import PersistenceDiagram, PersistencePair
from .errors import MissingFace, SlotAlreadyAssigned
from .field import OpCountingField, PrimeField
from .reorder import reordered_filtration
from .simplex_tree import SimplexTree


@dataclass
class EngineOptions:
    """How a run inserts its simplices and what it records.

    ``reorder`` is read only by ``compute_persistence``, which picks the
    insertion order: a caller that drives ``PersistenceEngine`` by hand
    inserts in its own order, and gets reordering only by inserting
    ``reordered_filtration(complex)``.
    """

    lazy: bool = True
    reorder: bool = True
    record_stats: bool = False
    emit_zero_length: bool = False
    debug: bool = False


@dataclass
class RunStats:
    """Counters from one engine run.

    ``field_ops`` counts the Z_p operations (additions, negations,
    products, divisions) that the inline arithmetic charged to the
    field. The remaining values are maxima over samples taken after
    each simplex insertion: ``matrix_nonzeros_peak`` is the total number
    of stored nonzero entries, ``g_max_total`` the total number of live
    cocycle rows over all dimensions, and ``s_max_total`` the total
    number of distinct nonzero columns, with per-dimension peaks
    alongside.
    """

    field_ops: int = 0
    matrix_nonzeros_peak: int = 0
    g_max_total: int = 0
    s_max_total: int = 0
    g_max_by_dim: dict[int, int] = field(default_factory=dict)
    s_max_by_dim: dict[int, int] = field(default_factory=dict)


class PersistenceEngine:
    """Drives one filtration over one coefficient field.

    Strictly sequential; independent runs may share the (frozen) complex.
    Simplices are addressed by their filtration keys, which also serve as
    the annotation matrices' slots.

    Under ``options.lazy`` a simplex with a zero boundary sum is only
    marked; it goes in as a creator when a coface needs it or at
    ``finish``, on the row it got on arrival. Its class thus keeps the
    seniority of its arrival however late its column materializes;
    otherwise two deferred creators whose first cofaces arrive in opposite
    order would swap ages, and the destruction rule (remove the maximal
    row) would pair them differently than the standard order does.
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
        self._lazy = self.options.lazy
        if self.options.record_stats:
            # a fresh counter, so field_ops covers this run alone
            field = OpCountingField(field.p)
        self.field = field
        self._simplex_of = complex.simplex_of
        self._value_of = complex.value_of
        self._dim_of = complex.dim_of
        self._faces_of = complex.faces_of
        self._top = top = complex.dimension
        # one matrix per dimension below the top; the top stores nothing
        self._matrices = [
            CompressedAnnotationMatrix(field, debug=self.options.debug)
            for _ in range(top)
        ]
        # per dimension: live row -> creator key
        self._creators: list[dict[int, int]] = [{} for _ in range(top + 1)]
        # per key: True once the simplex is in, as a creator, a killer or a
        # folded face; a marked simplex has arrived but is not in yet
        self._inserted = [False] * len(complex)
        self._pairs: list[PersistencePair] = []
        self._arrivals = itertools.count()  # the next arriving simplex's row
        self._marked: dict[int, int] = {}  # deferred key -> its arrival row
        self._finished = False
        # peaks so far; field_ops is read from the field when asked for
        self._stats = RunStats() if self.options.record_stats else None

    # ------------------------------------------------------------------
    # insertion

    def insert(self, simplex) -> None:
        """Insert the next simplex, whose faces must all be inserted.

        Under ``options.lazy`` a creator is marked, and a marked simplex
        inserted again goes in as a creator on its arrival row, skipping
        its boundary sum. Any other simplex is checked before it changes
        anything: it is rejected if it is already in, or if one of its
        faces is neither in nor marked. Only then does it take the next row
        and force its marked faces in, oldest row first; one pass over the
        faces finds that most simplices have every face in. The face with
        the youngest row r is held back: if the signed sum of the other
        faces is zero or lies below r, that face is folded into the
        simplex, which then goes in as its killer (see ``_fold``), and only
        otherwise is it forced too. A zero boundary sum then marks the
        simplex under lazy and creates a class otherwise; a nonzero sum
        destroys a class one dimension down.
        """
        key = self.complex.key(simplex)
        if self._finished:
            raise RuntimeError("finish() was already called")
        marked = self._marked
        row = marked.pop(key, None)
        if row is not None:
            self._insert_creator(key, row)
            self._sample()
            return
        inserted = self._inserted
        if inserted[key]:
            raise SlotAlreadyAssigned(
                f"simplex {self._simplex_of[key]} was already inserted"
            )
        faces = self._faces_of[key]
        deferred = None
        for face in faces:
            if not inserted[face]:
                deferred = self._marked_faces(key, faces)
                break
        row = next(self._arrivals)
        if deferred:
            youngest = deferred.pop()
            for face in deferred:
                # through lazy_evaluation, so wrappers see every forced face
                self.lazy_evaluation(self._simplex_of[face])
            if self._fold(key, youngest, faces):
                return
            self.lazy_evaluation(self._simplex_of[youngest])
        dim = self._dim_of[key]
        a_bd = self._matrices[dim - 1].signed_sum(faces) if faces else ()
        if not a_bd:
            if self._lazy:
                marked[key] = row
                return
            self._insert_creator(key, row)
        else:
            killed = self._matrices[dim - 1].kill_cocycle(a_bd)
            self._insert_killer(key, dim, self._creators[dim - 1].pop(killed))
        self._sample()

    # the name through which forced faces re-enter: bench/sample.py wraps
    # it to count the forced creators of a run
    lazy_evaluation = insert

    def finish(self) -> PersistenceDiagram:
        """Flush deferred creators, close essential classes, emit the diagram.

        A deferred top-dimensional creator goes straight into the live
        classes, as nothing reads its annotation. Each dimension's
        essential pairs come out in key order, which within one dimension
        is (birth, creator) order, so they reach the diagram's sort
        already in place.
        """
        if self._finished:
            raise RuntimeError("finish() was already called")
        self._finished = True
        marked = self._marked
        if marked:
            dim_of, top = self._dim_of, self._top
            top_rows = self._creators[top]
            for key, row in marked.items():
                if dim_of[key] == top:
                    top_rows[row] = key
                else:
                    self._insert_creator(key, row)
            # the flush only creates, so every peak is reached at its end
            self._sample()
            marked.clear()
        # zero-length pairs were dropped as they were recorded; values are
        # finite, so no essential pair has zero length
        pairs = self._pairs
        value_of, simplex_of, inf = self._value_of, self._simplex_of, math.inf
        new = tuple.__new__  # skips NamedTuple's Python-level __new__
        for dim, rows in enumerate(self._creators):
            pairs += [
                new(PersistencePair, (dim, value_of[key], inf, simplex_of[key], None))
                for key in sorted(rows.values())
            ]
        return PersistenceDiagram(pairs)

    # ------------------------------------------------------------------
    # observations

    def is_marked(self, simplex) -> bool:
        return self.complex.key(simplex) in self._marked

    def live_cocycle_count(self, dim: int) -> int:
        return len(self._creators[dim]) if 0 <= dim <= self._top else 0

    def stats(self) -> RunStats:
        st = self._stats
        if st is None:
            return RunStats()
        # a copy, which later samples leave as it is
        return replace(
            st,
            field_ops=self.field.ops,
            g_max_by_dim=dict(st.g_max_by_dim),
            s_max_by_dim=dict(st.s_max_by_dim),
        )

    # ------------------------------------------------------------------
    # internals

    def _marked_faces(self, key: int, faces: tuple) -> list[int]:
        # the faces of key that are not in, oldest row first; the first, in
        # boundary order, that is not marked either was never inserted
        marked = self._marked
        deferred = [face for face in faces if not self._inserted[face]]
        for face in deferred:
            if face not in marked:
                raise MissingFace(
                    f"face {self._simplex_of[face]} of {self._simplex_of[key]} "
                    "was never inserted"
                )
        deferred.sort(key=marked.__getitem__)
        return deferred

    def _fold(self, key: int, face: int, faces: tuple) -> bool:
        """Create marked ``face`` and let ``key`` kill it, in one step.

        ``face`` holds the youngest row of ``key``'s marked faces,
        and the others are in. When no other face's annotation reaches a
        row above ``face``'s, forcing ``face`` would create a class that
        ``key`` kills at once; the matrix then gives ``face`` the column
        that kill would leave, and ``key`` goes in as its killer. Returns
        False, with no change, when it does not apply.
        """
        dim = self._dim_of[face]
        if self._stats is not None:
            # face's birth, counted as it would have been stored; if the
            # fold does not apply, forcing face takes this same sample
            self._sample(transient=dim)
        if not self._matrices[dim].fold(face, self._marked[face], faces):
            return False
        del self._marked[face]
        self._inserted[face] = True
        self._insert_killer(key, dim + 1, face)
        self._sample()
        return True

    def _insert_killer(self, key: int, dim: int, creator: int) -> None:
        # key has the zero annotation and closes the class of creator; a
        # zero-length pair is recorded only when it is emitted
        self._inserted[key] = True
        if dim < self._top:
            self._matrices[dim].assign_zero(key)
        birth, death = self._value_of[creator], self._value_of[key]
        if birth != death or self.options.emit_zero_length:
            self._pairs.append(
                PersistencePair(
                    dim - 1, birth, death, self._simplex_of[creator], self._simplex_of[key]
                )
            )

    def _insert_creator(self, key: int, row: int) -> None:
        self._inserted[key] = True
        dim = self._dim_of[key]
        # a top creator is never a face, so it needs no column
        if dim < self._top:
            self._matrices[dim].create_cocycle(key, row)
        self._creators[dim][row] = key

    def _sample(self, transient: int | None = None) -> None:
        # each live top class, and a folded class at its birth in dimension
        # transient, counts as one row, distinct column and nonzero
        stats = self._stats
        if stats is None:
            return
        top = self._top
        top_rows = len(self._creators[top])
        total_g = total_s = nnz = top_rows
        g_max, s_max = stats.g_max_by_dim, stats.s_max_by_dim
        for dim, matrix in enumerate(self._matrices):
            g = matrix.live_row_count
            s = matrix.distinct_column_count
            if dim == transient:
                g += 1
                s += 1
                nnz += 1
            total_g += g
            total_s += s
            nnz += matrix.nonzero_count
            if g > g_max.get(dim, -1):
                g_max[dim] = g
            if s > s_max.get(dim, -1):
                s_max[dim] = s
        if top_rows > g_max.get(top, -1):
            g_max[top] = s_max[top] = top_rows
        if total_g > stats.g_max_total:
            stats.g_max_total = total_g
        if total_s > stats.s_max_total:
            stats.s_max_total = total_s
        if nnz > stats.matrix_nonzeros_peak:
            stats.matrix_nonzeros_peak = nnz


def compute_persistence(
    complex: SimplexTree,
    field: PrimeField,
    options: EngineOptions | None = None,
) -> tuple[PersistenceDiagram, RunStats]:
    """Full run: order the filtration, insert everything, emit the diagram.

    With ``options.reorder`` the equal-value blocks are permuted first;
    with ``options.lazy`` the engine defers its creators. Stats counters
    are all zero unless ``options.record_stats`` is set.
    """
    opts = options or EngineOptions()
    engine = PersistenceEngine(complex, field, opts)
    if opts.reorder:
        sequence = reordered_filtration(complex)
    else:
        sequence = complex.simplex_of
    insert = engine.insert
    for simplex in sequence:
        insert(simplex)
    return engine.finish(), engine.stats()
