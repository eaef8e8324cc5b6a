"""Filtered simplicial complexes keyed by sorted vertex tuples.

While building, the complex is a dict from each simplex's ascending
vertex tuple to its filtration value. It is filled in one of two ways:
insert_simplex() checks and stores one simplex at a time, for callers
that build a complex by hand; read_filtration() and build_rips() check
their input themselves and hand over the whole dict at once through
SimplexTree._from_values(), with no call per simplex.

Either way, finalize() is the one place that freezes the complex. It
puts the simplices in filtration order once and numbers them: a
simplex's key is its filtration position, and per-key views give each
key's vertex tuple, value, dimension and boundary face keys, so the
engine and the reordering never look a simplex up again. Closure and
monotonicity are checked there, by the face-key lookups themselves: in a
valid filtration every face is numbered before its cofaces.
"""
from __future__ import annotations

import math
from operator import lt
from typing import Iterable

from .errors import ClosureViolation, MonotonicityViolation, UnknownSimplex

Simplex = tuple[int, ...]


def _checked(vertices: Iterable[int], value: float) -> tuple[Simplex, float]:
    """The ascending vertex tuple and float value of one simplex; raises
    ValueError naming the first fault, as insert_simplex reports it."""
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("a simplex needs at least one vertex")
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be non-negative ints, got {v!r}")
    if len(set(verts)) != len(verts):
        raise ValueError(f"duplicate vertices in {verts}")
    # + 0.0 turns -0.0 into 0.0: the two compare equal, so keeping both
    # signs would let the insertion order decide which one is printed
    value = float(value) + 0.0
    if not math.isfinite(value):
        raise ValueError(f"value {value} of {verts} is not finite")
    return verts, value


class SimplexTree:
    """A filtered complex: mutable while building, frozen by finalize().

    finalize() also fills four read-only views indexed by key:
    ``simplex_of`` (the vertex tuple), ``value_of`` (the filtration value),
    ``dim_of`` (the dimension) and ``faces_of`` (the boundary face keys,
    face j omitting vertex j and carrying the sign (-1)**j; empty for
    vertices).
    """

    def __init__(self):
        self._values: dict[Simplex, float] = {}
        self._keys: dict[Simplex, int] = {}
        self._finalized = False
        self._dim = -1
        self.simplex_of: tuple[Simplex, ...] = ()
        self.value_of: tuple[float, ...] = ()
        self.dim_of: tuple[int, ...] = ()
        self.faces_of: tuple[tuple[int, ...], ...] = ()

    # ------------------------------------------------------------------
    # construction

    def insert_simplex(self, vertices: Iterable[int], value: float) -> None:
        """Store one simplex; re-insertion keeps the smaller value.

        Faces are not created implicitly: closure is validated by
        finalize(), not repaired here. The value must be finite; -0.0 is
        stored as 0.0.
        """
        if self._finalized:
            raise RuntimeError("complex is finalized")
        verts, value = _checked(vertices, value)
        old = self._values.get(verts)
        if old is None or value < old:
            self._values[verts] = value
        self._dim = max(self._dim, len(verts) - 1)

    @classmethod
    def _from_values(cls, values: dict[Simplex, float]) -> SimplexTree:
        """A finalized tree over ``values``, built in one pass.

        The caller has already checked each entry as insert_simplex
        would: keys are ascending tuples of distinct non-negative int
        vertex ids, values are finite floats. Closure and monotonicity
        are left to finalize().
        """
        tree = cls()
        tree._values = values
        tree._dim = max(map(len, values), default=0) - 1
        tree.finalize()
        return tree

    def finalize(self) -> None:
        """Validate closure under faces and value monotonicity, then freeze.

        Simplices are numbered in filtration order, (value, dimension,
        lexicographic vertex tuple). When the simplices were stored in
        lexicographic order, as build_rips stores them, a stable sort by
        size and then one by value give that order without comparing
        vertex tuples; otherwise (value, size, vertex tuple) records are
        sorted. In a valid filtration every face comes earlier, so a
        face without a key is either missing or valued above its coface.
        """
        if self._finalized:
            return
        values = self._values
        later = iter(values)
        next(later, None)
        if all(map(lt, values, later)):
            # both sorts are stable: equal values stay in size order, and
            # equal sizes in lexicographic order
            order = sorted(values, key=len)
            order.sort(key=values.__getitem__)
            simplex_of = tuple(order)
            del order
            value_of = tuple(map(values.__getitem__, simplex_of))
            dim_of = tuple([len(s) - 1 for s in simplex_of])
        else:
            records = sorted([(value, len(s), s) for s, value in values.items()])
            simplex_of = tuple([s for _, _, s in records])
            value_of = tuple([value for value, _, _ in records])
            dim_of = tuple([size - 1 for _, size, _ in records])
            del records
        keys: dict[Simplex, int] = {}
        faces = []
        append = faces.append
        try:
            for key, simplex in enumerate(simplex_of):
                size = len(simplex)
                if size == 1:
                    append(())
                elif size == 2:
                    a, b = simplex
                    append((keys[(b,)], keys[(a,)]))
                elif size == 3:
                    a, b, c = simplex
                    append((keys[b, c], keys[a, c], keys[a, b]))
                elif size == 4:
                    a, b, c, d = simplex
                    append((keys[b, c, d], keys[a, c, d], keys[a, b, d], keys[a, b, c]))
                else:
                    append(
                        tuple([keys[simplex[:j] + simplex[j + 1 :]] for j in range(size)])
                    )
                keys[simplex] = key
        except KeyError:  # name the first face without a key
            for j in range(size):
                face = simplex[:j] + simplex[j + 1 :]
                if face not in keys:
                    self._raise_bad_face(simplex, face)
        self._keys = keys
        self.simplex_of = simplex_of
        self.value_of = value_of
        self.dim_of = dim_of
        self.faces_of = tuple(faces)
        self._finalized = True

    def _raise_bad_face(self, simplex: Simplex, face: Simplex) -> None:
        value = self._values[simplex]
        face_value = self._values.get(face)
        if face_value is None:
            raise ClosureViolation(
                f"simplex {simplex} is stored but its face {face} is not"
            )
        raise MonotonicityViolation(
            f"face {face} has value {face_value} above "
            f"value {value} of its coface {simplex}"
        )

    # ------------------------------------------------------------------
    # queries

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def dimension(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return len(self._values)

    def value(self, simplex: Iterable[int]) -> float:
        verts = tuple(sorted(simplex))
        value = self._values.get(verts)
        if value is None:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        return value

    def boundary(self, simplex: Iterable[int]) -> list[tuple[Simplex, int]]:
        """Codimension-1 faces with alternating signs.

        Omitting vertex j contributes sign (-1)**j; vertices have an
        empty boundary.
        """
        verts = tuple(sorted(simplex))
        if verts not in self._values:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        if len(verts) == 1:
            return []
        return [
            (verts[:j] + verts[j + 1 :], 1 if j % 2 == 0 else -1)
            for j in range(len(verts))
        ]

    # Nothing in the package calls this; the benchmark's sampler patches it
    # by name to count calls, so it stays until the sampler stops.
    def cofacets(self, simplex: Iterable[int]) -> list[Simplex]:
        """Codimension-1 cofaces in lexicographic order.

        Costs one pass over the complex.
        """
        verts = tuple(sorted(simplex))
        if verts not in self._values:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        present = set(verts)
        return sorted(
            s for s in self._values if len(s) == len(verts) + 1 and present.issubset(s)
        )

    def filtration_order(self) -> list[Simplex]:
        """Total order by (value, dimension, lexicographic vertex list).

        Every face precedes every coface; available after finalize().
        """
        if not self._finalized:
            raise RuntimeError("filtration_order() requires a finalized complex")
        return list(self.simplex_of)

    def key(self, simplex: Iterable[int]) -> int:
        """The simplex's filtration position; available after finalize().

        A canonical vertex tuple (ascending, as ``simplex_of`` and the
        filtration order list them) is looked up as it is; any other
        vertex collection is sorted first.
        """
        if type(simplex) is tuple:
            key = self._keys.get(simplex)
            if key is not None:
                return key
        if not self._finalized:
            raise RuntimeError("key() requires a finalized complex")
        verts = tuple(sorted(simplex))
        key = self._keys.get(verts)
        if key is None:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        return key
