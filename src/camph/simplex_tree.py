"""Filtered simplicial complexes keyed by sorted vertex tuples.

While building, the complex is a dict from each simplex's ascending
vertex tuple to its filtration value. finalize() sorts it into filtration
order once and numbers it: a simplex's key is its filtration position,
and per-key views give each key's vertex tuple, value, dimension and
boundary face keys, so the engine and the reordering never look a simplex
up again.
"""
from __future__ import annotations

import math
from typing import Iterable

from .errors import ClosureViolation, MonotonicityViolation, UnknownSimplex

Simplex = tuple[int, ...]


def _canonical(vertices: Iterable[int]) -> Simplex:
    verts = tuple(sorted(vertices))
    if not verts:
        raise ValueError("a simplex needs at least one vertex")
    for v in verts:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise ValueError(f"vertex ids must be non-negative ints, got {v!r}")
    if len(set(verts)) != len(verts):
        raise ValueError(f"duplicate vertices in {verts}")
    return verts


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
        finalize(), not repaired here. The value must be finite.
        """
        if self._finalized:
            raise RuntimeError("complex is finalized")
        verts = _canonical(vertices)
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"value {value} of {verts} is not finite")
        old = self._values.get(verts)
        if old is None or value < old:
            self._values[verts] = value
        self._dim = max(self._dim, len(verts) - 1)

    def finalize(self) -> None:
        """Validate closure under faces and value monotonicity, then freeze.

        Simplices are numbered in filtration order. In a valid filtration
        every face comes earlier, so a face without a key is either
        missing or valued above its coface.
        """
        if self._finalized:
            return
        order = sorted(self._values, key=lambda s: (self._values[s], len(s), s))
        keys: dict[Simplex, int] = {}
        faces = []
        for key, simplex in enumerate(order):
            face_keys = []
            if len(simplex) > 1:
                for j in range(len(simplex)):
                    face = simplex[:j] + simplex[j + 1 :]
                    face_key = keys.get(face)
                    if face_key is None:
                        self._raise_bad_face(simplex, face)
                    face_keys.append(face_key)
            keys[simplex] = key
            faces.append(tuple(face_keys))
        self._keys = keys
        self.simplex_of = tuple(order)
        self.value_of = tuple(self._values[s] for s in order)
        self.dim_of = tuple(len(s) - 1 for s in order)
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

    def __contains__(self, simplex: Iterable[int]) -> bool:
        return tuple(sorted(simplex)) in self._values

    def vertices(self) -> list[int]:
        return sorted(s[0] for s in self._values if len(s) == 1)

    def value(self, simplex: Iterable[int]) -> float:
        verts = tuple(sorted(simplex))
        value = self._values.get(verts)
        if value is None:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        return value

    def simplices(self) -> list[tuple[Simplex, float]]:
        """All simplices with their values, in lexicographic order."""
        return sorted(self._values.items())

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

    def cofacets(
        self,
        simplex: Iterable[int],
        value_range: tuple[float, float] | None = None,
    ) -> list[Simplex]:
        """Codimension-1 cofaces, optionally restricted to a closed value
        interval, in lexicographic order.

        Costs one lookup per vertex of the complex.
        """
        verts = tuple(sorted(simplex))
        if verts not in self._values:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        lo, hi = value_range if value_range is not None else (-math.inf, math.inf)
        present = set(verts)
        out = []
        for v in self.vertices():
            if v in present:
                continue
            coface = tuple(sorted(verts + (v,)))
            value = self._values.get(coface)
            if value is not None and lo <= value <= hi:
                out.append(coface)
        out.sort()
        return out

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
