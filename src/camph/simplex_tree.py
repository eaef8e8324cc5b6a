"""Filtered simplicial complexes stored as a simplex tree.

The tree is a trie over ascending vertex lists: every stored word is one
simplex together with its filtration value. Incidence is never
materialized; boundary faces and codimension-1 cofaces are recovered by
trie walks on demand, which keeps storage linear in the number of
simplices.
"""
from __future__ import annotations

import math
from typing import Iterable, Iterator

from .errors import ClosureViolation, MonotonicityViolation, UnknownSimplex

Simplex = tuple[int, ...]


class _Node:
    __slots__ = ("children", "value")

    def __init__(self):
        self.children: dict[int, _Node] = {}
        self.value: float | None = None


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
    """A filtered complex: mutable while building, frozen by finalize()."""

    def __init__(self):
        self._top: dict[int, _Node] = {}
        self._finalized = False
        self._size = 0
        self._dim = -1
        self._order: list[Simplex] | None = None

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
        children = self._top
        node = None
        for v in verts:
            node = children.get(v)
            if node is None:
                node = children[v] = _Node()
            children = node.children
        if node.value is None:
            node.value = value
            self._size += 1
            if len(verts) - 1 > self._dim:
                self._dim = len(verts) - 1
        elif value < node.value:
            node.value = value

    def finalize(self) -> None:
        """Validate closure under faces and value monotonicity, then freeze."""
        if self._finalized:
            return
        for simplex, value in self.simplices():
            if len(simplex) == 1:
                continue
            for j in range(len(simplex)):
                face = simplex[:j] + simplex[j + 1 :]
                node = self._walk(face)
                if node is None or node.value is None:
                    raise ClosureViolation(
                        f"simplex {simplex} is stored but its face {face} is not"
                    )
                if node.value > value:
                    raise MonotonicityViolation(
                        f"face {face} has value {node.value} above "
                        f"value {value} of its coface {simplex}"
                    )
        self._order = sorted(
            (s for s, _ in self.simplices()),
            key=lambda s: (self.value(s), len(s), s),
        )
        self._finalized = True

    # ------------------------------------------------------------------
    # queries

    @property
    def finalized(self) -> bool:
        return self._finalized

    @property
    def dimension(self) -> int:
        return self._dim

    def __len__(self) -> int:
        return self._size

    def __contains__(self, simplex: Iterable[int]) -> bool:
        node = self._walk(tuple(sorted(simplex)))
        return node is not None and node.value is not None

    def vertices(self) -> list[int]:
        return sorted(v for v, n in self._top.items() if n.value is not None)

    def value(self, simplex: Iterable[int]) -> float:
        verts = tuple(sorted(simplex))
        node = self._walk(verts)
        if node is None or node.value is None:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        return node.value

    def simplices(self) -> Iterator[tuple[Simplex, float]]:
        """All simplices with their values, in depth-first trie order."""

        def walk(prefix: Simplex, children: dict[int, _Node]):
            for v in sorted(children):
                node = children[v]
                word = prefix + (v,)
                if node.value is not None:
                    yield word, node.value
                yield from walk(word, node.children)

        yield from walk((), self._top)

    def boundary(self, simplex: Iterable[int]) -> list[tuple[Simplex, int]]:
        """Codimension-1 faces with alternating signs.

        Omitting vertex j contributes sign (-1)**j; vertices have an
        empty boundary.
        """
        verts = tuple(sorted(simplex))
        node = self._walk(verts)
        if node is None or node.value is None:
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

        Costs one trie walk per vertex of the complex.
        """
        verts = tuple(sorted(simplex))
        node = self._walk(verts)
        if node is None or node.value is None:
            raise UnknownSimplex(f"simplex {verts} is not in the complex")
        lo, hi = value_range if value_range is not None else (-math.inf, math.inf)
        present = set(verts)
        out = []
        for v in sorted(self._top):
            if v in present:
                continue
            coface = tuple(sorted(verts + (v,)))
            cnode = self._walk(coface)
            if cnode is not None and cnode.value is not None and lo <= cnode.value <= hi:
                out.append(coface)
        out.sort()
        return out

    def filtration_order(self) -> list[Simplex]:
        """Total order by (value, dimension, lexicographic vertex list).

        Every face precedes every coface; available after finalize().
        """
        if not self._finalized:
            raise RuntimeError("filtration_order() requires a finalized complex")
        return list(self._order)

    # ------------------------------------------------------------------

    def _walk(self, verts: Simplex) -> _Node | None:
        children = self._top
        node = None
        for v in verts:
            node = children.get(v)
            if node is None:
                return None
            children = node.children
        return node
