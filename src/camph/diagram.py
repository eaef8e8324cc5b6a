"""Persistence pairs and diagrams."""
from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .simplex_tree import Simplex


class PersistencePair(NamedTuple):
    """One diagram point: a class of dimension ``dim`` born at ``birth``
    and destroyed at ``death`` (infinite for essential classes).

    The creator/killer simplices are carried for inspection only; diagram
    comparison ignores them, as reordering the filtration may change which
    simplex gets paired without changing the diagram. A pair is an
    immutable 5-tuple of its fields.
    """

    dim: int
    birth: float
    death: float
    creator: Simplex | None = None
    killer: Simplex | None = None

    @property
    def essential(self) -> bool:
        return math.isinf(self.death)

    @property
    def triple(self) -> tuple[int, float, float]:
        return self[:3]


def _order(q: PersistencePair) -> tuple:
    return q.dim, q.birth, q.death, q.creator or (), q.killer or ()


class PersistenceDiagram:
    """A multiset of (dim, birth, death) points.

    ``pairs`` lists them sorted by (dim, birth, death, creator, killer),
    a missing creator or killer sorting as the empty tuple.
    """

    def __init__(self, pairs: Iterable[PersistencePair] = ()):
        pairs = list(pairs)
        try:
            # Pairs compare as tuples, field by field, and each field
            # comparison agrees with the key's unless it sets None against
            # a tuple, which raises. So a sort that raises nothing gives
            # the key's order, without a key call per pair.
            self.pairs = sorted(pairs)
        except TypeError:
            self.pairs = sorted(pairs, key=_order)

    def __iter__(self) -> Iterator[PersistencePair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PersistenceDiagram):
            return NotImplemented
        return self.multiset() == other.multiset()

    def __repr__(self) -> str:
        return f"PersistenceDiagram({len(self.pairs)} pairs)"

    def multiset(self) -> Counter:
        return Counter(q.triple for q in self.pairs)


def diagram_equal(d1: PersistenceDiagram, d2: PersistenceDiagram) -> bool:
    """Multiset equality of (dim, birth, death) points."""
    return d1.multiset() == d2.multiset()
