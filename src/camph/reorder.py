"""Insertion reordering for blocks of equal-value simplices.

Simplices sharing one filtration value may be inserted in any order that
respects inclusion. Inserting dimension by dimension opens every hole of a
block before the first one is filled; instead, each block is climbed to
its inclusion-maximal members, and the climb emits each one right after
its faces, depth first, as soon as it reaches it. So a simplex that closes
a hole follows the faces it needs as soon as possible and incident maximal
simplices stay adjacent. Climbing and descending share no state, so when
a descent runs does not change the order.

Filtration keys are ordered by value first, so a block is the contiguous
key range ``[lo, hi)``, and a face of a member is itself a member exactly
when its key is at least ``lo``. The upward incidence of a block is
gathered from its members' own boundaries, never by a coface query on the
whole complex, so reordering a block costs time linear in its size times
the dimension.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

from .simplex_tree import Simplex, SimplexTree


@dataclass
class IsoSlab:
    """A block of simplices sharing one filtration value, listed in an
    inclusion-respecting order."""

    value: float
    simplices: list[Simplex]


def _key_ranges(complex: SimplexTree):
    """The ``(lo, hi)`` key range of each equal-value block, in order."""
    value_of = complex.value_of
    lo = 0
    while lo < len(value_of):
        hi = bisect_right(value_of, value_of[lo], lo)
        yield lo, hi
        lo = hi


# bench/sample.py counts blocks through slab_partition(tree)[i].simplices
def slab_partition(complex: SimplexTree) -> list[IsoSlab]:
    """Consecutive equal-value runs of the filtration order.

    Concatenating the blocks reproduces the full order.
    """
    order = complex.filtration_order()
    value_of = complex.value_of
    return [IsoSlab(value_of[lo], order[lo:hi]) for lo, hi in _key_ranges(complex)]


def _walk(complex, lo: int, hi: int) -> list[int]:
    """The climb/descend order of the block ``[lo, hi)``, as keys.

    A face is a member exactly when its key is at least ``lo``. The
    cofacets of one face share a dimension, and inside one block keys of
    one dimension sort as their vertex lists do, so appending in key order
    gives each face its cofacets in lexicographic order. A maximal member
    has no coface in the block, so only the climb, which enters each
    member once, starts its descent. The climb reads only ``up`` and
    ``up_seen``, the descent only ``down_seen`` and ``out``, so descending
    on arrival gives the order of climbing first and descending after.
    Both walks stop at keys already flagged for their direction, so the
    cost is linear in the block size times the dimension.
    """
    faces_of = complex.faces_of
    up: dict[int, list[int]] = {}
    for key in range(lo, hi):
        for face in faces_of[key]:
            if face >= lo:
                up.setdefault(face, []).append(key)

    up_seen: set[int] = set()
    down_seen: set[int] = set()
    out: list[int] = []

    def climb(key: int) -> None:
        up_seen.add(key)
        cofaces = up.get(key)
        if cofaces is None:
            descend(key)
            return
        for coface in cofaces:
            if coface not in up_seen:
                climb(coface)

    def descend(key: int) -> None:
        down_seen.add(key)
        for face in faces_of[key]:
            # faces below the block are already inserted
            if face >= lo and face not in down_seen:
                descend(face)
        out.append(key)

    for key in range(lo, hi):
        if key not in up_seen:
            climb(key)
    return out


def reordered_filtration(complex: SimplexTree) -> list[Simplex]:
    """The full filtration with every equal-value block reordered.

    One scan over the keys, in order, finds the blocks to walk. A block
    whose every later member has the first member as a face (one edge and
    the triangles it closes, say) climbs from the first member to all the
    others and emits them in key order, so it is copied without a walk.
    The scan leaves a block at the first later member without that face:
    it walks the block and goes on at the block's end. This is the rule
    "every later member has the first as its youngest face": a later
    member with face ``lo`` and another face ``f`` above it has ``f`` in
    the block, of ``lo``'s dimension, so ``f`` is an earlier later member
    that lacks face ``lo``.
    """
    if not complex.finalized:
        raise RuntimeError("reordered_filtration() requires a finalized complex")
    value_of, faces_of = complex.value_of, complex.faces_of
    simplex_of = complex.simplex_of
    n = len(value_of)
    out: list[Simplex] = []
    done = 0
    lo, value = 0, None
    key = 0
    while key < n:
        if value_of[key] != value:
            lo, value = key, value_of[key]
        elif lo not in faces_of[key]:
            hi = bisect_right(value_of, value, key)
            out += simplex_of[done:lo]
            out += map(simplex_of.__getitem__, _walk(complex, lo, hi))
            done = key = hi
            continue
        key += 1
    out += simplex_of[done:]
    return out
