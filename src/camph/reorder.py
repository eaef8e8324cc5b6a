"""Insertion reordering for blocks of equal-value simplices.

Simplices sharing one filtration value may be inserted in any order that
respects inclusion. Inserting dimension by dimension opens every hole of a
block before the first one is filled; instead, each block is traversed
upward to its inclusion-maximal members and each maximal member then emits
its faces depth-first, so a simplex that closes a hole follows the faces
it needs as soon as possible and incident maximal simplices stay adjacent.

Filtration keys are ordered by value first, so a block is the contiguous
key range ``[lo, hi)``, and a face of a member is itself a member exactly
when its key is at least ``lo``. The upward incidence of a block is
gathered from its members' own boundaries, never by a coface query on the
whole complex, so reordering a block costs time linear in its size times
the dimension.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .errors import InvariantViolation, SlabNotRelativelyClosed
from .simplex_tree import Simplex, SimplexTree


@dataclass
class IsoSlab:
    """A block of simplices sharing one filtration value, listed in an
    inclusion-respecting order."""

    value: float
    simplices: list[Simplex]


def _key_ranges(complex: SimplexTree):
    """The ``(lo, hi)`` key range of each equal-value block, in order."""
    lo = 0
    for _, run in groupby(complex.value_of):
        hi = lo + sum(1 for _ in run)
        yield lo, hi
        lo = hi


def slab_partition(complex: SimplexTree) -> list[IsoSlab]:
    """Consecutive equal-value runs of the filtration order.

    Concatenating the blocks reproduces the full order.
    """
    order = complex.filtration_order()
    value_of = complex.value_of
    return [IsoSlab(value_of[lo], order[lo:hi]) for lo, hi in _key_ranges(complex)]


def reorder_slab(
    complex: SimplexTree,
    slab: IsoSlab,
    edge_traversals: dict | None = None,
) -> list[Simplex]:
    """Permute one block: upward pass to maximal members, downward emit.

    The slab is validated first: its simplices are distinct, share its
    value, and every face sharing that value is in the slab. Per listed
    simplex, an upward depth-first walk over it collects the
    inclusion-maximal cofaces in traversal order; from each, a downward
    depth-first walk emits faces before the simplex that needs them. Both
    walks stop at nodes already flagged for that direction, so each
    incidence edge inside the block is walked at most twice overall, and
    the cost is linear in the block size times the dimension.
    ``edge_traversals`` optionally collects per-edge walk counts.
    """
    keys = [complex.key(simplex) for simplex in slab.simplices]
    members = set(keys)
    if len(members) != len(keys):
        raise ValueError("duplicate simplices in slab")
    value = slab.value
    simplex_of = complex.simplex_of
    value_of = complex.value_of
    for key in keys:
        if value_of[key] != value:
            raise ValueError(
                f"simplex {simplex_of[key]} does not share the slab value {value}"
            )
        for face in complex.faces_of[key]:
            if face not in members and value_of[face] == value:
                raise SlabNotRelativelyClosed(
                    f"face {simplex_of[face]} of {simplex_of[key]} shares value "
                    f"{value} but is outside the slab"
                )
    # Keys order by value, and every same-value face is a member, so a face
    # of a member is a member exactly when its key is at least the least one.
    out = _walk(complex, keys, sorted(keys), min(keys, default=0), edge_traversals)
    if len(out) != len(members) or set(out) != members:
        raise InvariantViolation("reordering lost or duplicated simplices")
    return [simplex_of[key] for key in out]


def _walk(complex, starts, ascending, lo, edge_traversals=None) -> list[int]:
    """The climb/descend order of one block, as keys.

    ``ascending`` lists the block's members in increasing key order and
    ``starts`` in the order the upward walks begin; a face is a member
    exactly when its key is at least ``lo``. The cofacets of one face
    share a dimension, and inside one block keys of one dimension sort as
    their vertex lists do, so appending in ascending key order gives each
    face its cofacets in lexicographic order.
    """
    faces_of = complex.faces_of
    up: dict[int, list[int]] = {}
    for key in ascending:
        for face in faces_of[key]:
            if face >= lo:
                up.setdefault(face, []).append(key)

    up_seen: set[int] = set()
    down_seen: set[int] = set()
    out: list[int] = []
    counting = edge_traversals is not None

    def record(face: int, coface: int) -> None:
        simplex_of = complex.simplex_of
        edge = (simplex_of[face], simplex_of[coface])
        edge_traversals[edge] = edge_traversals.get(edge, 0) + 1

    def climb(key: int, maximal: list[int]) -> None:
        up_seen.add(key)
        cofaces = up.get(key)
        if cofaces is None:
            maximal.append(key)
            return
        for coface in cofaces:
            if counting:
                record(key, coface)
            if coface not in up_seen:
                climb(coface, maximal)

    def descend(key: int) -> None:
        down_seen.add(key)
        for face in faces_of[key]:
            # faces below the block are already inserted
            if face >= lo:
                if counting:
                    record(face, key)
                if face not in down_seen:
                    descend(face)
        out.append(key)

    for key in starts:
        if key in up_seen:
            continue
        maximal: list[int] = []
        climb(key, maximal)
        for top in maximal:
            if top not in down_seen:
                descend(top)
    return out


def reordered_filtration(complex: SimplexTree) -> list[Simplex]:
    """The full filtration with every equal-value block reordered."""
    faces_of = complex.faces_of
    out: list[int] = []
    for lo, hi in _key_ranges(complex):
        block = range(lo, hi)
        # A block whose every later member has the first as its one member
        # face (one edge and the triangles it closes, say) climbs from the
        # first member to all the others and emits them in key order.
        if all(max(faces_of[key], default=-1) == lo for key in block[1:]):
            out += block
        else:
            out += _walk(complex, block, block, lo)
    simplex_of = complex.simplex_of
    return [simplex_of[key] for key in out]
