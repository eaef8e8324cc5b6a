"""Insertion reordering for blocks of equal-value simplices.

Simplices sharing one filtration value may be inserted in any order that
respects inclusion. Inserting dimension by dimension opens every hole of a
block before the first one is filled; instead, each block is traversed
upward to its inclusion-maximal members and each maximal member then emits
its faces depth-first, so a simplex that closes a hole follows the faces
it needs as soon as possible and incident maximal simplices stay adjacent.

The upward incidence of a block is gathered from its members' own
boundaries, never by a coface query on the whole complex, so reordering a
block costs time linear in its size times the dimension.
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


def slab_partition(complex: SimplexTree) -> list[IsoSlab]:
    """Consecutive equal-value runs of the filtration order.

    Concatenating the blocks reproduces the full order.
    """
    order = complex.filtration_order()
    return [
        IsoSlab(value, [order[k] for k in keys])
        for value, keys in groupby(range(len(order)), key=complex.value_of.__getitem__)
    ]


def reorder_slab(
    complex: SimplexTree,
    slab: IsoSlab,
    edge_traversals: dict | None = None,
) -> list[Simplex]:
    """Permute one block: upward pass to maximal members, downward emit.

    The block's upward incidence (member face to member cofacets, in
    lexicographic order) is built once from the members' boundaries while
    they are validated. Per listed simplex, an upward depth-first walk
    over it collects the inclusion-maximal cofaces in traversal order;
    from each, a downward depth-first walk emits faces before the simplex
    that needs them. Both walks stop at nodes already flagged for that
    direction, so each incidence edge inside the block is walked at most
    twice overall, and the cost is linear in the block size times the
    dimension. ``edge_traversals`` optionally collects per-edge walk
    counts.

    The walks run on filtration keys. The cofacets of one face share a
    dimension, and inside one block keys of one dimension sort as their
    vertex lists do, so sorted keys give the lexicographic coface order.
    """
    keys = [complex.key(simplex) for simplex in slab.simplices]
    members = set(keys)
    if len(members) != len(keys):
        raise ValueError("duplicate simplices in slab")
    value = slab.value
    simplex_of = complex.simplex_of
    value_of = complex.value_of
    faces_of = complex.faces_of
    up: dict[int, list[int]] = {}
    for key in keys:
        if value_of[key] != value:
            raise ValueError(
                f"simplex {simplex_of[key]} does not share the slab value {value}"
            )
        for face in faces_of[key]:
            if face in members:
                up.setdefault(face, []).append(key)
            elif value_of[face] == value:
                raise SlabNotRelativelyClosed(
                    f"face {simplex_of[face]} of {simplex_of[key]} shares value "
                    f"{value} but is outside the slab"
                )
    for cofaces in up.values():
        cofaces.sort()

    up_seen: set[int] = set()
    down_seen: set[int] = set()
    out: list[int] = []

    def record(face: int, coface: int) -> None:
        if edge_traversals is not None:
            edge = (simplex_of[face], simplex_of[coface])
            edge_traversals[edge] = edge_traversals.get(edge, 0) + 1

    def climb(key: int, maximal: list[int]) -> None:
        up_seen.add(key)
        cofaces = up.get(key, ())
        for coface in cofaces:
            record(key, coface)
            if coface not in up_seen:
                climb(coface, maximal)
        if not cofaces:
            maximal.append(key)

    def descend(key: int) -> None:
        down_seen.add(key)
        for face in faces_of[key]:
            if face in members:
                record(face, key)
                if face not in down_seen:
                    descend(face)
            # faces below the slab value are already inserted
        out.append(key)

    for key in keys:
        if key in up_seen:
            continue
        maximal: list[int] = []
        climb(key, maximal)
        for top in maximal:
            if top not in down_seen:
                descend(top)

    if len(out) != len(members) or set(out) != members:
        raise InvariantViolation("reordering lost or duplicated simplices")
    return [simplex_of[key] for key in out]


def reordered_filtration(complex: SimplexTree) -> list[Simplex]:
    """The full filtration with every equal-value block reordered."""
    out: list[Simplex] = []
    for slab in slab_partition(complex):
        out.extend(reorder_slab(complex, slab))
    return out
