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
        IsoSlab(value, list(group))
        for value, group in groupby(order, key=complex.value)
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
    """
    members = set(slab.simplices)
    if len(members) != len(slab.simplices):
        raise ValueError("duplicate simplices in slab")
    value = slab.value
    up: dict[Simplex, list[Simplex]] = {}
    for simplex in slab.simplices:
        if complex.value(simplex) != value:
            raise ValueError(
                f"simplex {simplex} does not share the slab value {value}"
            )
        if len(simplex) > 1:
            for face, _ in complex.boundary(simplex):
                if face in members:
                    up.setdefault(face, []).append(simplex)
                elif complex.value(face) == value:
                    raise SlabNotRelativelyClosed(
                        f"face {face} of {simplex} shares value {value} "
                        "but is outside the slab"
                    )
    for cofaces in up.values():
        cofaces.sort()

    up_seen: set[Simplex] = set()
    down_seen: set[Simplex] = set()
    out: list[Simplex] = []

    def record(face: Simplex, coface: Simplex) -> None:
        if edge_traversals is not None:
            key = (face, coface)
            edge_traversals[key] = edge_traversals.get(key, 0) + 1

    def climb(simplex: Simplex, maximal: list[Simplex]) -> None:
        up_seen.add(simplex)
        cofaces = up.get(simplex, ())
        for coface in cofaces:
            record(simplex, coface)
            if coface not in up_seen:
                climb(coface, maximal)
        if not cofaces:
            maximal.append(simplex)

    def descend(simplex: Simplex) -> None:
        down_seen.add(simplex)
        if len(simplex) > 1:
            for face, _ in complex.boundary(simplex):
                if face in members:
                    record(face, simplex)
                    if face not in down_seen:
                        descend(face)
                # faces below the slab value are already inserted
        out.append(simplex)

    for simplex in slab.simplices:
        if simplex in up_seen:
            continue
        maximal: list[Simplex] = []
        climb(simplex, maximal)
        for top in maximal:
            if top not in down_seen:
                descend(top)

    if len(out) != len(members) or set(out) != members:
        raise InvariantViolation("reordering lost or duplicated simplices")
    return out


def reordered_filtration(complex: SimplexTree) -> list[Simplex]:
    """The full filtration with every equal-value block reordered."""
    out: list[Simplex] = []
    for slab in slab_partition(complex):
        out.extend(reorder_slab(complex, slab))
    return out
