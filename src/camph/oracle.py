"""Reference persistence by boundary-matrix column reduction.

The classic left-to-right elimination over Z_p, with no clearing and no
twist: cubic worst case, used to validate the annotation engine and as
the baseline it is timed against. It deliberately shares nothing with
the engine beyond the field and complex types: it reads the complex only
through filtration_order(), boundary() and value(), never through the
per-key views (``faces_of``, ``value_of``, ``dim_of``) that finalize()
builds for the engine. The mod-p arithmetic is done inline, as in the
engine, and charged to ``field.charge`` as field operations: each column
addition counts one negation and one division, plus one product and one
addition per entry of the column added.
"""
from __future__ import annotations

import math

from .diagram import PersistenceDiagram, PersistencePair
from .field import PrimeField
from .simplex_tree import SimplexTree


def _reduce_columns(complex: SimplexTree, field: PrimeField):
    order = complex.filtration_order()
    index = {simplex: i for i, simplex in enumerate(order)}
    reduced: dict[int, dict[int, int]] = {}
    pivot_owner: dict[int, int] = {}  # pivot row -> owning column
    pairs: list[tuple[int, int]] = []
    positives: list[int] = []
    p, charge = field.p, field.charge
    for j, simplex in enumerate(order):
        column: dict[int, int] = {}
        if len(simplex) > 1:
            for face, sign in complex.boundary(simplex):
                column[index[face]] = 1 if sign > 0 else p - 1
        get = column.get
        while column:
            low = max(column)
            k = pivot_owner.get(low)
            if k is None:
                break
            other = reduced[k]
            charge(2 + 2 * len(other))
            lam = (p - column[low]) * pow(other[low], -1, p) % p
            for row, coeff in other.items():
                v = (get(row, 0) + lam * coeff) % p
                if v:
                    column[row] = v
                else:
                    del column[row]
        if column:
            low = max(column)
            pivot_owner[low] = j
            reduced[j] = column
            pairs.append((low, j))
        else:
            positives.append(j)
    return order, pairs, positives


def reduce(
    complex: SimplexTree, field: PrimeField, emit_zero_length: bool = False
) -> PersistenceDiagram:
    """Persistence diagram by plain column reduction.

    Deterministic given the filtration order; zero-length pairs are
    dropped unless requested, mirroring the engine's default.
    """
    order, pairs, positives = _reduce_columns(complex, field)
    killed = {i for i, _ in pairs}
    out = []
    for i, j in pairs:
        creator, killer = order[i], order[j]
        pair = PersistencePair(
            len(creator) - 1,
            complex.value(creator),
            complex.value(killer),
            creator,
            killer,
        )
        if emit_zero_length or pair.birth != pair.death:
            out.append(pair)
    for j in positives:
        if j not in killed:
            simplex = order[j]
            out.append(
                PersistencePair(
                    len(simplex) - 1, complex.value(simplex), math.inf, simplex, None
                )
            )
    return PersistenceDiagram(out)


def betti_profile(complex: SimplexTree, field: PrimeField) -> list[list[int]]:
    """Betti numbers of every filtration prefix.

    Entry i covers the subcomplex of the first i simplices in filtration
    order; each entry lists dimensions 0..dim(complex). One reduction pass
    serves all prefixes, since the pairing of the first i columns does not
    depend on later ones.
    """
    order, pairs, positives = _reduce_columns(complex, field)
    width = complex.dimension + 1
    born_at = {j: len(order[j]) - 1 for j in positives}
    died_at = {j: len(order[i]) - 1 for i, j in pairs}
    betti = [0] * width
    profile = [list(betti)]
    for j in range(len(order)):
        dim = born_at.get(j)
        if dim is not None:
            betti[dim] += 1
        dim = died_at.get(j)
        if dim is not None:
            betti[dim] -= 1
        profile.append(list(betti))
    return profile
