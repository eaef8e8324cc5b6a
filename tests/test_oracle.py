import json
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from camph import (
    PersistenceDiagram,
    PersistencePair,
    PrimeField,
    SimplexTree,
    betti_profile,
    oracle,
    oracle_reduce,
)
from camph.field import OpCountingField

from tests.fixtures import (
    canned_complexes,
    full_triangle,
    hollow_triangle,
    projective_plane_6,
    random_rips_corpus,
    tetra_boundary,
    torus_7,
)
from tests.test_properties import PRIMES, closed_filtrations, tree_of

DATA = Path(__file__).parent / "data"
F2 = PrimeField(2)
F3 = PrimeField(3)

# frozen from hand reduction of the 7x7 boundary matrix
FULL_TRIANGLE_DIAGRAM = Counter(
    {(0, 0.0, 1.0): 2, (0, 0.0, float("inf")): 1, (1, 1.0, 2.0): 1}
)
HOLLOW_TRIANGLE_DIAGRAM = Counter(
    {(0, 0.0, 1.0): 2, (0, 0.0, float("inf")): 1, (1, 1.0, float("inf")): 1}
)


def test_full_triangle_hand_reduction():
    assert oracle_reduce(full_triangle(), F2).multiset() == FULL_TRIANGLE_DIAGRAM


def test_hollow_triangle_hand_reduction():
    assert oracle_reduce(hollow_triangle(), F2).multiset() == HOLLOW_TRIANGLE_DIAGRAM


def test_single_vertex():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.finalize()
    assert oracle_reduce(t, F2).multiset() == Counter({(0, 0.0, float("inf")): 1})


def test_pair_creators_and_killers_have_adjacent_dims():
    for pair in oracle_reduce(torus_7(), F2):
        if pair.killer is not None:
            assert len(pair.killer) == len(pair.creator) + 1
            assert pair.birth <= pair.death


def test_betti_numbers_of_triangle_prefixes():
    profile = betti_profile(full_triangle(), F2)
    assert len(profile) == 8  # the empty prefix and one per simplex
    assert profile[0] == [0, 0, 0]
    assert profile[3] == [3, 0, 0]  # three isolated vertices
    assert profile[6] == [1, 1, 0]  # one component, one loop
    assert profile[7] == [1, 0, 0]  # filled disk, contractible


def test_betti_profile_of_torus():
    c = torus_7()
    profile = betti_profile(c, F2)
    assert len(profile) == len(c) + 1
    assert profile[len(c)] == [1, 2, 1]
    assert profile[7] == [7, 0, 0]  # the seven vertices


def test_field_sensitivity_of_projective_plane():
    rp2 = projective_plane_6()
    assert betti_profile(rp2, F2)[len(rp2)] == [1, 1, 1]
    assert betti_profile(rp2, F3)[len(rp2)] == [1, 0, 0]


def test_sphere_betti():
    sphere = tetra_boundary()
    assert betti_profile(sphere, F2)[len(sphere)] == [1, 0, 1]


def test_reduce_is_deterministic():
    a = oracle_reduce(torus_7(), F3)
    b = oracle_reduce(torus_7(), F3)
    assert a.pairs == b.pairs


def test_zero_length_pairs_follow_flag():
    t = SimplexTree()
    t.insert_simplex([0], 0.0)
    t.insert_simplex([1], 0.0)
    t.insert_simplex([0, 1], 0.0)
    t.finalize()
    assert oracle_reduce(t, F2).multiset() == Counter({(0, 0.0, float("inf")): 1})
    withz = oracle_reduce(t, F2, emit_zero_length=True)
    assert withz.multiset() == Counter(
        {(0, 0.0, float("inf")): 1, (0, 0.0, 0.0): 1}
    )


def _op_count_inputs() -> dict[str, SimplexTree]:
    complexes = canned_complexes()
    corpus = random_rips_corpus(quantize=True)
    complexes.update((f"quantized_rips_{i:02d}", c) for i, c in enumerate(corpus))
    return complexes


def test_op_counts_match_recorded():
    # recorded once and never re-recorded: however the oracle does its
    # arithmetic, it charges one op per add, neg, mul and div
    recorded = json.loads((DATA / "oracle_ops.json").read_text())
    complexes = _op_count_inputs()
    assert list(recorded["ops"]) == list(complexes)
    for name, complex in complexes.items():
        counts = []
        for p in recorded["primes"]:
            field = OpCountingField(p)
            oracle_reduce(complex, field)
            counts.append(field.ops)
        assert counts == recorded["ops"][name], name


@pytest.mark.parametrize("p", [2, 3, 7919])
def test_ignores_the_engine_views(p):
    # the oracle reads only filtration_order(), boundary() and value(), so
    # corrupting the per-key views the engine uses must change nothing
    def inputs():
        corpus = random_rips_corpus(count=10, seed=29, quantize=True)
        return list(canned_complexes().values()) + corpus

    field = PrimeField(p)
    intact, corrupt = inputs(), inputs()
    for complex in corrupt:
        complex.faces_of = complex.faces_of[::-1]
        complex.value_of = complex.value_of[::-1]
        complex.dim_of = complex.dim_of[::-1]
    for good, bad in zip(intact, corrupt):
        assert oracle_reduce(bad, field).pairs == oracle_reduce(good, field).pairs
        assert betti_profile(bad, field) == betti_profile(good, field)


def _model_reduce_columns(complex, field):
    # the reduction with one inverse and one charge per column addition,
    # and pivot owners and reduced columns in two dicts
    order = complex.filtration_order()
    index = {simplex: i for i, simplex in enumerate(order)}
    reduced = {}
    pivot_owner = {}
    pairs = []
    positives = []
    p, charge = field.p, field.charge
    for j, simplex in enumerate(order):
        column = {}
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


def _model_reduce(complex, field, emit_zero_length):
    order, pairs, positives = _model_reduce_columns(complex, field)
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


@settings(max_examples=60, deadline=None)
@given(closed_filtrations())
def test_matches_the_per_addition_model(values):
    # caching each stored pivot's inverse and charging once per pass must
    # leave every pair, creator, killer, op count and Betti number as the
    # per-addition reduction gives them
    tree = tree_of(values)
    for p in PRIMES:
        for emit_zero_length in (False, True):
            field, model_field = OpCountingField(p), OpCountingField(p)
            got = oracle_reduce(tree, field, emit_zero_length=emit_zero_length)
            want = _model_reduce(tree, model_field, emit_zero_length)
            assert got.pairs == want.pairs, (p, emit_zero_length)
            assert field.ops == model_field.ops, (p, emit_zero_length)
        field, model_field = OpCountingField(p), OpCountingField(p)
        profile = betti_profile(tree, field)
        with mock.patch.object(oracle, "_reduce_columns", _model_reduce_columns):
            assert profile == betti_profile(tree, model_field), p
        assert field.ops == model_field.ops, p
