import math

import pytest

from camph import (
    EngineOptions,
    PersistenceDiagram,
    PersistencePair,
    PrimeField,
    compute_persistence,
    diagram_equal,
    oracle_reduce,
)

from tests.fixtures import canned_complexes, random_rips_corpus


def test_pair_fields_defaults_and_properties():
    q = PersistencePair(1, 0.5, 2.0, (0, 1), (0, 1, 2))
    assert (q.dim, q.birth, q.death) == (1, 0.5, 2.0)
    assert (q.creator, q.killer) == ((0, 1), (0, 1, 2))
    assert q.triple == (1, 0.5, 2.0)
    assert not q.essential
    e = PersistencePair(0, 0.0, math.inf)
    assert e.creator is None and e.killer is None
    assert e.essential
    assert e.triple == (0, 0.0, math.inf)


@pytest.mark.parametrize("name", ["dim", "birth", "death", "creator", "killer"])
def test_pair_fields_cannot_be_assigned(name):
    q = PersistencePair(0, 0.0, 1.0, (0,), (0, 1))
    with pytest.raises(AttributeError):
        setattr(q, name, None)
    assert q == PersistencePair(0, 0.0, 1.0, (0,), (0, 1))


def test_equal_pairs_are_equal_and_hash_equal():
    a = PersistencePair(1, 1.0, math.inf, (1, 2))
    b = PersistencePair(1, 1.0, math.inf, (1, 2))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != PersistencePair(1, 1.0, math.inf, (0, 2))
    assert a != PersistencePair(1, 1.0, math.inf, (1, 2), (0, 1, 2))


def test_diagram_pairs_keep_their_sorted_order():
    # sorted by (dim, birth, death, creator, killer), a missing simplex
    # first; equal triples keep distinct creators apart
    pairs = [
        PersistencePair(1, 1.0, math.inf, (1, 2)),
        PersistencePair(0, 0.0, 1.0, (2,), (0, 2)),
        PersistencePair(0, 0.0, 1.0, (1,), (0, 1)),
        PersistencePair(0, 0.0, math.inf),
        PersistencePair(0, 0.0, 1.0),
    ]
    d = PersistenceDiagram(pairs)
    assert d.pairs == [pairs[4], pairs[2], pairs[1], pairs[3], pairs[0]]
    assert list(d) == d.pairs


def test_diagrams_compare_as_multisets_of_triples():
    # simplices and listing order do not matter; multiplicity does
    one = PersistencePair(0, 0.0, 1.0, (1,), (0, 1))
    essential = PersistencePair(0, 0.0, math.inf, (0,))
    d = PersistenceDiagram([one, essential])
    same = PersistenceDiagram([PersistencePair(0, 0.0, math.inf), PersistencePair(0, 0.0, 1.0)])
    twice = PersistenceDiagram([one, one, essential])
    assert d == same and diagram_equal(d, same)
    assert d != twice and not diagram_equal(d, twice)
    assert d != PersistenceDiagram([one])
    assert d != d.pairs and d.__eq__(d.pairs) is NotImplemented


def _documented(q):
    return q.dim, q.birth, q.death, q.creator or (), q.killer or ()


def _positions(pairs, listed):
    # by identity, since 1 == 1.0 makes pairs that print differently equal
    at = {id(q): i for i, q in enumerate(listed)}
    return [at[id(q)] for q in pairs]


def test_missing_simplices_sort_by_the_documented_key():
    # None and a tuple do not compare, so these pairs need the key; pairs
    # 1, 3 and 5 tie under it (1 == 1.0, and None sorts as ()) and keep
    # their input order
    pairs = [
        PersistencePair(0, 1.0, 2.0, (3,), (0, 3)),
        PersistencePair(0, 1, 2.0),
        PersistencePair(0, 1.0, 2.0, None, (1, 2)),
        PersistencePair(0, 1.0, 2.0),
        PersistencePair(0, 1, 2.0, (1,)),
        PersistencePair(0, 1.0, 2.0, ()),
        PersistencePair(0, 0.5, math.inf, (2,)),
        PersistencePair(0, 1.0, 2.0, (1,), (0, 1)),
    ]
    d = PersistenceDiagram(iter(pairs))
    assert _positions(d.pairs, pairs) == [6, 1, 3, 5, 2, 4, 7, 0]


def test_full_pairs_sort_by_the_documented_key():
    # every creator and killer present: births 1 and 1.0 tie, and equal
    # pairs keep their input order
    pairs = [
        PersistencePair(1, 1.0, 3.0, (0, 2), (0, 1, 2)),
        PersistencePair(1, 1, 3.0, (0, 1), (0, 1, 2)),
        PersistencePair(0, 1.0, math.inf, (4,), None),
        PersistencePair(1, 1.0, 3.0, (0, 1), (0, 1, 2)),
        PersistencePair(1, 1, 2.0, (1, 2), (1, 2, 3)),
        PersistencePair(0, 0, 1.0, (1,), (0, 1)),
    ]
    d = PersistenceDiagram(pairs)
    assert _positions(d.pairs, pairs) == [5, 2, 4, 1, 3, 0]


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("reorder", [False, True])
def test_engine_and_oracle_diagrams_in_documented_order(lazy, reorder):
    field = PrimeField(3)
    complexes = list(canned_complexes().values())
    complexes += random_rips_corpus(quantize=True)
    options = EngineOptions(lazy=lazy, reorder=reorder, emit_zero_length=True)
    for c in complexes:
        d, _ = compute_persistence(c, field, options)
        reference = oracle_reduce(c, field, emit_zero_length=True)
        for pairs in (d.pairs, reference.pairs):
            assert pairs == sorted(pairs, key=_documented)
