import math

import pytest

from camph import PersistenceDiagram, PersistencePair


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
