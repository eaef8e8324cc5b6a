import random

import pytest

from camph import PrimeField, is_prime
from camph.errors import CompositeModulus, DivisionByZero
from camph.field import OpCountingField


def test_prime_moduli_accepted():
    assert PrimeField(2).p == 2
    assert PrimeField(11).p == 11
    assert PrimeField(7919).p == 7919


@pytest.mark.parametrize("bad", [4, 1, 0, -7, 9, 393, 10**6])
def test_composite_moduli_rejected(bad):
    with pytest.raises(CompositeModulus):
        PrimeField(bad)


def test_addition_examples():
    f11 = PrimeField(11)
    assert f11.add(5, 9) == 3
    assert f11.add(0, 7) == 7
    f2 = PrimeField(2)
    assert f2.add(1, 1) == 0


def test_inverse_examples():
    f11 = PrimeField(11)
    assert f11.div(1, 3) == 4
    assert f11.div(7, 7) == 1
    f2 = PrimeField(2)
    assert f2.div(1, 1) == 1


def test_division_by_zero():
    f = PrimeField(11)
    with pytest.raises(DivisionByZero):
        f.div(1, 0)
    with pytest.raises(DivisionByZero):
        f.div(3, 0)


def test_neg_is_additive_inverse():
    f = PrimeField(7)
    for a in range(7):
        assert f.add(a, f.neg(a)) == 0


@pytest.mark.parametrize("p", [2, 3, 11, 7919])
def test_field_axioms_randomized(p):
    # 10^4 random triples per prime: commutativity, associativity,
    # distributivity, inverses, canonical range
    f = PrimeField(p)
    rng = random.Random(0xC0FFEE + p)
    for _ in range(10_000):
        a, b, c = (rng.randrange(p) for _ in range(3))
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        for value in (f.add(a, b), f.mul(a, b), f.neg(a)):
            assert 0 <= value < p
        if a:
            assert f.mul(a, f.div(1, a)) == 1


def test_is_prime_small_values():
    primes = {2, 3, 5, 7, 11, 13, 7919}
    for n in range(-2, 30):
        assert is_prime(n) == (n in primes or n in {17, 19, 23, 29})


def test_is_prime_matches_sieve_below_10_5():
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 2)
    for f in range(2, int(n**0.5) + 1):
        if sieve[f]:
            sieve[f * f :: f] = bytes(len(range(f * f, n, f)))
    assert [is_prime(k) for k in range(n)] == [bool(x) for x in sieve]


def test_is_prime_large_values():
    # strong pseudoprimes to base 2, to bases 2..7 and to bases 2..31
    assert 2047 == 23 * 89
    assert 3215031751 == 151 * 751 * 28351
    assert 3825123056546413051 == 149491 * 747451 * 34233211
    for n in (2047, 3215031751, 3825123056546413051):
        assert not is_prime(n)
    assert is_prime(2**61 - 1)
    assert is_prime(10**16 + 61)
    # the largest prime below 2**64, so 2**64 - 57 is composite
    assert is_prime(2**64 - 59)
    assert not is_prime(2**64 - 57)
    with pytest.raises(ValueError):
        is_prime(318665857834031151167461)  # strong pseudoprime to 2..37


def test_modulus_limit():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert PrimeField(2**64 - 59).p == 2**64 - 59
    for big in (2**64, 2**64 + 13, 10**30):
        with pytest.raises(CompositeModulus, match=r"2\*\*64"):
            PrimeField(big)


def test_counting_field_tallies_each_call_once():
    f = OpCountingField(11)
    f.add(1, 2)
    f.neg(3)
    f.mul(4, 5)
    f.div(1, 3)
    f.div(7, 7)  # a division counts once, not as inverse plus product
    assert f.ops == 5
