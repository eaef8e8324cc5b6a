import pytest

from camph import PrimeField, is_prime
from camph.errors import CompositeModulus
from camph.field import OpCountingField


def test_prime_moduli_accepted():
    assert PrimeField(2).p == 2
    assert PrimeField(11).p == 11
    assert PrimeField(7919).p == 7919


@pytest.mark.parametrize("bad", [4, 1, 0, -7, 9, 393, 10**6])
def test_composite_moduli_rejected(bad):
    with pytest.raises(CompositeModulus):
        PrimeField(bad)


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
    # callers do Z_p arithmetic inline and charge it; each charge counts once
    f = OpCountingField(11)
    assert f.ops == 0
    f.charge(2)
    f.charge(3)
    f.charge(0)
    assert f.ops == 5
    assert OpCountingField(11).ops == 0  # a fresh counter per field
    plain = PrimeField(11)
    plain.charge(4)  # a plain field keeps no count
    assert not hasattr(plain, "ops")
