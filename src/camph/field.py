"""The prime field Z_p: a checked modulus and an operation count.

Field elements are plain ints kept in canonical form 0 <= x < p. Callers
do their arithmetic inline with the modulus ``p`` and report it through
``charge``, which a counting variant tallies.
"""
from __future__ import annotations

from .errors import CompositeModulus

# Miller-Rabin with the first twelve primes as bases is exact for every n
# below _PSI_12, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PSI_12 = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError for n >= _PSI_12."""
    if n >= _PSI_12:
        raise ValueError(f"{n} is too large to test exactly (limit {_PSI_12})")
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field Z_p for a prime modulus p; immutable after construction."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if isinstance(p, bool) or not isinstance(p, int) or not p < 2**64:
            raise CompositeModulus(f"{p!r} is not a prime modulus below 2**64")
        if not is_prime(p):
            raise CompositeModulus(f"{p!r} is not a prime modulus")
        self.p = p

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.p})"

    def charge(self, ops: int) -> None:
        """Account for ``ops`` operations a caller did inline; counted only
        by OpCountingField."""


class OpCountingField(PrimeField):
    """PrimeField that adds every charged operation to ``ops``."""

    __slots__ = ("ops",)

    def __init__(self, p: int):
        super().__init__(p)
        self.ops = 0

    def charge(self, ops: int) -> None:
        self.ops += ops
