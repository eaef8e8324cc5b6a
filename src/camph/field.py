"""Exact arithmetic in the prime field Z_p.

Field elements are plain ints kept in canonical form 0 <= x < p; the field
object carries the modulus and provides the arithmetic. A counting variant
tallies how many arithmetic calls a computation issued.
"""
from __future__ import annotations

from .errors import CompositeModulus, DivisionByZero


def is_prime(n: int) -> bool:
    """Deterministic trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    if n % 3 == 0:
        return n == 3
    f = 5
    while f * f <= n:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


class PrimeField:
    """The field Z_p for a prime modulus p.

    Immutable after construction; operations are pure and safe to share.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool) or not is_prime(p):
            raise CompositeModulus(f"{p!r} is not a prime modulus")
        self.p = p

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.p})"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        return self._inverse(a)

    def div(self, a: int, b: int) -> int:
        return a * self._inverse(b) % self.p

    def charge(self, ops: int) -> None:
        """Account for ``ops`` operations a caller did inline; counted only
        by OpCountingField."""

    def _inverse(self, a: int) -> int:
        # extended Euclid: uniform for every prime, no pow() tricks
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in Z_{self.p}")
        t, new_t = 0, 1
        r, new_r = self.p, a
        while new_r:
            q = r // new_r
            t, new_t = new_t, t - q * new_t
            r, new_r = new_r, r - q * new_r
        return t % self.p


class OpCountingField(PrimeField):
    """PrimeField that counts arithmetic calls.

    Every invocation of add/neg/mul/inv/div increments ``ops`` by one,
    regardless of the internal work performed (a division counts once,
    not as inverse-plus-multiply).
    """

    __slots__ = ("ops",)

    def __init__(self, p: int):
        super().__init__(p)
        self.ops = 0

    def charge(self, ops: int) -> None:
        self.ops += ops

    def add(self, a: int, b: int) -> int:
        self.ops += 1
        return (a + b) % self.p

    def neg(self, a: int) -> int:
        self.ops += 1
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        self.ops += 1
        return a * b % self.p

    def inv(self, a: int) -> int:
        self.ops += 1
        return self._inverse(a)

    def div(self, a: int, b: int) -> int:
        self.ops += 1
        return a * self._inverse(b) % self.p
