"""Exact coefficient fields: prime fields GF(p) and the rationals.

Both back ends expose the same small protocol (zero/one constants, arithmetic,
the elimination row update sub_scaled, inverse, random sampling, parsing) so
the linear algebra and completion code is generic.  GF(p) elements are plain
ints in [0, p); rational elements are fractions.Fraction.  Floating point is
deliberately not offered.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache

from .errors import ContractError

DEFAULT_PRIME = 2147483647  # 2^31 - 1, Mersenne

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=256)
def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n < 3.3e24 with the fixed base set.

    Memoised: the oracle builds a PrimeField for every Jacobian trial."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prev_prime(n: int) -> int:
    """Largest prime strictly below n."""
    if n <= 2:
        raise ContractError("no prime below %d" % n)
    k = n - 1 if (n - 1) % 2 else n - 2
    if k <= 2:
        return 2
    while not is_probable_prime(k):
        k -= 2
        if k < 2:
            raise ContractError("no prime below %d" % n)
    return k


class PrimeField:
    """GF(p) with elements represented as ints in [0, p)."""

    def __init__(self, p: int = DEFAULT_PRIME):
        if not is_probable_prime(p):
            raise ContractError("modulus %d is not prime" % p)
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, a: int) -> int:
        return a % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def sub_scaled(self, x: list, f, y: list, start: int) -> None:
        """x[j] -= f*y[j] for j >= start, in place (the elimination row update);
        zeros of y are skipped."""
        p = self.p
        for j in range(start, len(x)):
            b = y[j]
            if b:
                x[j] = (x[j] - f * b) % p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of 0 in GF(%d)" % self.p)
        return pow(a, -1, self.p)

    def rand(self, rng: random.Random):
        return rng.randrange(self.p)

    def parse(self, text: str):
        try:
            return int(text, 10) % self.p
        except ValueError:
            raise ContractError("not a GF(p) integer literal: %r" % text) from None

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "PrimeField(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


class Rationals:
    """Exact rational arithmetic via fractions.Fraction."""

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, a) -> Fraction:
        return Fraction(a)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def sub_scaled(self, x: list, f, y: list, start: int) -> None:
        """x[j] -= f*y[j] for j >= start, in place; zeros of y are skipped."""
        for j in range(start, len(x)):
            b = y[j]
            if b:
                x[j] -= f * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def rand(self, rng: random.Random) -> Fraction:
        # small numerators/denominators keep exact arithmetic cheap
        return Fraction(rng.randrange(-99, 100), rng.randrange(1, 20))

    def parse(self, text: str) -> Fraction:
        try:
            return Fraction(text.strip())
        except (ValueError, ZeroDivisionError):
            raise ContractError("not a rational literal: %r" % text) from None

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "Rationals()"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Rationals")
