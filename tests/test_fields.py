"""Field arithmetic and primality helpers."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dense import sample
from detmatroid import DEFAULT_PRIME, ContractError, PrimeField, Rationals, prev_prime
from detmatroid.fields import is_probable_prime


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_default_prime_is_mersenne31():
    assert DEFAULT_PRIME == 2 ** 31 - 1
    assert _is_prime_trial(DEFAULT_PRIME)


def test_probable_prime_matches_trial_division_small():
    for n in range(-3, 2000):
        assert is_probable_prime(n) == _is_prime_trial(n)


def test_probable_prime_rejects_carmichael_numbers():
    for n in (561, 1105, 1729, 2465, 2821, 6601):
        assert not is_probable_prime(n)


def test_prev_prime_chain_below_default():
    p1 = prev_prime(DEFAULT_PRIME)
    p2 = prev_prime(p1)
    assert p1 == 2147483629 and p2 == 2147483587
    assert _is_prime_trial(p1) and _is_prime_trial(p2)
    # no prime hides in the gaps
    assert all(not _is_prime_trial(k) for k in range(p1 + 1, DEFAULT_PRIME))
    assert all(not _is_prime_trial(k) for k in range(p2 + 1, p1))


def test_prime_field_requires_prime_modulus():
    # twice: the primality test is memoised, and the refusal must not be
    for _ in range(2):
        with pytest.raises(ContractError):
            PrimeField(10)
        with pytest.raises(ContractError):
            PrimeField(1)


def test_prime_field_arithmetic_axioms():
    f = PrimeField(97)
    rng = random.Random(1)
    for _ in range(200):
        a, b, c = sample(f, rng), sample(f, rng), sample(f, rng)
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
        assert f.add(a, f.neg(a)) == f.zero
    for a in range(1, 97):
        assert f.mul(a, f.inv(a)) == f.one


def test_prime_field_of_reduces_any_integer():
    f = PrimeField(13)
    assert f.parse("-1") == 12
    assert f.parse("26") == 0
    assert f.parse(str(7)) == 7


def test_rationals_round_trip_and_inverse():
    q = Rationals()
    rng = random.Random(2)
    assert q.parse("3/4") == Fraction(3, 4)
    assert q.parse("-2") == Fraction(-2)
    for _ in range(100):
        a = sample(q, rng)
        if a == 0:
            continue
        assert q.mul(a, q.inv(a)) == q.one
        assert q.parse(str(a)) == a


@pytest.mark.parametrize("field",
                         [PrimeField(7), PrimeField(DEFAULT_PRIME), Rationals()],
                         ids=["gf7", "gf2^31-1", "rationals"])
def test_sub_scaled_matches_elementwise_update(field):
    rng = random.Random(3)
    for length in range(6):
        for start in range(length + 1):
            x = [sample(field, rng) for _ in range(length)]
            y = [sample(field, rng) if rng.random() < 0.6 else field.zero
                 for _ in range(length)]
            f = sample(field, rng)
            expected = x[:start] + [field.add(a, field.neg(field.mul(f, b)))
                                    for a, b in zip(x[start:], y[start:])]
            before = list(y)
            got = list(x)
            assert field.sub_scaled(got, f, y, start) is None
            assert got == expected
            assert all(type(a) is type(b) for a, b in zip(got, expected))
            assert y == before
