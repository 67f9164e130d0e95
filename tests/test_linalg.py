"""Exact linear algebra over a field protocol."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from detmatroid import PrimeField, Rationals
from detmatroid.linalg import (det, mat_mul, mat_transpose, mat_vec, rank,
                               right_kernel, rref, solve_unique, submatrix)


def _det_leibniz(a, field):
    n = len(a)
    acc = field.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = field.one
        for i in range(n):
            term = field.mul(term, a[i][perm[i]])
        acc = field.add(acc, term if sign > 0 else field.neg(term))
    return acc


def _rank_brute(a, field):
    rows, cols = len(a), len(a[0]) if a else 0
    for k in range(min(rows, cols), 0, -1):
        for ri in itertools.combinations(range(rows), k):
            for ci in itertools.combinations(range(cols), k):
                sub = [[a[i][j] for j in ci] for i in ri]
                if _det_leibniz(sub, field) != field.zero:
                    return k
    return 0


def _random_matrix(rows, cols, field, rng):
    return [[field.rand(rng) for _ in range(cols)] for _ in range(rows)]


def test_rank_matches_brute_force():
    rng = random.Random(3)
    for field in (PrimeField(7), Rationals()):
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = _random_matrix(rows, cols, field, rng)
            assert rank([row[:] for row in a], field) == _rank_brute(a, field)


def test_det_matches_leibniz_and_rules():
    rng = random.Random(4)
    f = PrimeField(101)
    for field in (f, Rationals()):
        for n in range(1, 5):
            for _ in range(20):
                a = _random_matrix(n, n, field, rng)
                assert det([r[:] for r in a], field) == _det_leibniz(a, field)
            # rank-deficient L*R: elimination runs out of pivots
            for k in range(1, n):
                a = mat_mul(_random_matrix(n, k, field, rng),
                            _random_matrix(k, n, field, rng), field)
                assert _det_leibniz(a, field) == field.zero
                assert det([r[:] for r in a], field) == field.zero
    a = _random_matrix(3, 3, f, rng)
    b = _random_matrix(3, 3, f, rng)
    assert det(mat_mul(a, b, f), f) == f.mul(det([r[:] for r in a], f),
                                             det([r[:] for r in b], f))
    assert det([], f) == f.one
    assert det([[f.one if i == j else f.zero for j in range(4)]
                for i in range(4)], f) == f.one
    swapped = [a[1][:], a[0][:], a[2][:]]
    assert det(swapped, f) == f.neg(det([r[:] for r in a], f))


def test_rref_pivots_are_unit_columns():
    rng = random.Random(5)
    for f in (PrimeField(11), Rationals()):
        for _ in range(40):
            a = _random_matrix(rng.randint(1, 5), rng.randint(1, 5), f, rng)
            red, pivots = rref([r[:] for r in a], f)
            for k, pc in enumerate(pivots):
                col = [red[i][pc] for i in range(len(red))]
                assert col[k] == f.one
                assert all(v == f.zero for i, v in enumerate(col) if i != k)
            assert len(pivots) == rank([r[:] for r in a], f)
            assert rref([r[:] for r in red], f) == (red, pivots)
            assert rank(a + red, f) == len(pivots)


def test_right_kernel_annihilates_and_spans():
    rng = random.Random(6)
    for field in (PrimeField(13), Rationals()):
        for _ in range(40):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            a = _random_matrix(rows, cols, field, rng)
            basis = right_kernel([r[:] for r in a], cols, field)
            r = rank([r[:] for r in a], field)
            assert len(basis) == cols - r
            for v in basis:
                assert all(x == field.zero for x in mat_vec(a, v, field))
            if basis:
                assert rank([v[:] for v in basis], field) == len(basis)


def test_solve_unique_square_and_degenerate_cases():
    rng = random.Random(7)
    f = Rationals()
    for _ in range(30):
        n = rng.randint(1, 4)
        a = _random_matrix(n, n, f, rng)
        if rank([r[:] for r in a], f) < n:
            continue
        x = [f.rand(rng) for _ in range(n)]
        b = mat_vec(a, x, f)
        assert solve_unique([r[:] for r in a], b[:], f) == x
    # underdetermined: one equation, two unknowns
    assert solve_unique([[Fraction(1), Fraction(1)]], [Fraction(2)], f) is None
    # inconsistent
    assert solve_unique([[Fraction(1)], [Fraction(1)]],
                        [Fraction(1), Fraction(2)], f) is None


def test_matrix_helpers():
    f = PrimeField(5)
    a = [[1, 2, 3], [4, 0, 1]]
    assert mat_transpose(a) == [[1, 4], [2, 0], [3, 1]]
    assert submatrix(a, [1], [0, 2]) == [[4, 1]]
    assert mat_vec(a, [1, 1, 1], f) == [(1 + 2 + 3) % 5, (4 + 0 + 1) % 5]
