"""Exact linear algebra over a field protocol."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from conftest import mat_transpose
from dense import mat_mul, random_matrix, sample, submatrix
from detmatroid import DEFAULT_PRIME, PrimeField, Rationals
from detmatroid.linalg import (_eliminate, _eliminate_mod_p, det, mat_vec,
                               rank, right_kernel, rref, solve_unique)


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
            term = field.reduce(term * a[i][perm[i]])
        acc = field.reduce(acc + term if sign > 0 else acc - term)
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


def test_rank_matches_brute_force():
    rng = random.Random(3)
    for field in (PrimeField(7), Rationals(), PrimeField(2), PrimeField(3)):
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_matrix(rows, cols, field, rng)
            copy = [row[:] for row in a]
            assert rank(a, field) == _rank_brute(a, field)
            assert a == copy
        assert rank([], field) == rank([[]], field) == 0


def _pack(row, p, w):
    """One int holding row[j] mod p in the w-bit slot at bit w*j."""
    return sum(v % p << w * j for j, v in enumerate(row) if v)


def _int_matrix(rows, cols, p, rng, k=None):
    """Ints whose residues mod p have rank at most k: a product L*R (k drawn
    when not given), or with k absent half the time a random matrix; then
    zeroed and repeated rows, and entries moved by multiples of p, so that
    some are negative and some are at least p."""
    if k is None and rng.random() < 0.5:
        a = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    else:
        if k is None:
            k = rng.randint(0, min(rows, cols))
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        a = [[sum(left[i][t] * right[t][j] for t in range(k))
              for j in range(cols)] for i in range(rows)]
    for i in range(rows):
        u = rng.random()
        if u < 0.15:
            a[i] = [0] * cols
        elif u < 0.3 and i:
            a[i] = list(a[rng.randrange(i)])
    return [[v + p * rng.randint(-3, 3) if rng.random() < 0.3 else v
             for v in row] for row in a]


def test_partial_packed_kernel_matches_elimination_core():
    # the kernel stopped after `limit` slots: its pivot slots are the rref
    # pivots below limit, its survivors are rows of the row space that are
    # zero on those slots and hold the rest of its rank, and fed back in
    # unreduced, as the oracle does, they finish the rank
    p = DEFAULT_PRIME
    rng = random.Random(11)
    cases = [(_int_matrix(rows, cols, q, rng), q)
             for q in (2, 3, 7, 65521, p)
             for rows in range(1, 10) for cols in range(1, 10)]
    # at the slot bound: row k is -1-j before slot k and 1-k from it, so
    # row s is the pivot of slot s, scaled to all -1, and every later row
    # leads with -1 there and gains (p-1)^2 in each slot; row 62 ends near
    # 62 p^2, 97% of 2^(w-1) at 63 columns.  Copies of the last rows repeat
    worst = [[(p - 1 - j if j < k else 1 - k) % p for j in range(63)]
             for k in range(63)]
    worst += [row[:] for row in worst[55:]]
    # slot overflow on entries near p: 60 independent rows plus copies of
    # the last ten, each of which must still end at 0 mod p, while a carry
    # out of a slot would leave it independent; then a tall and a wide
    # product of known rank
    near_p = [[rng.choice((p - 2, p - 1)) for _ in range(70)] for _ in range(60)]
    near_p += [row[:] for row in near_p[50:]]
    cases += [(worst, p), (_int_matrix(60, 30, p, rng, k=25), p), (near_p, p),
              (_int_matrix(200, 40, p, rng, k=40), p),
              (_int_matrix(40, 200, p, rng, k=31), p)]
    split, peak, ranks = 0, 0, []
    for a, q in cases:
        field = PrimeField(q)
        cols = len(a[0])
        w = 2 * q.bit_length() + cols.bit_length() + 1
        mask = (1 << w) - 1
        reduced = [[v % q for v in row] for row in a]
        full = rref(reduced, field)[1]
        ranks.append(len(full))
        rows = [_pack(row, q, w) for row in a]
        for limit in {1, rng.randint(1, cols), max(1, cols // 2),
                      max(1, cols - 1), cols}:
            pivots, rest = _eliminate_mod_p(rows, limit, q, w)
            assert pivots == [c for c in full if c < limit], (a, q, limit)
            tail = cols - limit
            slots = [[x >> w * j & mask for j in range(tail)] for x in rest]
            # each row entered below q and took at most limit updates
            assert all(0 < x < 1 << w * tail for x in rest)
            assert all(v < q + limit * q * q for row in slots for v in row)
            peak = max([peak] + [v / 2 ** (w - 1) for row in slots for v in row])
            lifted = [[0] * limit + [v % q for v in row] for row in slots]
            assert len(_eliminate(reduced + lifted, field)[1]) == len(full)
            assert len(pivots) + len(_eliminate(lifted, field)[1]) == len(full)
            again = _eliminate_mod_p(rest, tail, q, w)
            assert len(pivots) + len(again[0]) == len(full)
            assert again[1] == []
            split += 0 < len(pivots) and 0 < len(again[0])
    assert split > 100 and peak > 0.95
    near_p_rank, tall, wide = ranks[-3:]
    assert near_p_rank == 60 and tall == 40 and 0 < wide <= 31


def test_det_matches_leibniz_and_rules():
    rng = random.Random(4)
    f = PrimeField(101)
    # at p = 2 and 3 zero pivots and row swaps are common, which exercises
    # the sign the single pass carries
    for field in (f, Rationals(), PrimeField(2), PrimeField(3)):
        for n in range(1, 5):
            for _ in range(20):
                a = random_matrix(n, n, field, rng)
                assert det([r[:] for r in a], field) == _det_leibniz(a, field)
            # rank-deficient L*R: elimination runs out of pivots
            for k in range(1, n):
                a = mat_mul(random_matrix(n, k, field, rng),
                            random_matrix(k, n, field, rng), field)
                assert _det_leibniz(a, field) == field.zero
                assert det([r[:] for r in a], field) == field.zero
    a = random_matrix(3, 3, f, rng)
    b = random_matrix(3, 3, f, rng)
    assert det(mat_mul(a, b, f), f) == f.reduce(det([r[:] for r in a], f)
                                                * det([r[:] for r in b], f))
    assert det([], f) == f.one
    assert det([[f.one if i == j else f.zero for j in range(4)]
                for i in range(4)], f) == f.one
    swapped = [a[1][:], a[0][:], a[2][:]]
    assert det(swapped, f) == f.reduce(-det([r[:] for r in a], f))


def test_rref_pivots_are_unit_columns():
    rng = random.Random(5)
    for f in (PrimeField(11), Rationals(), PrimeField(2), PrimeField(3)):
        for _ in range(40):
            a = random_matrix(rng.randint(1, 5), rng.randint(1, 5), f, rng)
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
            a = random_matrix(rows, cols, field, rng)
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
        a = random_matrix(n, n, f, rng)
        if rank([r[:] for r in a], f) < n:
            continue
        x = [sample(f, rng) for _ in range(n)]
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
