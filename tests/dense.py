"""Seeded dense matrices for the tests: field samples, products, submatrices
and generic rank-r matrices.

No pipeline of the package calls this layer; the tests draw their data with
it.  sample draws a GF(p) element as rng.randrange(p) and a rational as a
fraction with a small numerator and denominator, which keeps exact
arithmetic cheap.  random_rank_r draws the generic data that completion
relies on, checking all C(m, r) projections of its column space.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

from detmatroid import (DEFAULT_PRIME, CapacityError, ContractError,
                        PrimeField, linalg)

_PROJECTION_CHECK_CEILING = 100_000
_RESAMPLE_ATTEMPTS = 200


def sample(field, rng: random.Random):
    """One element of field drawn from rng."""
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return Fraction(rng.randrange(-99, 100), rng.randrange(1, 20))


def random_matrix(rows: int, cols: int, field, rng) -> list[list]:
    return [[sample(field, rng) for _ in range(cols)] for _ in range(rows)]


def mat_mul(a: list[list], b: list[list], field) -> list[list]:
    if not a or not b:
        return [[] for _ in a]
    n = len(b)
    cols = len(b[0])
    bt = list(zip(*b))
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = field.zero
            for k in range(n):
                acc = field.reduce(acc + row[k] * col[k])
            out_row.append(acc)
        out.append(out_row)
    return out


def submatrix(a: list[list], row_idx, col_idx) -> list[list]:
    return [[a[i][j] for j in col_idx] for i in row_idx]


def random_rank_r(m: int, n: int, r: int, p: int = DEFAULT_PRIME,
                  seed: int = 0) -> list[list[int]]:
    """Random X = L*R of rank exactly r over GF(p), generic column space,
    as rows of residues in [0, p).

    Resamples until rank(X) = r and every projection of the column space onto
    r coordinates is full-rank (equivalently all r-row minors of L are
    nonzero), which completion relies on.  r = 0 gives the zero matrix.
    """
    if not 0 <= r <= min(m, n):
        raise ContractError("need 0 <= r <= min(m,n), got r=%d" % r)
    field = PrimeField(p)
    if r == 0:
        return [[0] * n for _ in range(m)]
    if p < 2 * r:
        raise ContractError("p=%d too small for rank %d sampling" % (p, r))
    if math.comb(m, r) > _PROJECTION_CHECK_CEILING:
        raise CapacityError("C(%d,%d) projection checks exceed the ceiling" % (m, r))
    rng = random.Random(seed)
    for _ in range(_RESAMPLE_ATTEMPTS):
        left = random_matrix(m, r, field, rng)
        ok = True
        for rows in combinations(range(m), r):
            if linalg.det(submatrix(left, rows, range(r)), field) == 0:
                ok = False
                break
        if not ok:
            continue
        right = random_matrix(r, n, field, rng)
        if linalg.rank(right, field) != r:
            continue
        return mat_mul(left, right, field)
    raise ContractError("could not sample a generic rank-%d matrix over GF(%d)"
                        % (r, p))
