"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements (over GF(p), reduced
residues).  Everything is one Gauss–Jordan pass, _eliminate, under rref,
det, rank, solve_unique and right_kernel; matrices here are desk-scale (tens
of rows), so no pivoting strategy beyond "first nonzero" is needed and
arithmetic stays exact.  The rank oracle runs on the packed GF(p) kernel,
_eliminate_mod_p: one int per row.
"""

from __future__ import annotations

from operator import mul


def mat_vec(a: list[list], x: list, field) -> list:
    return [field.reduce(sum(map(mul, row, x))) for row in a]


def _eliminate(a: list[list], field) -> tuple[list[list], list[int], object]:
    """Gauss–Jordan elimination on a working copy.

    Returns (reduced row echelon form, pivot columns, determinant): row k
    holds a 1 at column pivots[k] and column pivots[k] is 0 in every other
    row; rows past the last pivot are zero.  The determinant is that of a
    when a is square, zero as soon as a column has no pivot.
    """
    m = [list(row) for row in a]
    zero, reduce = field.zero, field.reduce
    pivots = []
    d = field.one
    r = 0
    for c in range(len(m[0]) if m else 0):
        for i in range(r, len(m)):
            if m[i][c] != zero:
                break
        else:
            d = zero
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            d = reduce(-d)
        pv = m[r][c]
        d = reduce(d * pv)
        inv = field.inv(pv)
        m[r] = prow = [reduce(v * inv) for v in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f != zero and i != r:
                field.sub_scaled(row, f, prow, c)
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots, d


def _eliminate_mod_p(rows: list[int], limit: int, p: int,
                     w: int) -> tuple[list[int], list[int]]:
    """Eliminate the first limit w-bit slots of packed rows over GF(p);
    returns (pivot slots, surviving rows shifted right by w*limit).

    Slot k of a row sits at bit w*k, not necessarily reduced mod p.  For
    each slot, the first row whose lead f = slot 0 mod p is nonzero is the
    pivot: reduced slot by slot, scaled to lead -1.  Every later row with a
    nonzero lead gains f * pivot; then all rows shift right by w and rows
    that reach 0 go.  Nothing is subtracted, so no slot borrows, and a row
    entering below B per slot leaves below B + limit * p^2 < 2^(w-1) (the
    caller's choice of w), so none carries."""
    mask = (1 << w) - 1
    pivots = []
    for s in range(limit):
        pivot = 0
        rest = []
        for x in rows:
            f = (x & mask) % p
            if f:
                if not pivot:
                    neg_inv = p - pow(f, -1, p)
                    shift = 0
                    while x:
                        pivot |= (x & mask) * neg_inv % p << shift
                        x >>= w
                        shift += w
                    pivots.append(s)
                    continue
                x += f * pivot
            x >>= w
            if x:
                rest.append(x)
        rows = rest
    return pivots, rows


def _slot_width(p: int, terms: int) -> int:
    """Slot width for rows whose slots each gather at most terms products
    of two residues below p: every slot stays below (terms + 1) * p^2, and
    w = 2*bitlen(p) + bitlen(terms) + 1 keeps that under 2^(w-1)."""
    return 2 * p.bit_length() + terms.bit_length() + 1


def rank(a: list[list], field) -> int:
    """Rank of a."""
    return len(_eliminate(a, field)[1])


def rref(a: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    return _eliminate(a, field)[:2]


def right_kernel(a: list[list], cols: int, field) -> list[list]:
    """Basis of {x : a·x = 0}, one vector per free column, deterministic."""
    red, pivots = rref(a, field)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for fc in free:
        v = [field.zero] * cols
        v[fc] = field.one
        for r, pc in enumerate(pivots):
            v[pc] = field.reduce(-red[r][fc])
        basis.append(v)
    return basis


def solve_unique(a: list[list], b: list, field) -> list | None:
    """The unique x with a·x = b, or None (inconsistent or underdetermined)."""
    if not a:
        return None
    cols = len(a[0])
    aug = [list(row) + [bb] for row, bb in zip(a, b)]
    red, pivots = rref(aug, field)
    # inconsistent: pivot in the augmented column
    if cols in pivots:
        return None
    if len(pivots) < cols:
        return None
    x = [field.zero] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x


def det(a: list[list], field):
    """Determinant of a square matrix; det([]) = 1."""
    return _eliminate(a, field)[2]
