"""Dense exact linear algebra over a coefficient field.

Matrices are lists of row lists of field elements (over GF(p), reduced
residues).  Everything is plain Gaussian elimination; matrices here are
desk-scale (tens of rows), so no pivoting strategy beyond "first nonzero" is
needed and arithmetic stays exact.  rref, det, solve_unique, right_kernel and
rank share one element-wise core, _eliminate.  The rank oracle runs on the
packed GF(p) kernel, _eliminate_mod_p: one int per row.
"""

from __future__ import annotations


def random_matrix(rows: int, cols: int, field, rng) -> list[list]:
    return [[field.rand(rng) for _ in range(cols)] for _ in range(rows)]


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
                acc = field.add(acc, field.mul(row[k], col[k]))
            out_row.append(acc)
        out.append(out_row)
    return out


def mat_vec(a: list[list], x: list, field) -> list:
    out = []
    for row in a:
        acc = field.zero
        for v, c in zip(row, x):
            acc = field.add(acc, field.mul(v, c))
        out.append(acc)
    return out


def _eliminate(a: list[list], field) -> tuple[list[list], list[int], int, list]:
    """Forward elimination on a working copy.

    Returns (echelon matrix, pivot columns, row swaps, pivot inverses): row k
    holds the k-th pivot at column pivots[k], with zeros below it and inverse
    inverses[k]; rows past the last pivot are zero.
    """
    m = [list(row) for row in a]
    if not m:
        return m, [], 0, []
    rows, cols = len(m), len(m[0])
    zero = field.zero
    pivots = []
    inverses = []
    swaps = 0
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if m[i][c] != zero:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            swaps += 1
        inv = field.inv(m[r][c])
        prow = m[r]
        for i in range(r + 1, rows):
            f = m[i][c]
            if f != zero:
                field.sub_scaled(m[i], field.mul(f, inv), prow, c)
        pivots.append(c)
        inverses.append(inv)
        r += 1
        if r == rows:
            break
    return m, pivots, swaps, inverses


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
    """Rank of a, by forward elimination on a working copy."""
    return len(_eliminate(a, field)[1])


def rref(a: list[list], field) -> tuple[list[list], list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column indices)."""
    m, pivots, _, inverses = _eliminate(a, field)
    zero = field.zero
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        # later rows changed row k only right of column c: inverse still holds
        m[k] = prow = [field.mul(inverses[k], v) for v in m[k]]
        for i in range(k):
            f = m[i][c]
            if f != zero:
                field.sub_scaled(m[i], f, prow, c)
    return m, pivots


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
            v[pc] = field.neg(red[r][fc]) if red else field.zero
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
    """Determinant by elimination with row-swap sign tracking; det([]) = 1."""
    m, pivots, swaps, _ = _eliminate(a, field)
    if len(pivots) < len(a):
        return field.zero
    acc = field.one
    for k in range(len(a)):
        acc = field.mul(acc, m[k][k])
    return field.neg(acc) if swaps % 2 else acc


def submatrix(a: list[list], row_idx, col_idx) -> list[list]:
    return [[a[i][j] for j in col_idx] for i in row_idx]
