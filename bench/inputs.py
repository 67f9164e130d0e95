"""Seeded input generation for the benchmark, standard library only.

Nothing here calls detmatroid: patterns are lists of column bitmasks (bit i-1
is row i) and truth matrices are lists of rows over GF(p).  Keeping the
generators out of the library means a library change cannot change what is
measured.
"""

from __future__ import annotations

import random

PRIME = 2147483647  # 2^31 - 1, the library's default field

# The 6x5 rank-2 pattern of the README (`omega.txt`), 1-based row supports.
OMEGA_COLUMNS = [[1, 2, 3, 4, 5], [4, 5, 6], [2, 4], [1, 2, 4, 5, 6], [1, 3, 5]]


def stream(seed: int, label: str) -> random.Random:
    """An independent random stream per (seed, purpose)."""
    return random.Random("%d:%s" % (seed, label))


def composition(rng: random.Random, parts: int, total: int, lo: int,
                hi: int) -> list[int]:
    """Random sizes lo <= s <= hi for `parts` columns, summing to total."""
    if not parts * lo <= total <= parts * hi:
        raise ValueError("no composition of %d into %d parts in [%d, %d]"
                         % (total, parts, lo, hi))
    sizes = [lo] * parts
    open_parts = [j for j in range(parts) if sizes[j] < hi]
    for _ in range(total - parts * lo):
        k = rng.randrange(len(open_parts))
        j = open_parts[k]
        sizes[j] += 1
        if sizes[j] == hi:
            open_parts[k] = open_parts[-1]
            open_parts.pop()
    return sizes


def _mask(rows) -> int:
    out = 0
    for i in rows:
        out |= 1 << i
    return out


def row_degrees(m: int, cols: list[int]) -> list[int]:
    return [sum((c >> i) & 1 for c in cols) for i in range(m)]


def base_size_pattern(rng: random.Random, m: int, n: int, r: int,
                      col_min: int, row_min: int) -> list[int]:
    """Random support of size r(m+n-r) with column sizes >= col_min and row
    degrees >= row_min: a column-size composition and uniform supports, then
    cells moved into rows below row_min, each from a row above it within
    one column, so column sizes stay as drawn."""
    total = r * (m + n - r)
    if total < m * row_min:
        raise ValueError("%d cells cannot give %d rows degree %d" % (total, m, row_min))
    sizes = composition(rng, n, total, col_min, m)
    cols = [_mask(rng.sample(range(m), s)) for s in sizes]
    degs = row_degrees(m, cols)
    while True:
        low = [i for i in range(m) if degs[i] < row_min]
        if not low:
            return cols
        i = rng.choice(low)
        moves = [(j, k) for j, c in enumerate(cols) if not (c >> i) & 1
                 for k in range(m) if (c >> k) & 1 and degs[k] > row_min]
        j, k = rng.choice(moves)
        cols[j] ^= (1 << k) | (1 << i)
        degs[k] -= 1
        degs[i] += 1


def deficient_row_pattern(rng: random.Random, m: int, n: int, r: int,
                          col_min: int) -> list[int]:
    """Random support of size r(m+n-r) in which one row meets only r-1
    columns.  That row's r parameters are then underdetermined, so the
    pattern is not a base for rank r, whatever the rest looks like."""
    total = r * (m + n - r)
    while True:
        weak = rng.randrange(m)
        others = [i for i in range(m) if i != weak]
        sizes = composition(rng, n, total, col_min, m - 1)
        touching = set(rng.sample(range(n), r - 1))
        cols = []
        for j, s in enumerate(sizes):
            if j in touching:
                cols.append(_mask([weak] + rng.sample(others, s - 1)))
            else:
                cols.append(_mask(rng.sample(others, s)))
        degs = row_degrees(m, cols)
        if degs[weak] == r - 1 and min(d for i, d in enumerate(degs)
                                       if i != weak) >= r:
            return cols


def full_columns_pattern(rng: random.Random, m: int, n: int,
                         r: int) -> tuple[list[int], list[int]]:
    """r fully observed columns and r random cells in every other column.

    Size m*r + (n-r)*r = r(m+n-r).  Returns (columns, 1-based indices of the
    full columns)."""
    full_idx = sorted(rng.sample(range(n), r))
    full = (1 << m) - 1
    cols = [full if j in full_idx else _mask(rng.sample(range(m), r))
            for j in range(n)]
    return cols, [j + 1 for j in full_idx]


def rank_r_truth(rng: random.Random, m: int, n: int, r: int,
                 p: int = PRIME) -> list[list[int]]:
    """X = L*R mod p for uniform L (m x r) and R (r x n)."""
    left = [[rng.randrange(p) for _ in range(r)] for _ in range(m)]
    right = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    return [[sum(left[i][k] * right[k][j] for k in range(r)) % p
             for j in range(n)] for i in range(m)]


def indicator_text(m: int, cols: list[int]) -> str:
    """The indicator-grid pattern file format: one 0/1 row per matrix row."""
    return "".join(" ".join("1" if (c >> i) & 1 else "0" for c in cols) + "\n"
                   for i in range(m))


def observations_text(cols: list[int], truth: list[list[int]]) -> str:
    """CSV lines i,j,value for every observed cell, 1-based."""
    lines = []
    for i, row in enumerate(truth):
        for j, c in enumerate(cols):
            if (c >> i) & 1:
                lines.append("%d,%d,%d\n" % (i + 1, j + 1, row[j]))
    return "".join(lines)
