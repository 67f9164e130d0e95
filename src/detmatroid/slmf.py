"""Linkage matching field supports and their relaxed counting condition.

A column system Phi with m-r columns of size r+1 is an (r,m)-SLMF when every
nonempty set of k columns covers at least k+r rows.  The relaxed version
applies to arbitrary patterns: Omega is a relaxed (nu,r,m)-SLMF when for every
row subset I with at least r+1 rows

    sum_j max(#(omega_j & I) - r, 0)  <=  nu * (#I - r),

with equality at I = [m].

The covering condition is decided by bipartite matching with surplus: it
holds iff every column, copied r+1 times, matches with the other columns into
distinct rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from .errors import CapacityError, ContractError
from .patterns import Slmf, SupportPattern, _row_masks, _rows_of

RELAXED_SCAN_CEILING = 24


@dataclass(frozen=True)
class RelaxedParams:
    """Parameters of a relaxed SLMF check: nu and r as in the counting
    condition."""

    nu: int
    r: int

    def __post_init__(self):
        for name in ("r", "nu"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ContractError("%s must be a positive integer" % name)
        if self.nu > self.r:
            raise ContractError("nu must satisfy 1 <= nu <= r, got nu=%d r=%d"
                                % (self.nu, self.r))


@dataclass(frozen=True)
class ViolationWitness:
    """A failed instance of the relaxed counting condition.

    subset_rows is the offending row set I; lhs/rhs the two sides of the
    comparison; kind is 'inequality_violated' for a strict violation or
    'equality_failed_at_full_set' when the sum at I=[m] falls short.
    """

    subset_rows: tuple[int, ...]
    lhs: int
    rhs: int
    kind: str

    def as_dict(self) -> dict:
        return {
            "I": list(self.subset_rows),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "kind": self.kind,
        }


def _unions_cover_excess(excess_cols: list[tuple[int, int]], r: int,
                         union: int = 0, esum: int = 0) -> bool:
    """True when every nonempty set S of (mask, excess) columns, joined to
    the start column (union, esum), has sum of excesses <= #(union) - r.

    Depth-first, each S reached once as the extension of S minus its last
    column, so memory stays quadratic in the column count.  The slack-1
    route of is_relaxed_slmf starts from no column, partition_search from
    the column it places (which alone passes: its excess is its size less r).
    """
    n = len(excess_cols)
    stack = [(union, esum, 0)]
    while stack:
        union, esum, t = stack.pop()
        for mask, e in excess_cols[t:]:
            t += 1
            u, s = union | mask, esum + e
            if s > u.bit_count() - r:
                return False
            if t < n:
                stack.append((u, s, t))
    return True


def _first_violation(masks, m: int, r: int, nu: int):
    """The first row set I of [m] with #I > r and

        sum_j max(#(masks_j & I) - r, 0)  >  nu * (#I - r),

    in order of size and then of combinations, as (0-based rows, lhs, rhs);
    None when no such row set exists.  Needs m <= RELAXED_SCAN_CEILING and
    r < RELAXED_SCAN_CEILING.

    Each size is a depth-first walk over row prefixes in combinations order.
    Each column's count #(masks_j & I) sits in a w-bit field of one integer,
    biased so that the field's top bit is set exactly when the count reaches
    r; the left side is then a mask-and-multiply followed by a digit sum mod
    2^w - 1.  A prefix P that still needs q rows from the rows s..m-1 is
    pruned when the left side at the capped counts c_j(P) + min(q, a_j)
    stays within the bound, a_j being column j's count in those rows.  That
    is sound: every completion adds at most min(q, a_j) rows to column j,
    and the left side never falls when a count rises.  The a_j come from a
    packed suffix sum, and min(q, a_j) is a_j less the low bits of a_j +
    2^(w-1) - q wherever that field's top bit is set; as a_j <= m < 2^(w-1)
    this add neither borrows nor carries across fields, and c_j(P) + a_j <=
    #omega_j keeps the capped sum in its field.  At q = 1 this subsumes
    skipping a head whose columns holding r rows would each gain one: only
    the columns with a row left can gain.  The full row set needs no scan:
    its left side is the total excess.
    """
    total = sum(max(c.bit_count() - r, 0) for c in masks)
    # 2^(w-1) exceeds m, every field's excess and their sum, and the bias
    # 2^(w-1) - r stays nonnegative since m and r stay below 32
    w = max(6, total.bit_length() + 1)
    half = 1 << (w - 1)
    fold, low = (1 << w) - 1, half - 1
    ones = 0
    row_vecs = [0] * m
    for j, cmask in enumerate(masks):
        ones |= 1 << (w * j)
        for i in _rows_of(cmask):
            row_vecs[i - 1] += 1 << (w * j)
    high, bias = half * ones, (half - r) * ones
    # suffix[s] holds each column's count a_j in the rows s..m-1
    suffix = list(accumulate(reversed(row_vecs), initial=0))[::-1]

    for k in range(r + 1, m):
        rhs = nu * (k - r)
        stack = [((), bias, 0)]
        while stack:
            head, base, start = stack.pop()
            q = k - len(head)
            if q == 1:
                for x in range(start, m):
                    t = base + row_vecs[x]
                    lhs = (t & ((t & high) >> (w - 1)) * low) % fold
                    if lhs > rhs:
                        return head + (x,), lhs, rhs
                continue
            # push the children x in descending order, so they pop in
            # combinations order, each unless its cap bound stays within rhs;
            # a child still needs q-1 rows, so a_j loses its excess over q-1
            cut = high - (q - 1) * ones
            for x in range(m - q, start - 1, -1):
                b = base + row_vecs[x]
                a = suffix[x + 1]
                t = a + cut
                t = b + a - (t & ((t & high) >> (w - 1)) * low)
                if (t & ((t & high) >> (w - 1)) * low) % fold > rhs:
                    stack.append((head + (x,), b, x + 1))
    rhs = nu * (m - r)
    return (tuple(range(m)), total, rhs) if m > r and total > rhs else None


def _check_scan_shape(pattern: SupportPattern, r: int) -> None:
    """The row scan's refusals: r must be below m, and m within the ceiling."""
    if r >= pattern.m:
        raise ContractError("relaxed check needs r < m, got r=%d m=%d"
                            % (r, pattern.m))
    if pattern.m > RELAXED_SCAN_CEILING:
        raise CapacityError("m=%d exceeds the subset-scan ceiling %d"
                            % (pattern.m, RELAXED_SCAN_CEILING))


def is_relaxed_slmf(
    pattern: SupportPattern,
    params: RelaxedParams,
) -> tuple[bool, ViolationWitness | None]:
    """Decide the relaxed (nu,r,m) condition.

    Returns (True, None) or (False, witness); the witness row set is minimal
    in size and lexicographically least among that size.  Requires r < m
    (no row subset of size r+1 exists otherwise) and m <= RELAXED_SCAN_CEILING.

    At nu = 1 the worst row set is always a union of columns of positive
    excess e_j = #omega_j - r: from any I, keep the rows inside the union U
    of the columns with more than r rows in I, then add the rest of U; each
    added row raises the left side by at least one and the right side by
    exactly one, and repeating until U is closed never lowers the violation.
    So (1,r,m) holds exactly when the e_j sum to m-r and every nonempty set
    S of positive-excess columns has sum of e_j over S <= #(union of S) - r.
    When the sum holds there are at most m-r such columns, and this route
    enumerates at most 2^(m-r) column sets instead of the row subsets; it
    only ever answers True.

    At nu = r the inequality is symmetric in rows and columns.  For a fixed
    I the left side is max over column sets J of #(Omega & IxJ) - r#J, so I
    passes exactly when #(Omega & IxJ) <= r(#I + #J - r) for every J: the
    dimension count of the rank-r matrices on the block IxJ (Kiraly, Theran
    and Tomioka, JMLR 2015).  No J of at most r columns can break it when
    #I >= r+1, since (#I - r)(r - #J) >= 0, so the inequality holds for
    every I exactly when the transposed pattern passes it for every column
    set J of r+1 or more columns.  When the pattern has fewer columns than
    rows, that shorter scan runs first, and if it finds nothing the answer
    comes from the equality at [m] alone: a positive answer at nu = r on a
    tall pattern comes from the column side.

    Every other case, and every negative answer with its witness, comes
    from the row scan of _first_violation, sizes r+1..m in ascending order,
    so the first violation met is the witness.  A tall negative at nu = r
    therefore pays twice: the column-side scan up to its first violation,
    then the whole row scan from the start for the least witness, up to
    about twice the row scan alone on small tall patterns.
    """
    r, nu = params.r, params.nu
    _check_scan_shape(pattern, r)
    m, n, masks = pattern.m, pattern.n, pattern.cols
    excess_cols = [(c, c.bit_count() - r) for c in masks if c.bit_count() > r]
    total = sum(e for _, e in excess_cols)
    if nu == 1 and total == m - r and _unions_cover_excess(excess_cols, r):
        return True, None
    if nu < r or n >= m or _first_violation(_row_masks(m, masks), n, r, nu):
        found = _first_violation(masks, m, r, nu)
        if found is not None:
            rows, lhs, rhs = found
            return False, ViolationWitness(tuple(i + 1 for i in rows), lhs,
                                           rhs, "inequality_violated")
    rhs = nu * (m - r)
    if total < rhs:
        return False, ViolationWitness(tuple(range(1, m + 1)), total, rhs,
                                       "equality_failed_at_full_set")
    return True, None


def _augment(masks, owner: list[int], j: int) -> tuple[int, ...] | None:
    """Match one more copy of column j by a breadth-first alternating search.

    owner[x] is the column holding row x, or -1; copies of a column share its
    rows, so they need no names.  On success the path is flipped into owner
    and the result is None.  On failure every reached row has an owner, and
    column j with those owners covers only the reached rows: the result is
    that Hall set, as sorted 1-based column indices.
    """
    queue = [(j, -1)]  # (column, the row it gives up when it moves on)
    via = {}  # reached row -> queue index of the column that reached it
    seen = 0
    for k, (c, _) in enumerate(queue):
        rest = masks[c] & ~seen
        seen |= rest
        for x in _rows_of(rest):
            x -= 1
            via[x] = k
            if owner[x] < 0:
                while x >= 0:
                    owner[x], back = queue[via[x]]
                    x = back
                return None
            queue.append((owner[x], x))
    return tuple(sorted({j + 1} | {owner[x - 1] + 1 for x in _rows_of(seen)}))


def _surplus_hall_set(phi: Slmf) -> tuple[int, ...] | None:
    """None when each column copied r+1 times matches, else a Hall set."""
    masks = phi.cols
    owner = [-1] * phi.m
    for j in range(len(masks)):
        if hall := _augment(masks, owner, j):
            return hall
    for j in range(len(masks)):
        copy = owner[:]
        for _ in range(phi.r):
            if hall := _augment(masks, copy, j):
                return hall
    return None


def is_slmf(phi: Slmf) -> tuple[bool, tuple[int, ...] | None]:
    """Decide the covering condition: every k columns span >= k+r rows.

    By Hall's theorem with surplus (Lovasz and Plummer, Matching Theory,
    1986) the condition holds exactly when, for every column j, the columns
    match into distinct rows with j copied r+1 times: a node set holding
    c <= r+1 copies of j and the rest of a column set S has |S| - 1 + c <=
    |S| + r nodes and the rows of S.  So one matching of all the columns is
    made first, then each column j has r more copies augmented into a copy
    of it.  Both answers are polynomial; nothing walks the column subsets.

    On failure returns a violating column index set.  The failed search's
    Hall set H violates: its columns cover only the reached rows, owned by
    at most |H| - 1 + r matched copies (r at most of the augmented column).
    Each column of H, highest index first, is then dropped when the rest
    (never empty: one column covers r+1 rows) still covers fewer than
    |rest| + r rows, in passes until none drops.  So the witness violates,
    no rest of it missing one column does, and it need not be the least.
    """
    witness, kept = _surplus_hall_set(phi), None
    if witness is None:
        return True, None
    while witness != kept:
        kept = witness
        for j in reversed(kept):
            rest = [c for c in witness if c != j]
            union = 0
            for c in rest:
                union |= phi.cols[c - 1]
            if union.bit_count() < len(rest) + phi.r:
                witness = rest
    return False, tuple(witness)


def _induce_slmf(group: SupportPattern, r: int) -> Slmf:
    """Build the SLMF induced by a relaxed (1,r,m) group, given as the
    sub-pattern of its columns in order.

    For each column with #omega_j > r, fix the r smallest rows as the stem
    psi_j and emit one SLMF column psi_j | {t} per remaining row t in
    ascending order; columns of size <= r contribute nothing.  Output columns
    are ordered by (source column, added row).

    The caller checks that the group is relaxed (1,r,m); by the counting
    identity the construction then yields exactly m-r columns, and the
    result always passes is_slmf.  On the union I of a nonempty set S of
    induced columns, each source column holds its r stem rows plus the added
    row of each of its columns in S, so the excesses on I sum to at least
    |S|, and the relaxed bound gives |S| <= #I - r.  Conversely, the induced
    columns of a set S of positive-excess columns number sum_S e_j and cover
    the union of S: a group whose excesses sum to m-r and whose system passes
    is_slmf meets is_relaxed_slmf's slack-1 bound, so it is relaxed (1,r,m).
    """
    cols = []
    for cmask in group.cols:
        if cmask.bit_count() <= r:
            continue
        stem, rest = 0, cmask
        for _ in range(r):  # the r lowest bits are the r smallest rows
            stem |= rest & -rest
            rest &= rest - 1
        while rest:
            cols.append(stem | (rest & -rest))
            rest &= rest - 1
    return Slmf(r, group.m, tuple(cols))
