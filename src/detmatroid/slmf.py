"""Linkage matching field supports and their relaxed counting condition.

A column system Phi with m-r columns of size r+1 is an (r,m)-SLMF when every
nonempty set of k columns covers at least k+r rows.  The relaxed version
applies to arbitrary patterns: Omega is a relaxed (nu,r,m)-SLMF when for every
row subset I with at least r+1 rows

    sum_j max(#(omega_j & I) - r, 0)  <=  nu * (#I - r),

with equality at I = [m].  Columns may be restricted to a subset J, in which
case only those columns contribute to the sums.

The matching-based checker is an independent route to the same predicate: the
covering condition holds iff for every (m-r)-row subset I the traces
phi_j & I admit a system of distinct representatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb

from .errors import CapacityError, ContractError
from .patterns import Slmf, SupportPattern, _rows_of

RELAXED_SCAN_CEILING = 24
# is_slmf walks up to 2^n column sets; a certificate's induced systems have
# m-r <= 23 columns under the 24-row ceilings, so each one stays checkable
SLMF_COLUMN_CEILING = RELAXED_SCAN_CEILING - 1
MATCHING_ROW_SET_CEILING = 20_000  # is_slmf_via_matching walks C(m, r) row sets


@dataclass(frozen=True)
class RelaxedParams:
    """Parameters of a relaxed SLMF check.

    nu and r as in the counting condition; restricted_to optionally names the
    1-based pattern columns that participate (None = all columns).
    """

    nu: int
    r: int
    restricted_to: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.nu, int) or self.nu < 1:
            raise ContractError("nu must be a positive integer")
        if not isinstance(self.r, int) or self.r < 1:
            raise ContractError("r must be a positive integer")
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


def _selected_masks(pattern: SupportPattern, params: RelaxedParams) -> list[int]:
    if params.restricted_to is None:
        return list(pattern.cols)
    seen = set()
    masks = []
    for j in params.restricted_to:
        if not isinstance(j, int) or not 1 <= j <= pattern.n:
            raise ContractError("restricted_to: column %r out of range 1..%d"
                                % (j, pattern.n))
        if j in seen:
            raise ContractError("restricted_to: duplicate column %d" % j)
        seen.add(j)
        masks.append(pattern.cols[j - 1])
    return masks


def _unions_cover_excess(excess_cols: list[tuple[int, int]], r: int) -> bool:
    """True when every nonempty set S of (mask, excess) columns has
    sum of excesses over S <= #(union of S) - r.

    Depth-first over the subsets, each reached once as the extension of S
    minus its last column, so memory stays quadratic in the column count.
    """
    stack = [(0, 0, 0)]
    while stack:
        union, esum, start = stack.pop()
        for t in range(start, len(excess_cols)):
            mask, e = excess_cols[t]
            u, s = union | mask, esum + e
            if s > u.bit_count() - r:
                return False
            stack.append((u, s, t + 1))
    return True


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

    Every other case, and every negative answer, comes from the row scan:
    sizes r+1..m in ascending order, each size a depth-first walk over row
    prefixes in combinations order, so the first violation met is the
    witness.  Each column's count #(omega_j & I) sits in a w-bit field of
    one integer, biased so that the field's top bit is set exactly when the
    count reaches r; the left side is then a mask-and-multiply followed by
    a digit sum mod 2^w - 1.  A prefix P that still needs q rows from the
    rows s..m-1 is pruned when the left side at the capped counts
    c_j(P) + min(q, a_j) stays within the bound, a_j being column j's count
    in those rows.  That is sound: every completion adds at most min(q, a_j)
    rows to column j, and the left side never falls when a count rises.
    The a_j come from a packed suffix sum, and min(q, a_j) is a_j less the
    low bits of a_j + 2^(w-1) - q wherever that field's top bit is set; as
    a_j <= m < 2^(w-1) this add neither borrows nor carries across fields,
    and c_j(P) + a_j <= #omega_j keeps the capped sum in its field.  At
    q = 1 this subsumes skipping a head whose columns holding r rows would
    each gain one: only the columns with a row left can gain.  The full
    row set needs no scan: its left side is the total excess.
    """
    r, nu = params.r, params.nu
    if r >= pattern.m:
        raise ContractError("relaxed check needs r < m, got r=%d m=%d"
                            % (r, pattern.m))
    if pattern.m > RELAXED_SCAN_CEILING:
        raise CapacityError("m=%d exceeds the subset-scan ceiling %d"
                            % (pattern.m, RELAXED_SCAN_CEILING))
    masks = _selected_masks(pattern, params)
    m = pattern.m
    excess_cols = [(c, c.bit_count() - r) for c in masks if c.bit_count() > r]
    total = sum(e for _, e in excess_cols)
    if nu == 1 and total == m - r and _unions_cover_excess(excess_cols, r):
        return True, None

    # 2^(w-1) exceeds m, every field's excess and their sum, and the bias
    # 2^(w-1) - r stays nonnegative since r < m <= RELAXED_SCAN_CEILING < 32
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

    def witness(rows, lhs, rhs, kind):
        return False, ViolationWitness(tuple(i + 1 for i in rows), lhs, rhs, kind)

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
                        return witness(head + (x,), lhs, rhs, "inequality_violated")
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
    if total > rhs:
        return witness(range(m), total, rhs, "inequality_violated")
    if total < rhs:
        return witness(range(m), total, rhs, "equality_failed_at_full_set")
    return True, None


def is_slmf(phi: Slmf) -> tuple[bool, tuple[int, ...] | None]:
    """Decide the covering condition: every k columns span >= k+r rows.

    Quantifies over nonempty column subsets, so more than SLMF_COLUMN_CEILING
    columns raise CapacityError.  On failure returns the violating column
    index set, minimal in size then lexicographically least.
    """
    masks = phi.cols
    n, r = len(masks), phi.r
    if n > SLMF_COLUMN_CEILING:
        raise CapacityError("%d columns exceed SLMF_COLUMN_CEILING = %d"
                            % (n, SLMF_COLUMN_CEILING))
    for k in range(1, n + 1):
        for cols in combinations(range(n), k):
            union = 0
            for j in cols:
                union |= masks[j]
            if union.bit_count() < k + r:
                return False, tuple(j + 1 for j in cols)
    return True, None


def _max_matching(adj: list[int], n_right: int) -> int:
    """Maximum bipartite matching size; adj[u] is a bitmask of right nodes."""
    match_right = [-1] * n_right

    def try_assign(u: int, visited: list[bool]) -> bool:
        rest = adj[u]
        while rest:
            low = rest & -rest
            rest &= rest - 1
            v = low.bit_length() - 1
            if visited[v]:
                continue
            visited[v] = True
            if match_right[v] == -1 or try_assign(match_right[v], visited):
                match_right[v] = u
                return True
        return False

    size = 0
    for u in range(len(adj)):
        if try_assign(u, [False] * n_right):
            size += 1
    return size


def is_slmf_via_matching(phi: Slmf) -> tuple[bool, tuple[int, ...] | None]:
    """Decide the covering condition through distinct representatives.

    For every row subset I of size m-r, match each column phi_j to a distinct
    row of phi_j & I.  A perfect matching for every I is equivalent to the
    covering condition; on failure returns the first I (in lexicographic
    order) admitting no perfect matching.  More than MATCHING_ROW_SET_CEILING
    row sets raise CapacityError.
    """
    m, r = phi.m, phi.r
    n = m - r
    if comb(m, n) > MATCHING_ROW_SET_CEILING:
        raise CapacityError("C(%d,%d) row sets exceed MATCHING_ROW_SET_CEILING = %d"
                            % (m, n, MATCHING_ROW_SET_CEILING))
    for rows in combinations(range(m), n):
        pos = {i: t for t, i in enumerate(rows)}
        imask = 0
        for i in rows:
            imask |= 1 << i
        adj = []
        for cmask in phi.cols:
            amask = 0
            rest = cmask & imask
            while rest:
                low = rest & -rest
                amask |= 1 << pos[low.bit_length() - 1]
                rest &= rest - 1
            adj.append(amask)
        if _max_matching(adj, n) < n:
            return False, tuple(i + 1 for i in rows)
    return True, None


def induce_slmf(pattern: SupportPattern, group, r: int) -> Slmf:
    """Build the SLMF induced by a relaxed (1,r,m) column group.

    For each group column with #omega_j > r, fix the r smallest rows as the
    stem psi_j and emit one SLMF column psi_j | {t} per remaining row t in
    ascending order; columns of size <= r contribute nothing.  Output columns
    are ordered by (source column, added row).

    Raises ContractError (its message names the violation) when the group
    is not relaxed (1,r,m); by the counting identity the construction then
    yields exactly m-r columns, and the result always passes is_slmf.  On
    the union I of a nonempty set S of induced columns, each source column
    holds its r stem rows plus the added row of each of its columns in S,
    so the excesses on I sum to at least |S|, and the relaxed bound gives
    |S| <= #I - r.
    """
    group = tuple(group)
    ok, witness = is_relaxed_slmf(pattern, RelaxedParams(1, r, group))
    if not ok:
        raise ContractError(
            "group %s is not a relaxed (1,%d,%d)-SLMF: %s"
            % (list(group), r, pattern.m, witness.as_dict())
        )
    cols = []
    for j in sorted(group):
        cmask = pattern.cols[j - 1]
        if cmask.bit_count() <= r:
            continue
        rows = _rows_of(cmask)
        stem = 0
        for i in rows[:r]:
            stem |= 1 << (i - 1)
        for t in rows[r:]:
            cols.append(stem | (1 << (t - 1)))
    return Slmf(r, pattern.m, tuple(cols))
