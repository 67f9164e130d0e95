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
from itertools import combinations

from .errors import CapacityError, ContractError
from .patterns import Slmf, SupportPattern, _rows_of

RELAXED_SCAN_CEILING = 24


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


def is_relaxed_slmf(
    pattern: SupportPattern,
    params: RelaxedParams,
) -> tuple[bool, ViolationWitness | None]:
    """Decide the relaxed (nu,r,m) condition by scanning all row subsets.

    Returns (True, None) or (False, witness); the witness row set is minimal
    in size and lexicographically least among that size.  Requires r < m
    (no row subset of size r+1 exists otherwise) and m <= RELAXED_SCAN_CEILING.
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
    for k in range(r + 1, m + 1):
        rhs = nu * (k - r)
        for rows in combinations(range(m), k):
            imask = 0
            for i in rows:
                imask |= 1 << i
            lhs = 0
            for cmask in masks:
                t = (cmask & imask).bit_count() - r
                if t > 0:
                    lhs += t
            if lhs > rhs:
                witness = ViolationWitness(
                    tuple(i + 1 for i in rows), lhs, rhs, "inequality_violated"
                )
                return False, witness
            if k == m and lhs < rhs:
                witness = ViolationWitness(
                    tuple(i + 1 for i in rows), lhs, rhs,
                    "equality_failed_at_full_set",
                )
                return False, witness
    return True, None


def is_slmf(phi: Slmf) -> tuple[bool, tuple[int, ...] | None]:
    """Decide the covering condition: every k columns span >= k+r rows.

    Quantifies over nonempty column subsets.  On failure returns the violating
    column index set, minimal in size then lexicographically least.
    """
    masks = phi.cols
    n, r = len(masks), phi.r
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
    order) admitting no perfect matching.
    """
    m, r = phi.m, phi.r
    n = m - r
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
    yields exactly m-r columns, and the result always passes is_slmf.
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
    phi = Slmf(r, pattern.m, tuple(cols))
    ok, bad = is_slmf(phi)
    if not ok:
        raise ContractError("induced system fails the covering condition at "
                            "columns %s" % (list(bad),))
    return phi
