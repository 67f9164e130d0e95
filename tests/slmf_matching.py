"""Distinct representatives over row sets: the SLMF matching reference.

The covering condition of an SLMF column system (every k columns span at
least k+r rows) holds exactly when, for every row subset I of size m-r, the
traces phi_j & I admit a system of distinct representatives.  This route
walks all C(m, r) row sets and runs one bipartite matching on each, so it is
exponential; no pipeline of the package calls it.  It is the independent
second route that the tests compare `detmatroid.is_slmf` against.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from detmatroid import CapacityError, Slmf

MATCHING_ROW_SET_CEILING = 20_000  # is_slmf_via_matching walks C(m, r) row sets


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
