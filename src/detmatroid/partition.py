"""Partition of pattern columns into relaxed (1,r,m) groups.

A pattern whose columns split into r groups, each a relaxed (1,r,m)-SLMF, is
a base of the rank-r matroid; the certificate carries the groups together
with the SLMF each group induces.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .errors import CapacityError, ContractError, ParseError
from .patterns import Slmf, SupportPattern, _rows_of
from .slmf import RelaxedParams, induce_slmf, is_relaxed_slmf, is_slmf

PARTITION_ROW_CEILING = 24


@dataclass(frozen=True)
class PartitionCertificate:
    """Groups 𝒥_1..𝒥_r covering [n], each with its induced SLMF."""

    r: int
    groups: tuple[tuple[int, ...], ...]
    induced: tuple[Slmf, ...]

    @property
    def same_phi(self) -> bool:
        """Every group induces the same column system, up to column order."""
        return len({tuple(sorted(phi.cols)) for phi in self.induced}) == 1

    def as_dict(self) -> dict:
        phis = []
        for phi in self.induced:
            pat = phi.as_pattern()
            rows = []
            for i in range(pat.m):
                bit = 1 << i
                rows.append([1 if mask & bit else 0 for mask in pat.cols])
            phis.append(rows)
        return {
            "r": self.r,
            "groups": [list(g) for g in self.groups],
            "phis": phis,
            "same_phi": self.same_phi,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict()) + "\n"


def _check_groups(groups, n: int, r: int) -> None:
    """Raise ContractError unless r nonempty groups cover columns 1..n once."""
    if len(groups) != r:
        raise ContractError("expected %d groups, got %d" % (r, len(groups)))
    seen = set()
    for g in groups:
        if not g:
            raise ContractError("groups must be nonempty")
        for j in g:
            if j in seen:
                raise ContractError("column %d appears in two groups" % j)
            seen.add(j)
    if seen != set(range(1, n + 1)):
        raise ContractError("groups must cover columns 1..%d exactly" % n)


def certificate_from_groups(pattern: SupportPattern, r: int, groups) -> PartitionCertificate:
    """Build and validate a certificate from r column groups.

    Groups are sorted internally and ordered by least member; each must be a
    relaxed (1,r,m)-SLMF (induce_slmf raises otherwise).
    """
    norm = [tuple(sorted(g)) for g in groups]
    _check_groups(norm, pattern.n, r)
    norm.sort(key=lambda g: g[0])
    induced = tuple(induce_slmf(pattern, g, r) for g in norm)
    return PartitionCertificate(r, tuple(norm), induced)


def parse_certificate(text: str) -> PartitionCertificate:
    """Parse the JSON certificate form {"r","groups","phis","same_phi"}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("invalid JSON: %s" % exc) from None
    if not isinstance(data, dict):
        raise ParseError("top level: expected an object")
    for key in ("r", "groups", "phis", "same_phi"):
        if key not in data:
            raise ParseError("missing field %r" % key)
    r = data["r"]
    if not isinstance(r, int) or isinstance(r, bool) or r < 1:
        raise ParseError("field 'r': expected a positive integer")
    groups_raw = data["groups"]
    phis_raw = data["phis"]
    if not isinstance(groups_raw, list) or not isinstance(phis_raw, list):
        raise ParseError("fields 'groups' and 'phis': expected lists")
    if len(groups_raw) != r or len(phis_raw) != r:
        raise ParseError("expected %d groups and %d phis" % (r, r))
    groups = []
    for gi, g in enumerate(groups_raw, start=1):
        if not isinstance(g, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) and x >= 1 for x in g
        ):
            raise ParseError("groups[%d]: expected a list of positive integers" % gi)
        groups.append(tuple(sorted(g)))
    induced = []
    for pi, rows in enumerate(phis_raw, start=1):
        if not isinstance(rows, list) or not rows:
            raise ParseError("phis[%d]: expected an indicator matrix" % pi)
        m = len(rows)
        width = None
        cols = None
        for i, row in enumerate(rows, start=1):
            if not isinstance(row, list) or not all(v in (0, 1) for v in row):
                raise ParseError("phis[%d] row %d: expected 0/1 entries" % (pi, i))
            if width is None:
                width = len(row)
                cols = [0] * width
            elif len(row) != width:
                raise ParseError("phis[%d] row %d: ragged row" % (pi, i))
            for j, v in enumerate(row):
                if v:
                    cols[j] |= 1 << (i - 1)
        try:
            induced.append(Slmf(r, m, tuple(cols)))
        except ContractError as exc:
            raise ParseError("phis[%d]: %s" % (pi, exc)) from None
    cert = PartitionCertificate(r, tuple(groups), tuple(induced))
    if not isinstance(data["same_phi"], bool):
        raise ParseError("field 'same_phi': expected a boolean")
    if data["same_phi"] != cert.same_phi:
        raise ParseError("same_phi flag inconsistent with phis")
    return cert


def validate_certificate(pattern: SupportPattern, cert: PartitionCertificate,
                         r: int) -> None:
    """Raise ContractError unless cert is a valid rank-r certificate for pattern."""
    if cert.r != r:
        raise ContractError("certificate rank %d differs from r=%d" % (cert.r, r))
    _check_groups(cert.groups, pattern.n, cert.r)
    if len(cert.induced) != cert.r:
        raise ContractError("expected %d induced systems" % cert.r)
    for g, phi in zip(cert.groups, cert.induced):
        ok, witness = is_relaxed_slmf(pattern, RelaxedParams(1, cert.r, g))
        if not ok:
            raise ContractError(
                "group %s is not relaxed (1,%d,%d): %s"
                % (list(g), cert.r, pattern.m, witness.as_dict())
            )
        if phi.m != pattern.m or phi.r != cert.r:
            raise ContractError("induced system shape mismatch")
        ok, bad = is_slmf(phi)
        if not ok:
            raise ContractError("induced system fails at columns %s" % (list(bad),))
        # every induced column must sit inside some group column support
        for pmask in phi.cols:
            if not any(pmask & ~pattern.cols[j - 1] == 0 for j in g):
                raise ContractError(
                    "induced column %s not contained in any group support"
                    % (list(_rows_of(pmask)),)
                )


def _excess(mask: int, r: int) -> int:
    e = mask.bit_count() - r
    return e if e > 0 else 0


def partition_search(pattern: SupportPattern, r: int) -> PartitionCertificate | None:
    """Backtracking search for a partition into r relaxed (1,r,m) groups.

    Columns are processed in decreasing support size; group labels are broken
    by restricted growth (a column may open at most one new group, so each
    distinct partition is visited once).  A partial group is pruned unless
    every subset S of it satisfies sum of excesses over S <= #(union) - r,
    a consequence of the relaxed condition, and unless its total excess stays
    within m-r.  Only positive-excess columns enter those subsets: adding a
    zero-excess column to S raises no excess and shrinks no union bound.  At
    a leaf where every group meets the quota, the subset prune implies the
    relaxed condition for each group (the worst row set is always a union of
    group columns), so the leaf is a certificate; building
    it re-runs the relaxed check as a safety check, and a failure there
    raises.  That check takes the column-union route of is_relaxed_slmf:
    one pass over the 2^p subsets of a group's p positive-excess columns,
    the sets the prune already checked, instead of a scan of row subsets.
    None means the search was exhaustive and no partition exists.
    """
    m, n = pattern.m, pattern.n
    if r < 1 or r >= m:
        raise ContractError("need 1 <= r < m, got r=%d m=%d" % (r, m))
    if m > PARTITION_ROW_CEILING:
        raise CapacityError("m=%d exceeds the ceiling %d" % (m, PARTITION_ROW_CEILING))
    if pattern.size() != r * (m + n - r):
        warnings.warn(
            "pattern size %d differs from r(m+n-r) = %d; a partition cannot "
            "certify a base" % (pattern.size(), r * (m + n - r)),
            stacklevel=2,
        )
    quota = m - r
    order = sorted(range(n), key=lambda j: (-pattern.cols[j].bit_count(), j))
    masks = [pattern.cols[j] for j in order]
    excesses = [_excess(msk, r) for msk in masks]
    if sum(excesses) != r * quota:
        return None
    # remaining positive-excess columns from position k onward
    pos_left = [0] * (n + 1)
    for k in range(n - 1, -1, -1):
        pos_left[k] = pos_left[k + 1] + (1 if excesses[k] > 0 else 0)

    assignment = [0] * n
    group_excess = [0] * r
    # per group: (union mask, excess sum) for each subset of assigned columns
    subsets: list[list[tuple[int, int]]] = [[(0, 0)] for _ in range(r)]

    def search(k: int, used: int) -> PartitionCertificate | None:
        if k == n:
            # an unopened group has excess 0 < quota
            if any(e != quota for e in group_excess):
                return None
            groups: list[list[int]] = [[] for _ in range(r)]
            for pos in range(n):
                groups[assignment[pos]].append(order[pos] + 1)
            return certificate_from_groups(pattern, r, groups)
        # every unopened group and every open group still short of quota
        # needs at least one future positive-excess column, all distinct
        need = (r - used) + sum(1 for g in range(used) if group_excess[g] < quota)
        if pos_left[k] < need:
            return None
        cmask, cexc = masks[k], excesses[k]
        limit = used + 1 if used < r else r
        for g in range(limit):
            if group_excess[g] + cexc > quota:
                continue
            snap = len(subsets[g])
            ok = True
            new_pairs = []
            # a zero-excess column adds no subsets (see the docstring)
            for umask, esum in subsets[g] if cexc else ():
                nu_mask = umask | cmask
                ne_sum = esum + cexc
                if ne_sum > nu_mask.bit_count() - r:
                    ok = False
                    break
                new_pairs.append((nu_mask, ne_sum))
            if ok:
                subsets[g].extend(new_pairs)
                group_excess[g] += cexc
                assignment[k] = g
                got = search(k + 1, used + 1 if g == used else used)
                if got is not None:
                    return got
                group_excess[g] -= cexc
                del subsets[g][snap:]
        return None

    return search(0, 0)
