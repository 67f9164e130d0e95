"""Exhaustive desk-scale comparison of the combinatorial and algebraic sides.

For every pattern in a small grid (one representative per row/column
permutation orbit) the census records three classifications: the relaxed
(r,r,m) counting condition, the existence of a partition into r relaxed
(1,r,m) groups, and the randomized rank oracle.  A consistent census has
relaxed = partition on every row, with partition implying oracle-base and
oracle-base implying relaxed.  Inconsistent rows are re-verified with more
trials across several primes before being reported as counterexamples.

Known closed-form characterizations at the extreme ranks (spanning trees for
r = 1, absence of a full bipartite K_{m,m} for r = min(m,n)-1) serve as an
independent cross-check of the oracle.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass
from itertools import combinations

from .errors import CapacityError, ContractError
from .fields import DEFAULT_PRIME, prev_prime
from .oracle import DEFAULT_TRIALS, _check_trials_and_prime, is_base
from .partition import partition_search
from .patterns import (SupportPattern, _bits_of, emit_pattern, reduce_pattern,
                       transpose)
from .seeding import derive_seed
from .slmf import RelaxedParams, is_relaxed_slmf

ENUM_CELL_CEILING = 36
CANON_ROW_CEILING = 8


def canonical_form(pattern: SupportPattern) -> SupportPattern:
    """Lexicographically least indicator matrix over row/column permutations.

    For a fixed row order the row-major reading is minimized by sorting the
    columns as binary strings with row 1 most significant, so the canonical
    form is the best column-sorted reading over all row orders.  Row k of
    that reading is the last bit of each sorted (k+1)-row column prefix, so
    the order is built one row at a time, keeping only the prefixes still
    tied for the least reading (individualisation-refinement over row
    prefixes, as in McKay and Piperno, JSC 2014).  Prefixes with the same
    unused rows and the same column prefix keys share every continuation and
    are kept once.  Ties can still grow exponentially, hence the ceiling.
    """
    m, n = pattern.m, pattern.n
    if m > CANON_ROW_CEILING:
        raise CapacityError("m=%d exceeds the canonicalization ceiling %d"
                            % (m, CANON_ROW_CEILING))
    row_bits = [tuple((mask >> i) & 1 for mask in pattern.cols)
                for i in range(m)]
    # state: (unused row mask, column prefix keys in input column order)
    states = {((1 << m) - 1, (0,) * n)}
    for _ in range(m):
        best = None
        tied: set = set()
        for unused, keys in states:
            rest = unused
            while rest:
                low = rest & -rest
                rest ^= low
                grown = tuple(
                    key << 1 | bit
                    for key, bit in zip(keys, row_bits[low.bit_length() - 1])
                )
                reading = 0
                for key in sorted(grown):
                    reading = reading << 1 | key & 1
                if best is None or reading < best:
                    best = reading
                    tied = set()
                if reading == best:
                    tied.add((unused ^ low, grown))
        states = tied
    # every survivor has the same reading; a key's top bit is row 1
    keys = sorted(next(iter(states))[1])
    return SupportPattern(m, n, tuple(
        sum(((key >> (m - 1 - i)) & 1) << i for i in range(m))
        for key in keys
    ))


def _check_filter(filter: str) -> None:
    if filter not in ("base_size_and_mindeg", "all"):
        raise ContractError("unknown filter %r" % filter)


def _check_grid(m: int, n: int, r: int) -> None:
    if min(m, n, r) < 1:
        raise ContractError("need m, n, r >= 1, got m=%d n=%d r=%d" % (m, n, r))
    if m * n > ENUM_CELL_CEILING:
        raise CapacityError("m*n=%d exceeds the exhaustive ceiling %d"
                            % (m * n, ENUM_CELL_CEILING))


def _add_column(reach: tuple[int, ...], c: int) -> tuple[int, ...]:
    """Add column mask c to the row degrees: reach[t] holds the rows met by
    at least t of the columns so far, reach[0] being every row."""
    return reach[:1] + tuple(hi | lo & c for lo, hi in zip(reach, reach[1:]))


def _column_candidates(m: int, r: int, mode: str, col_size: int | None) -> list[int]:
    masks = []
    for mask in range(1 << m):
        pc = mask.bit_count()
        if col_size is not None and pc != col_size:
            continue
        if mode == "base_size_and_mindeg" and pc < r + 1:
            continue
        masks.append(mask)
    return masks


def enumerate_patterns(m: int, n: int, r: int,
                       filter: str = "base_size_and_mindeg",
                       col_size: int | None = None):
    """Yield one canonical representative per pattern orbit.

    filter 'base_size_and_mindeg' keeps size = r(m+n-r) and every row degree
    and column size at least r+1; 'all' imposes nothing.  col_size optionally
    pins every column support size.

    The search walks the non-decreasing sequences of column masks in
    lexicographic order, so it meets each orbit first at the orbit's
    lex-least such sequence, and yields the orbits in that order.  The
    filters and the candidate masks are closed under row permutations, so a
    prefix that a row permutation maps to a lex-smaller sorted prefix starts
    no orbit's first member and is skipped (orderly generation: Read 1978,
    McKay 1998).  Three tests skip prefixes: a row that can no longer reach
    degree r+1 in the columns left; a new column that does not use the
    lowest rows of each class of rows lying in the same chosen columns
    (packing them down fixes the prefix and lowers its largest column), so
    the first column is (1<<s)-1; and a column with fewer rows than the
    first, which some row permutation maps below it.  The tests are
    incomplete, so every surviving sequence is still canonicalized and
    orbits already seen are dropped: each orbit appears exactly once.
    """
    _check_filter(filter)
    _check_grid(m, n, r)
    filtered = filter == "base_size_and_mindeg"
    target = r * (m + n - r) if filtered else None
    candidates = _column_candidates(m, r, filter, col_size)
    if filtered and target > m * n:
        return
    sizes = [c.bit_count() for c in candidates]
    ncand = len(candidates)
    # suffix popcount bounds for budget pruning
    suf_min = [0] * (ncand + 1)
    suf_max = [0] * (ncand + 1)
    for i in range(ncand - 1, -1, -1):
        suf_min[i] = min(sizes[i], suf_min[i + 1]) if i + 1 < ncand else sizes[i]
        suf_max[i] = max(sizes[i], suf_max[i + 1]) if i + 1 < ncand else sizes[i]

    full = (1 << m) - 1
    seen: set[tuple[int, ...]] = set()
    chosen: list[int] = []

    def rec(start: int, left: int, budget: int, reach: tuple[int, ...],
            classes: tuple[int, ...]):
        if filtered and left <= r and reach[r + 1 - left] != full:
            return  # some row cannot reach degree r+1 any more
        if left == 0:
            if budget == 0 or not filtered:
                canon = canonical_form(SupportPattern(m, n, tuple(chosen)))
                if canon.cols not in seen:
                    seen.add(canon.cols)
                    yield canon
            return
        floor = chosen[0].bit_count() if chosen else 0
        for idx in range(start, ncand):
            if filtered:
                rest = budget - sizes[idx]
                lo = rest - (left - 1) * suf_max[idx]
                hi = rest - (left - 1) * suf_min[idx]
                if rest < 0 or hi < 0 or lo > 0:
                    continue
            if sizes[idx] < floor:
                continue
            c = candidates[idx]
            # in each class, the rows of c must be the class's lowest rows
            if any((k & ((1 << (c & k).bit_length()) - 1)) != c & k
                   for k in classes):
                continue
            chosen.append(c)
            yield from rec(idx, left - 1, budget - sizes[idx] if filtered else 0,
                           _add_column(reach, c),
                           tuple(p for k in classes for p in (k & c, k & ~c) if p))
            chosen.pop()

    yield from rec(0, n, target if filtered else 0,
                   (full,) + (0,) * (r + 1), (full,))


@dataclass(frozen=True)
class CensusRow:
    """One pattern's classification by all three routes."""

    pattern: SupportPattern
    r: int
    is_relaxed_rrm: bool
    has_partition: bool
    oracle_base: bool
    witness: dict | None
    reduction_log: tuple = ()

    @property
    def consistent(self) -> bool:
        return (
            self.is_relaxed_rrm == self.has_partition
            and (not self.has_partition or self.oracle_base)
            and (not self.oracle_base or self.is_relaxed_rrm)
        )

    def as_dict(self) -> dict:
        return {
            "m": self.pattern.m,
            "n": self.pattern.n,
            "r": self.r,
            "columns": [list(c) for c in self.pattern.columns],
            "is_relaxed_rrm": self.is_relaxed_rrm,
            "has_partition": self.has_partition,
            "oracle_base": self.oracle_base,
            "witness": self.witness,
            "reduction_log": [list(step) for step in self.reduction_log],
        }


def certify(pattern: SupportPattern, r: int, prime: int = DEFAULT_PRIME,
            trials: int = DEFAULT_TRIALS, seed: int = 0) -> dict:
    """The certification pipeline; returns the payload the CLI prints.

    Payload stages, in order: size gate (a wrong size stops here), relaxed
    (r,r,m) condition, reduction, partition search (on the input, then on
    the reduction, or "trivial" when it empties the pattern) and rank
    oracle.  The payload ends with "certified" (plus "reason" when
    negative), or with "bug" when an oracle base fails the relaxed
    condition or the oracle refutes a partition.

    They run in another order: after the size gate comes the partition
    search on the input, and an input partition decides the relaxed stage.
    Each of its r groups passed the relaxed (1,r,m) check when the
    certificate was built, so for every row set I with #I > r

        sum over group g of sum_{j in g} max(#(omega_j & I) - r, 0)
            <= r * (#I - r),   with equality at I = [m],

    and as the groups partition the columns the left side is that of the
    relaxed (r,r,m) condition.  The row scan runs only when the input has
    no partition.
    """
    params = RelaxedParams(r, r)  # refuses r < 1 by name, before any stage
    m, n = pattern.m, pattern.n
    size = pattern.size()
    _check_trials_and_prime(trials, prime, size)
    dim = r * (m + n - r)
    stages: dict = {"size": {"ok": size == dim, "size": size, "dimension": dim}}
    payload = {"m": m, "n": n, "r": r, "stages": stages}
    if size != dim:
        payload.update(certified=False, reason="size")
        return payload
    cert = partition_search(pattern, r)
    relaxed_ok, violation = ((True, None) if cert is not None
                             else is_relaxed_slmf(pattern, params))
    stages["relaxed"] = {
        "ok": relaxed_ok,
        "witness": violation.as_dict() if violation is not None else None,
    }
    reduced, log = reduce_pattern(pattern, r)
    stages["reduction"] = {
        "steps": [list(step) for step in log],
        "reduced_m": reduced.m,
        "reduced_n": reduced.n,
        "reduced_size": reduced.size(),
    }
    part_on = "input"
    if cert is None and log:
        if reduced.size() == 0:
            part_on = "trivial"
        elif r < reduced.m and r <= reduced.n:
            cert = partition_search(reduced, r)
            if cert is not None:
                part_on = "reduced"
    partition_ok = cert is not None or part_on == "trivial"
    stages["partition"] = {
        "ok": partition_ok,
        "on": part_on if partition_ok else None,
        "certificate": cert.as_dict() if cert is not None else None,
    }
    verdict = is_base(pattern, r, prime, trials, seed)
    oracle_ok = verdict.verdict == "base"
    stages["oracle"] = verdict.as_dict()

    if oracle_ok and not relaxed_ok:
        payload["bug"] = ("oracle certifies a base but the necessary relaxed "
                          "counting condition fails; please report")
    elif partition_ok and not oracle_ok:
        payload["bug"] = ("a partition certificate exists but the rank oracle "
                          "refutes the base; please report")
    else:
        certified = relaxed_ok and partition_ok and oracle_ok
        payload["certified"] = certified
        if not certified:
            payload["reason"] = ("relaxed" if not relaxed_ok
                                 else "partition" if not partition_ok
                                 else "oracle")
    return payload


def classify_pattern(pattern: SupportPattern, r: int, prime: int = DEFAULT_PRIME,
                     trials: int = DEFAULT_TRIALS, seed: int = 0) -> CensusRow:
    """Classify a pattern after reduction, recording the reduction log.

    Stripping size-r columns and degree-r rows preserves independence and
    base-ness, so the reduced pattern carries the classification, read from
    its certify() stages.  A base-size pattern that reduces to nothing is a
    base trivially; a pattern of the wrong size is negative on all three
    routes, with certify()'s size stage as witness: checked here, since
    certify() refuses p <= |Omega| even off base size, where no oracle runs.
    """
    reduced, log = reduce_pattern(pattern, r)
    size, dim = reduced.size(), r * (reduced.m + reduced.n - r)
    if size != dim:
        return CensusRow(pattern, r, False, False, False, {"size": {
            "ok": False, "size": size, "dimension": dim}}, log)
    if size == 0:
        return CensusRow(pattern, r, True, True, True,
                         {"trivial": "reduced to an empty pattern"}, log)
    pat_seed = derive_seed(seed, "census:%s" % emit_pattern(pattern, "json"))
    stages = certify(reduced, r, prime, trials, pat_seed)["stages"]
    relaxed, partition = stages["relaxed"], stages["partition"]
    if not relaxed["ok"]:
        witness = {"violation": relaxed["witness"]}
    elif partition["ok"]:
        witness = {"partition": partition["certificate"]}
    else:
        witness = None
    return CensusRow(pattern, r, relaxed["ok"], partition["ok"],
                     stages["oracle"]["verdict"] == "base", witness, log)


@dataclass(frozen=True)
class CensusReport:
    rows: tuple[CensusRow, ...]
    consistent: bool
    counterexamples: tuple[dict, ...]


def _classify_job(args):
    return classify_pattern(*args)


def _reverify_oracle(pattern: SupportPattern, r: int, prime: int,
                     seed: int) -> tuple[bool, list[int]]:
    """is_base at prime and the next two primes down, skipping p <= |Omega|."""
    primes = [prime]
    while len(primes) < 3 and primes[-1] > 2:
        primes.append(prev_prime(primes[-1]))
    primes = [q for q in primes if q > pattern.size()]
    base = False
    for q in primes:
        verdict = is_base(pattern, r, q, 10, derive_seed(seed, "reverify-%d" % q))
        if verdict.verdict == "base":
            base = True
            break
    return base, primes


def verify_conjecture(m: int, n: int, r: int, prime: int = DEFAULT_PRIME,
                      trials: int = DEFAULT_TRIALS, seed: int = 0,
                      col_size: int | None = None,
                      filter: str = "base_size_and_mindeg",
                      jobs: int = 1) -> CensusReport:
    """Census the grid and check both directions of the equivalence.

    Consistent means: relaxed (r,r,m) = partition existence on every row, a
    partition implies an oracle base, and an oracle base implies relaxed.
    Candidate counterexamples have their oracle column re-verified with 10
    trials at up to 3 primes, and survive only if still inconsistent.
    """
    _check_trials_and_prime(trials, prime)
    if jobs < 1:
        raise ContractError("jobs must be >= 1")
    patterns = list(enumerate_patterns(m, n, r, filter=filter, col_size=col_size))
    args = [(p, r, prime, trials, seed) for p in patterns]
    if jobs > 1 and len(patterns) > 1:
        # a fork pool starts every worker at once; the rows do not depend on
        # the worker count, so more workers than patterns or cores buy nothing
        workers = min(jobs, len(patterns), os.cpu_count() or 1)
        # imported here: the pool pulls in multiprocessing, which serial
        # callers never need
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_classify_job, args, chunksize=8))
    else:
        rows = [_classify_job(a) for a in args]
    fixed_rows: list[CensusRow] = []
    counterexamples: list[dict] = []
    for row in rows:
        if row.consistent:
            fixed_rows.append(row)
            continue
        reduced, _ = reduce_pattern(row.pattern, r)
        re_base, primes = _reverify_oracle(reduced, r, prime, seed)
        row = dataclasses.replace(row, oracle_base=re_base)
        fixed_rows.append(row)
        if not row.consistent:
            counterexamples.append({
                "pattern": json.loads(emit_pattern(row.pattern, "json")),
                "row": row.as_dict(),
                "reverified": {"primes": primes, "trials": 10,
                               "oracle_base": re_base},
            })
    return CensusReport(tuple(fixed_rows),
                        all(row.consistent for row in fixed_rows),
                        tuple(counterexamples))


def is_spanning_tree(pattern: SupportPattern) -> bool:
    """The support graph is a tree on all m+n vertices: m+n-1 edges, no cycle."""
    m = pattern.m
    if pattern.size() != m + pattern.n - 1:
        return False
    parent = list(range(m + pattern.n))  # row i is vertex i-1, column j is m+j-1

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, j in pattern.cells():
        a, b = find(i - 1), find(m + j - 1)
        if a == b:
            return False
        parent[a] = b
    return True


def contains_full_bipartite(pattern: SupportPattern) -> bool:
    """K_{m,m} containment for m <= n: at least m all-ones columns."""
    full = (1 << pattern.m) - 1
    return sum(1 for c in pattern.cols if c == full) >= pattern.m


@dataclass(frozen=True)
class CrosscheckReport:
    m: int
    n: int
    r: int
    cases: int
    disagreements: tuple[dict, ...]

    @property
    def consistent(self) -> bool:
        return not self.disagreements

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "cases": self.cases,
            "disagreements": list(self.disagreements),
        }


def known_facts_crosscheck(m: int, n: int, r: int, prime: int = DEFAULT_PRIME,
                           trials: int = DEFAULT_TRIALS,
                           seed: int = 0) -> CrosscheckReport:
    """Check the oracle against the closed-form base characterizations.

    r = 1: bases are exactly the spanning trees, checked over every pattern
    of size m+n-1.  r = min(m,n)-1: bases are exactly the size-(m-1)(n+1)
    patterns without a K_{m,m} subgraph (rows on the small side), checked
    over every pattern of that size.  Both sides are invariant under row
    and column permutations, yet every labelled pattern is checked with
    its own seed on purpose: orbit representatives alone would test the
    oracle at far fewer random points and index layouts.
    """
    _check_grid(m, n, r)
    small, large = min(m, n), max(m, n)
    if r not in (1, small - 1):
        raise ContractError("crosscheck supports r=1 or r=min(m,n)-1")
    if r == 1:
        target = m + n - 1
    else:
        target = (small - 1) * (large + 1)
    work = transpose if m > n else (lambda p: p)
    disagreements = []
    cases = 0
    # each cell as (column index, row mask), in row-major order
    cells = [(j, _bits_of((i,), m, "cell")) for i in range(1, m + 1) for j in range(n)]
    for subset in combinations(cells, target):
        cols = [0] * n
        for j, bit in subset:
            cols[j] |= bit
        pattern = SupportPattern(m, n, tuple(cols))
        cases += 1
        oriented = work(pattern)
        if r == 1:
            expected = is_spanning_tree(oriented)
        else:
            expected = not contains_full_bipartite(oriented)
        pat_seed = derive_seed(seed, "crosscheck:%s" % emit_pattern(pattern, "json"))
        verdict = is_base(oriented, r, prime, trials, pat_seed)
        got = verdict.verdict == "base"
        if got != expected:
            disagreements.append({
                "pattern": json.loads(emit_pattern(pattern, "json")),
                "combinatorial": expected,
                "oracle": verdict.as_dict(),
            })
    return CrosscheckReport(m, n, r, cases, tuple(disagreements))
