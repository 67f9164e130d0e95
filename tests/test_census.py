"""Orbit enumeration, grid censuses, and closed-form cross-checks."""

from __future__ import annotations

import hashlib
import itertools
import math
import random

import pytest

from conftest import (RELAXED_NONBASE_5X5, assert_case_digests, case_digest,
                      make_pattern, run_python)
from detmatroid import (DEFAULT_PRIME, CapacityError, ContractError,
                        SupportPattern, canonical_form, classify_pattern,
                        contains_full_bipartite, enumerate_patterns, is_base,
                        is_relaxed_slmf, is_spanning_tree,
                        known_facts_crosscheck, verify_conjecture)
from detmatroid import census
from detmatroid.oracle import _rank_ceiling


def _permuted(pattern, rng):
    rp = list(range(pattern.m))
    cp = list(range(pattern.n))
    rng.shuffle(rp)
    rng.shuffle(cp)
    cols = tuple(
        sum(((pattern.cols[j] >> old) & 1) << new for new, old in enumerate(rp))
        for j in cp
    )
    return SupportPattern(pattern.m, pattern.n, cols)


def test_canonical_form_is_permutation_invariant():
    rng = random.Random(40)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        cols = tuple(rng.randrange(1 << m) for _ in range(n))
        p = SupportPattern(m, n, cols)
        canon = canonical_form(p)
        assert canonical_form(_permuted(p, rng)) == canon
        assert canonical_form(canon) == canon


def _canonical_form_by_row_scan(pattern):
    """Reference canonical form: the best column-sorted reading over all m!
    row orders."""
    m, n = pattern.m, pattern.n
    best_reading = None
    best_cols = None
    for perm in itertools.permutations(range(m)):
        remapped = []
        for mask in pattern.cols:
            nm = 0
            for new_i, old_i in enumerate(perm):
                if (mask >> old_i) & 1:
                    nm |= 1 << new_i
            remapped.append(nm)
        # top-down key: row 1 most significant
        keys = sorted(
            sum(((nm >> i) & 1) << (m - 1 - i) for i in range(m))
            for nm in remapped
        )
        reading = tuple(
            tuple((key >> (m - 1 - i)) & 1 for key in keys) for i in range(m)
        )
        if best_reading is None or reading < best_reading:
            best_reading = reading
            best_cols = tuple(
                sum(((key >> (m - 1 - i)) & 1) << i for i in range(m))
                for key in keys
            )
    return SupportPattern(m, n, best_cols)


def _symmetric_8_row_patterns():
    # highly symmetric patterns keep many row prefixes tied at every depth
    return [
        SupportPattern(8, 3, (0, 0, 0)),
        SupportPattern(8, 3, (255, 255, 255)),
        SupportPattern(8, 8, tuple((0b111 << j | 0b111 >> (8 - j)) & 255
                                   for j in range(8))),
        SupportPattern(8, 4, (0b11, 0b1100, 0b110000, 0b11000000)),
    ]


def test_canonical_form_matches_row_scan_reference():
    rng = random.Random(41)
    cases = []
    for m in range(1, 8):
        for n in range(1, 8):
            density = rng.random()
            cases.append(SupportPattern(m, n, tuple(
                sum(1 << i for i in range(m) if rng.random() < density)
                for _ in range(n))))
    cases += _symmetric_8_row_patterns()
    for p in cases:
        canon = canonical_form(p)
        assert canon == _canonical_form_by_row_scan(p), p
        assert canonical_form(canon) == canon
        assert canonical_form(_permuted(p, rng)) == canon


def test_canonical_form_row_ceiling():
    with pytest.raises(CapacityError):
        canonical_form(SupportPattern(9, 1, (1,)))


def test_enumerate_counts_match_brute_force_on_tiny_grid():
    # reference count: canonicalize all 16 patterns on a 2x2 grid
    def canon_brute(cols, m):
        best = None
        for rp in itertools.permutations(range(m)):
            remapped = [sum(((c >> old) & 1) << new
                            for new, old in enumerate(rp)) for c in cols]
            for cp in itertools.permutations(remapped):
                reading = tuple(tuple((c >> i) & 1 for c in cp)
                                for i in range(m))
                if best is None or reading < best:
                    best = reading
        return best

    brute = {canon_brute(cols, 2)
             for cols in itertools.product(range(4), repeat=2)}
    mine = list(enumerate_patterns(2, 2, 1, filter="all"))
    assert len(mine) == len(brute) == 7
    assert len({p.cols for p in mine}) == 7


def test_enumerate_filtered_known_counts():
    # degree floor r+1 forces more cells than the base size allows
    assert list(enumerate_patterns(2, 2, 1)) == []
    assert list(enumerate_patterns(3, 3, 1)) == []
    # a 4x4 grid at rank 2 with triple columns admits a single orbit:
    # the four distinct 3-subsets, one per column
    pats = list(enumerate_patterns(4, 4, 2, col_size=3))
    assert len(pats) == 1
    assert sorted(pats[0].columns) == [(1, 2, 3), (1, 2, 4), (1, 3, 4),
                                       (2, 3, 4)]


def test_enumerate_yields_base_sized_min_degree_patterns():
    for p in enumerate_patterns(5, 5, 2):
        assert p.size() == 2 * (5 + 5 - 2)
        assert all(c.bit_count() >= 3 for c in p.cols)
        assert canonical_form(p) == p


def test_enumerate_rejects_unknown_filter_and_capacity():
    with pytest.raises(ContractError):
        list(enumerate_patterns(2, 2, 1, filter="bogus"))
    with pytest.raises(CapacityError):
        list(enumerate_patterns(7, 7, 2))
    for col_size in (-1, 5):
        with pytest.raises(ContractError, match="col_size must be in 0..4"):
            list(enumerate_patterns(4, 4, 2, col_size=col_size))


def _enumerate_patterns_by_scan(m, n, r, filter="base_size_and_mindeg",
                                col_size=None):
    """Reference enumeration: every non-decreasing candidate sequence within
    the size budget, degree-filtered and canonicalized at the leaf."""
    census._check_filter(filter)
    census._check_grid(m, n, r)
    filtered = filter == "base_size_and_mindeg"
    target = r * (m + n - r) if filtered else None
    candidates = census._column_candidates(m, r, filter, col_size)
    if filtered and target > m * n:
        return
    sizes = [c.bit_count() for c in candidates]
    ncand = len(candidates)
    suf_min = [0] * (ncand + 1)
    suf_max = [0] * (ncand + 1)
    for i in range(ncand - 1, -1, -1):
        suf_min[i] = min(sizes[i], suf_min[i + 1]) if i + 1 < ncand else sizes[i]
        suf_max[i] = max(sizes[i], suf_max[i + 1]) if i + 1 < ncand else sizes[i]

    seen = set()
    chosen = []

    def emit():
        if filtered and any(sum(c >> i & 1 for c in chosen) < r + 1
                            for i in range(m)):
            return None
        canon = canonical_form(SupportPattern(m, n, tuple(chosen)))
        if canon.cols in seen:
            return None
        seen.add(canon.cols)
        return canon

    def rec(start, left, budget):
        if left == 0:
            if budget == 0 or not filtered:
                got = emit()
                if got is not None:
                    yield got
            return
        for idx in range(start, ncand):
            if filtered:
                rest = budget - sizes[idx]
                lo = rest - (left - 1) * suf_max[idx]
                hi = rest - (left - 1) * suf_min[idx]
                if rest < 0 or hi < 0 or lo > 0:
                    continue
            chosen.append(candidates[idx])
            yield from rec(idx, left - 1, budget - sizes[idx] if filtered else 0)
            chosen.pop()

    yield from rec(0, n, target if filtered else 0)


def test_enumerate_sequence_matches_scan_reference():
    # the exact yielded list, not just the set of orbits: m*n <= 20, both
    # filters, col_size None and 0..m.  The filter 'all' ignores r, and
    # without col_size the reference canonicalizes all C(2^m+n-1, n)
    # sequences, so it runs at r=1 and skips grids of more than 6000 leaves
    # (4x5, 5x4, 6x3, 7x2, 8x2), whose col_size slices are still compared
    for m in range(1, census.CANON_ROW_CEILING + 1):
        for n in range(1, 20 // m + 1):
            for r in range(1, m + 1):
                for filter in ("base_size_and_mindeg", "all"):
                    for col_size in [None, *range(m + 1)]:
                        if filter == "all" and (r > 1 or col_size is None and
                                                math.comb(2 ** m + n - 1, n) > 6000):
                            continue
                        args = (m, n, r, filter, col_size)
                        assert (list(enumerate_patterns(*args))
                                == list(_enumerate_patterns_by_scan(*args))), args


@pytest.mark.parametrize("m, n, r", [(6, 5, 3), (6, 5, 2)])
def test_enumerate_sequence_matches_scan_reference_at_six_rows(m, n, r):
    got = list(enumerate_patterns(m, n, r))
    assert got and got == list(_enumerate_patterns_by_scan(m, n, r))


def test_enumerate_canonicalizes_few_candidates(monkeypatch):
    # the scan reference canonicalizes 2205 degree-filtered sequences at
    # (6,5,2) for 15 orbits
    calls = []

    def counted(pattern):
        calls.append(pattern)
        return canonical_form(pattern)

    monkeypatch.setattr(census, "canonical_form", counted)
    assert len(list(enumerate_patterns(6, 5, 2))) == 15
    assert len(calls) < 100


def test_classify_is_invariant_under_reduction(unpartitionable_base):
    row = classify_pattern(unpartitionable_base, 2)
    assert row.reduction_log == (("row", 2),)
    assert row.is_relaxed_rrm and row.has_partition and row.oracle_base
    assert row.consistent
    assert row.witness is not None and "partition" in row.witness


def test_certify_scans_rows_only_without_an_input_partition(
        monkeypatch, fully_reducible_base, unpartitionable_base):
    # an input partition decides the relaxed stage; the row scan runs only
    # on a pattern without one, here the base whose reduction partitions
    calls = []

    def spy(pattern, params):
        calls.append(pattern)
        return is_relaxed_slmf(pattern, params)

    monkeypatch.setattr(census, "is_relaxed_slmf", spy)
    payload = census.certify(fully_reducible_base, 2)
    assert payload["certified"] and payload["stages"]["partition"]["on"] == "input"
    assert calls == []
    payload = census.certify(unpartitionable_base, 2)
    assert payload["certified"] and payload["stages"]["partition"]["on"] == "reduced"
    assert calls == [unpartitionable_base]


def test_classify_fully_reducible_is_trivially_consistent(fully_reducible_base):
    row = classify_pattern(fully_reducible_base, 2)
    assert row.is_relaxed_rrm and row.has_partition and row.oracle_base
    assert row.consistent
    assert "trivial" in row.witness


def test_census_4_4_2_triples_is_consistent():
    report = verify_conjecture(4, 4, 2, col_size=3)
    assert report.consistent
    assert len(report.rows) == 1
    assert report.counterexamples == ()


def test_census_5_5_2_finds_one_stable_counterexample(reduced_base):
    report = verify_conjecture(5, 5, 2)
    assert len(report.rows) == 5
    # the reduced 5x5 base appears, classified as partitionable
    canon = canonical_form(reduced_base)
    hits = [row for row in report.rows if row.pattern == canon]
    assert len(hits) == 1 and hits[0].has_partition and hits[0].consistent
    # one orbit survives re-verification: relaxed yet neither partitionable
    # nor a base; only the open direction fails, never the proven ones
    assert not report.consistent
    assert len(report.counterexamples) == 1
    bad = canonical_form(make_pattern(5, RELAXED_NONBASE_5X5))
    rows = {row.pattern: row for row in report.rows}
    cex = rows[bad]
    assert cex.is_relaxed_rrm and not cex.has_partition and not cex.oracle_base
    for row in report.rows:
        assert not row.has_partition or row.oracle_base
        assert not row.oracle_base or row.is_relaxed_rrm
    info = report.counterexamples[0]
    assert info["reverified"]["trials"] == 10
    assert len(set(info["reverified"]["primes"])) == 3


def test_importing_the_cli_loads_no_process_pool():
    # the census runs in one process: neither importing the CLI nor running
    # a census pulls in multiprocessing or a process pool
    proc = run_python("-c", "import sys, detmatroid, detmatroid.cli; "
                      "detmatroid.verify_conjecture(5, 5, 2); print("
                      "[m for m in ('concurrent.futures.process', "
                      "'multiprocessing') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("m, n, r", [(3, 3, 1), (3, 4, 2), (3, 3, 3)])
def test_census_filter_all_is_consistent(m, n, r):
    # unfiltered grids hold wrong-size orbits, some reducing to nothing and
    # some to patterns too small to classify: none of them is a base
    report = verify_conjecture(m, n, r, filter="all")
    assert report.consistent
    dim = r * (m + n - r)
    sizes = {row.pattern.size() == dim for row in report.rows}
    assert sizes == {True, False}
    for row in report.rows:
        if row.oracle_base:
            assert is_base(row.pattern, r).verdict == "base"
        if row.pattern.size() != dim:
            assert not (row.is_relaxed_rrm or row.has_partition
                        or row.oracle_base)
            # like every census witness, it describes the reduced pattern
            assert row.witness["size"]["ok"] is False


def test_graph_predicates():
    tree = make_pattern(3, [[1, 2], [2, 3]])
    assert is_spanning_tree(tree)
    cycle = make_pattern(2, [[1, 2], [1, 2]])
    assert not is_spanning_tree(cycle)
    forest = make_pattern(4, [[1, 2], [3, 4], []])
    assert not is_spanning_tree(forest)
    # one vertex is a tree; two without an edge are not
    assert is_spanning_tree(SupportPattern(0, 1, (0,)))
    assert is_spanning_tree(SupportPattern(1, 0, ()))
    assert not is_spanning_tree(SupportPattern(0, 2, (0, 0)))
    assert contains_full_bipartite(make_pattern(3, [[1, 2, 3]] * 3 + [[1]]))
    assert not contains_full_bipartite(make_pattern(3, [[1, 2, 3]] * 2 + [[1, 2]]))


def test_crosscheck_tree_criterion_small():
    report = known_facts_crosscheck(3, 3, 1)
    assert report.cases == 126
    assert report.consistent
    d = report.as_dict()
    assert d["cases"] == 126 and d["disagreements"] == []


def test_crosscheck_transposes_wide_side():
    # rows exceed columns: the grid is flipped so rank min(m,n)-1 applies
    report = known_facts_crosscheck(4, 3, 2)
    assert report.cases == 66
    assert report.consistent


def test_crosscheck_non_bases_stop_at_the_counting_ceiling(monkeypatch):
    # every non-base of the (3,6,2) crosscheck holds a full 3x3 block and
    # so a column of fewer than r cells elsewhere: the first trial reaches
    # the counting ceiling below |Omega| = 14 and the trials stop there
    seen = []

    def recording_is_base(pattern, r, *args):
        verdict = is_base(pattern, r, *args)
        seen.append((pattern, r, verdict))
        return verdict

    monkeypatch.setattr(census, "is_base", recording_is_base)
    report = known_facts_crosscheck(3, 6, 2)
    assert report.consistent and report.cases == len(seen) == 3060
    non_bases = [(p, r, v) for p, r, v in seen if v.verdict == "not_base"]
    assert non_bases
    for pattern, r, verdict in non_bases:
        assert verdict.p == DEFAULT_PRIME and verdict.trials == 1
        assert verdict.rank_observed == _rank_ceiling(pattern, r) < 14


def test_oracle_seeds_of_the_crosscheck_and_census_are_frozen(monkeypatch):
    # every (pattern, r, seed) that the crosscheck and the census hand the
    # oracle, in call order.  Each seed hashes the pattern's JSON label, and
    # neither stdout shows it: a changed label or seed derivation moves
    # every drawn point, yet the verdicts here would read the same.  Pinned
    # with a digest per 100 crosscheck calls and per census call
    calls = []

    def recording_is_base(pattern, r, p, trials, seed):
        calls.append("%r %d %d" % (pattern.cols, r, seed))
        return is_base(pattern, r, p, trials, seed)

    monkeypatch.setattr(census, "is_base", recording_is_base)
    known_facts_crosscheck(3, 4, 1)
    cases = [("crosscheck (3,4,1) calls %d-%d"
              % (k, min(k + 100, len(calls)) - 1),
              case_digest("\n".join(calls[k:k + 100]).encode()))
             for k in range(0, len(calls), 100)]
    for grid in ((5, 5, 2), (6, 5, 3)):
        start = len(calls)
        verify_conjecture(*grid)
        cases += [("census (%d,%d,%d) call %d" % (*grid, k - start),
                   case_digest(calls[k].encode()))
                  for k in range(start, len(calls))]
    assert_case_digests("oracle_seeds", cases)
    assert hashlib.sha256("\n".join(calls).encode()).hexdigest() == (
        "a60c032db3239c85b5566e03b6c0a2d5"
        "68ba6f2e0911780afaee2c100c5edf74")


def test_crosscheck_rejects_unsupported_rank():
    with pytest.raises(ContractError):
        known_facts_crosscheck(4, 4, 2)
