"""Acceptance suite: one test per shipped criterion, each with a time budget.

Every test measures the operative section with time.perf_counter and prints a
single "[criterion N] PASS" line once its assertions hold, so a verbose run
reads as a checklist.  Budgets are generous upper bounds, not benchmarks.
"""

from __future__ import annotations

import json
import random
import time

import detmatroid
from conftest import (FULLY_REDUCIBLE_BASE_6X5, REDUCED_BASE_5X5,
                      SLMF_6X4_COLUMNS, TRIPLES_BASE_6X8,
                      UNPARTITIONABLE_BASE_6X5, make_pattern)
from dense import random_matrix, random_rank_r
from detmatroid import (DEFAULT_PRIME, GenericityError, PrimeField,
                        RelaxedParams, Slmf, certificate_from_groups,
                        complete_matrix, emit_pattern, is_base,
                        is_relaxed_slmf, is_slmf, known_facts_crosscheck,
                        partition_search, reduce_pattern,
                        validate_certificate, verify_conjecture)
from detmatroid.cli import main
from plucker import p_phi, plucker_from_basis
from slmf_matching import is_slmf_via_matching


def _budget(start: float, limit: float) -> None:
    elapsed = time.perf_counter() - start
    assert elapsed < limit, "took %.2fs, budget %.2fs" % (elapsed, limit)


def test_criterion_01_bundled_slmf_accepted_by_both_checkers(capsys):
    phi = Slmf.from_columns(2, 6, SLMF_6X4_COLUMNS)
    start = time.perf_counter()
    direct, _ = is_slmf(phi)
    matched, _ = is_slmf_via_matching(phi)
    _budget(start, 0.1)
    assert direct is True and matched is True
    print("[criterion 1] PASS")


def test_criterion_02_section_product_identity_constant_sign():
    f = PrimeField(DEFAULT_PRIME)
    phi = Slmf.from_columns(2, 6, SLMF_6X4_COLUMNS)
    start = time.perf_counter()
    signs = set()
    for seed in range(100):
        rng = random.Random(seed)
        basis = random_matrix(6, 2, f, rng)
        pl = plucker_from_basis(basis, f)
        prod = f.reduce(pl[(1, 2)] * pl[(2, 4)] * pl[(1, 5)])
        val = p_phi(phi, pl)
        if prod == f.zero:
            assert val == f.zero
            continue
        if val == prod:
            signs.add(1)
        elif val == f.reduce(-prod):
            signs.add(-1)
        else:
            raise AssertionError("seed %d: value off by a non-unit factor" % seed)
    _budget(start, 1.0)
    # exact match up to one global sign, constant across the whole run
    assert signs == {-1}
    print("[criterion 2] PASS")


def test_criterion_03_certify_pipeline_on_fully_reducible_base(tmp_path, capsys):
    path = tmp_path / "pattern.txt"
    path.write_text(emit_pattern(make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)))
    start = time.perf_counter()
    code = main(["certify", "--pattern", str(path), "--r", "2",
                 "--trials", "3"])
    _budget(start, 1.0)
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["certified"]
    assert payload["stages"]["partition"]["ok"]
    oracle = payload["stages"]["oracle"]
    assert oracle["verdict"] == "base"
    assert oracle["rank_observed"] == 18 == 2 * (6 + 5 - 2)
    assert oracle["trials"] <= 3
    print("[criterion 3] PASS")


def test_criterion_04_reduction_unlocks_partition():
    omega = make_pattern(6, UNPARTITIONABLE_BASE_6X5)
    start = time.perf_counter()
    ok, _ = is_relaxed_slmf(omega, RelaxedParams(2, 2))
    assert ok
    assert partition_search(omega, 2) is None  # exhaustive backtracking
    reduced, log = reduce_pattern(omega, 2)
    assert log and (reduced.m, reduced.n) == (5, 5)
    assert reduced == make_pattern(5, REDUCED_BASE_5X5)
    ok, _ = is_relaxed_slmf(reduced, RelaxedParams(2, 2))
    assert ok
    # the documented hand partition validates, and search finds some partition
    hand = certificate_from_groups(reduced, 2, [[1, 3, 4], [2, 5]])
    validate_certificate(reduced, hand, 2)
    found = partition_search(reduced, 2)
    assert found is not None
    validate_certificate(reduced, found, 2)
    assert is_base(omega, 2).verdict == "base"
    assert is_base(reduced, 2).verdict == "base"
    _budget(start, 5.0)
    print("[criterion 4] PASS")


def test_criterion_05_wide_grid_base_certified_rank_only():
    pattern = make_pattern(6, TRIPLES_BASE_6X8)
    start = time.perf_counter()
    verdict = is_base(pattern, 2)
    _budget(start, 1.0)
    assert verdict.verdict == "base"
    assert verdict.rank_observed == 24 == 2 * (6 + 8 - 2)
    # fiber cardinality over the projection is out of scope: no API exposes it
    assert not any("fiber" in name.lower() for name in detmatroid.__all__)
    print("[criterion 5] PASS")


def test_criterion_06_census_4x4_size3_columns_fully_consistent():
    start = time.perf_counter()
    report = verify_conjecture(4, 4, 2, col_size=3)
    _budget(start, 300.0)
    assert report.consistent and not report.counterexamples
    assert report.rows
    for row in report.rows:
        assert row.is_relaxed_rrm == row.has_partition
        assert (not row.has_partition) or row.oracle_base
        assert (not row.oracle_base) or row.is_relaxed_rrm
    print("[criterion 6] PASS")


def test_criterion_07_rank_one_bases_are_spanning_trees():
    start = time.perf_counter()
    square = known_facts_crosscheck(3, 3, 1)
    wide = known_facts_crosscheck(3, 4, 1)
    _budget(start, 60.0)
    assert square.consistent and square.cases == 126
    assert wide.consistent and wide.cases == 924
    print("[criterion 7] PASS")


def test_criterion_08_corank_one_bases_avoid_full_bipartite():
    start = time.perf_counter()
    report = known_facts_crosscheck(3, 4, 2)
    _budget(start, 120.0)
    assert report.consistent and report.cases == 66
    print("[criterion 8] PASS")


def test_criterion_09_completion_round_trip_hundred_seeds():
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    cert = partition_search(pattern, 2)
    field = PrimeField(DEFAULT_PRIME)
    start = time.perf_counter()
    resamples = 0
    for seed in range(100):
        attempt = seed
        while True:
            x = random_rank_r(6, 5, 2, seed=attempt)
            observed = {(i, j): x[i - 1][j - 1]
                        for (i, j) in pattern.cells()}
            try:
                got = complete_matrix(pattern, 2, cert, observed, field)
            except GenericityError:
                resamples += 1
                attempt += 100_000
                continue
            break
        assert got == x
    _budget(start, 10.0)
    print("[criterion 9] PASS (%d degenerate draws re-sampled)" % resamples)


def test_criterion_10_union_bounds_match_relaxed_slack_one():
    rng = random.Random(20260814)
    start = time.perf_counter()
    for (r, m) in ((1, 5), (2, 6), (3, 7)):
        rows = list(range(1, m + 1))
        for _ in range(500):
            cols = [sorted(rng.sample(rows, r + 1)) for _ in range(m - r)]
            phi = Slmf.from_columns(r, m, cols)
            pattern = make_pattern(m, cols)
            direct, _ = is_slmf(phi)
            relaxed, _ = is_relaxed_slmf(pattern, RelaxedParams(1, r))
            assert direct == relaxed
    _budget(start, 10.0)
    print("[criterion 10] PASS")


def test_criterion_11_relaxed_check_decides_20x20_base_size_pattern():
    # a seeded base-size 20x20 pattern (r=5: 175 cells, fifteen columns of
    # nine rows and five of eight) that is relaxed at nu=r, so the scan
    # visits every row-set size; at nu=r-1 the least violation has 15 rows
    m, r = 20, 5
    rng = random.Random(23)
    sizes = [9] * 15 + [8] * 5
    rng.shuffle(sizes)
    pattern = make_pattern(m, [sorted(rng.sample(range(1, m + 1), s))
                               for s in sizes])
    assert pattern.size() == r * (m + m - r)
    start = time.perf_counter()
    assert is_relaxed_slmf(pattern, RelaxedParams(r, r)) == (True, None)
    _budget(start, 0.5)
    ok, witness = is_relaxed_slmf(pattern, RelaxedParams(r - 1, r))
    rows = set(witness.subset_rows)
    lhs = sum(max(len(rows & set(col)) - r, 0) for col in pattern.columns)
    assert not ok and witness.kind == "inequality_violated"
    assert (witness.lhs, witness.rhs) == (lhs, (r - 1) * (len(rows) - r))
    assert witness.subset_rows == tuple(range(1, 12)) + (14, 16, 18, 20)
    assert (lhs, witness.rhs) == (41, 40)
    print("[criterion 11] PASS")
