"""Union lower bounds and the relaxed counting condition."""

from __future__ import annotations

import random
import time
from itertools import combinations, product

import pytest

from conftest import (REDUCED_BASE_5X5, REDUCED_BASE_5X5_GROUPS,
                      group_pattern, make_pattern)
from detmatroid import (CapacityError, ContractError, RelaxedParams, Slmf,
                        SupportPattern, ViolationWitness, enumerate_patterns,
                        is_relaxed_slmf, is_slmf, partition_search)
from detmatroid import slmf
from detmatroid.slmf import _induce_slmf, _unions_cover_excess
from slmf_matching import MATCHING_ROW_SET_CEILING, is_slmf_via_matching


def _is_relaxed_slmf_by_scan(pattern, params):
    """Reference: the plain scan over every row subset of size r+1..m.

    Builds each row mask and sums the column excesses one column at a time;
    the first violation in (size, combinations order) is the witness.
    """
    r, nu, m, masks = params.r, params.nu, pattern.m, pattern.cols
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
                return False, ViolationWitness(
                    tuple(i + 1 for i in rows), lhs, rhs, "inequality_violated")
            if k == m and lhs < rhs:
                return False, ViolationWitness(
                    tuple(i + 1 for i in rows), lhs, rhs,
                    "equality_failed_at_full_set")
    return True, None


def _random_columns(rng, m, sizes):
    return [rng.sample(range(1, m + 1), s) for s in sizes]


def _sizes_summing_to(rng, parts, total, lo, hi):
    """Random sizes lo <= s <= hi for `parts` columns, summing to total."""
    sizes = [lo] * parts
    for _ in range(total - parts * lo):
        sizes[rng.choice([j for j in range(parts) if sizes[j] < hi])] += 1
    return sizes


def test_relaxed_params_validation():
    RelaxedParams(1, 3)
    RelaxedParams(3, 3)
    with pytest.raises(ContractError):
        RelaxedParams(0, 3)
    with pytest.raises(ContractError):
        RelaxedParams(4, 3)


def test_bools_are_not_relaxed_parameters():
    # True == 1, but a bool is not a slack or a rank
    with pytest.raises(ContractError, match="nu must be a positive integer"):
        RelaxedParams(True, 2)
    with pytest.raises(ContractError, match="r must be a positive integer"):
        RelaxedParams(1, True)


def test_relaxed_positive_fixtures(unpartitionable_base, reduced_base,
                                   relaxed_nonbase):
    assert is_relaxed_slmf(unpartitionable_base, RelaxedParams(2, 2)) == (True, None)
    assert is_relaxed_slmf(reduced_base, RelaxedParams(2, 2)) == (True, None)
    assert is_relaxed_slmf(relaxed_nonbase, RelaxedParams(2, 2)) == (True, None)


def test_relaxed_violation_witness_is_minimal():
    # two identical columns overload every 2-row subset at nu=1, r=1
    p = make_pattern(3, [[1, 2], [1, 2], [3]])
    ok, witness = is_relaxed_slmf(p, RelaxedParams(1, 1))
    assert not ok
    assert witness.subset_rows == (1, 2)
    assert witness.lhs == 2 and witness.rhs == 1
    assert witness.kind == "inequality_violated"
    d = witness.as_dict()
    assert d["I"] == [1, 2] and d["lhs"] == 2 and d["rhs"] == 1


def test_relaxed_equality_must_hold_at_full_row_set():
    # strict inequality everywhere, including at [m]: not relaxed
    p = make_pattern(3, [[1, 2]])
    ok, witness = is_relaxed_slmf(p, RelaxedParams(1, 1))
    assert not ok
    assert witness.kind == "equality_failed_at_full_set"
    assert witness.subset_rows == (1, 2, 3)
    assert (witness.lhs, witness.rhs) == (1, 2)


def test_relaxed_requires_r_below_m():
    with pytest.raises(ContractError):
        is_relaxed_slmf(make_pattern(2, [[1, 2]]), RelaxedParams(2, 2))


def test_slmf_positive_by_both_checkers(slmf_6x4):
    assert is_slmf(slmf_6x4) == (True, None)
    assert is_slmf_via_matching(slmf_6x4) == (True, None)


def test_slmf_negative_witnesses():
    phi = Slmf.from_columns(2, 6, [[2, 4, 6]] * 4)
    ok, cols = is_slmf(phi)
    assert not ok and cols == (1, 2)
    ok2, rows = is_slmf_via_matching(phi)
    assert not ok2 and rows == (1, 2, 3, 4)


def test_slmf_checkers_refuse_past_their_ceilings():
    # the r=1 path {i, i+1} on 25 rows: valid, so a subset walk would visit
    # all 2^24 column sets; the surplus matching decides it at once
    path = Slmf.from_columns(1, 25, [[i, i + 1] for i in range(1, 25)])
    assert is_slmf_via_matching(path) == (True, None)
    assert is_slmf(path) == (True, None)
    # a band at m=18, r=9: 9 columns, but C(18,9) = 48620 row sets
    band = [list(range(j, j + 10)) for j in range(1, 10)]
    assert MATCHING_ROW_SET_CEILING < 48620
    assert is_slmf(Slmf.from_columns(9, 18, band)) == (True, None)
    with pytest.raises(CapacityError, match="MATCHING_ROW_SET_CEILING"):
        is_slmf_via_matching(Slmf.from_columns(9, 18, band))


def test_checkers_agree_exhaustively_on_small_shapes():
    from itertools import combinations
    for r, m in ((1, 4), (2, 5), (1, 5), (3, 6), (4, 7)):
        supports = list(combinations(range(1, m + 1), r + 1))
        width = m - r
        for cols in product(supports, repeat=width):
            phi = Slmf.from_columns(r, m, cols)
            assert is_slmf(phi)[0] == is_slmf_via_matching(phi)[0]


def test_checkers_agree_on_random_large_shapes():
    rng = random.Random(10)
    for _ in range(150):
        r = rng.randint(1, 4)
        m = rng.randint(r + 2, 9)
        cols = [sorted(rng.sample(range(1, m + 1), r + 1)) for _ in range(m - r)]
        phi = Slmf.from_columns(r, m, cols)
        assert is_slmf(phi)[0] == is_slmf_via_matching(phi)[0]


def _violates(phi, cols):
    """True when the 1-based columns cols cover fewer than len(cols)+r rows."""
    union = 0
    for j in cols:
        union |= phi.cols[j - 1]
    return union.bit_count() < len(cols) + phi.r


def _assert_one_minimal_violation(phi, witness):
    """The witness violates, and dropping any one column of it does not."""
    assert _violates(phi, witness), (phi, witness)
    for j in witness:
        rest = [c for c in witness if c != j]
        assert not _violates(phi, rest), (phi, witness, j)


def test_surplus_matching_agrees_with_row_set_reference():
    # 20 000 seeded systems of up to 5 columns, over a third of them
    # negative; a negative's witness violates, and no single column of it
    # can be dropped with the rest still violating
    rng = random.Random(44)
    verdicts = {True: 0, False: 0}
    for _ in range(20_000):
        r = rng.randint(1, 3)
        m = rng.randint(r + 1, r + 5)
        cols = [sorted(rng.sample(range(1, m + 1), r + 1)) for _ in range(m - r)]
        phi = Slmf.from_columns(r, m, cols)
        ok, witness = is_slmf(phi)
        assert ok == is_slmf_via_matching(phi)[0], (r, m, cols)
        verdicts[ok] += 1
        if not ok:
            _assert_one_minimal_violation(phi, witness)
    assert min(verdicts.values()) > 5000


def test_surplus_matching_decides_64_rows_quickly():
    # the star that a full column of a 64-row r=3 certificate induces, and
    # a band of 4 consecutive rows per column; both are valid
    star = Slmf.from_columns(3, 64, [[1, 2, 3, t] for t in range(4, 65)])
    band = Slmf.from_columns(3, 64, [[j, j + 1, j + 2, j + 3]
                                     for j in range(1, 62)])
    for phi in (star, band):
        start = time.perf_counter()
        assert is_slmf(phi) == (True, None)
        assert time.perf_counter() - start < 0.1


def test_shrunk_hall_set_violates_on_24_to_61_columns():
    # seeded random systems with 24 to 61 columns, nearly all negative; the
    # witness, the failed augmentation's Hall set shrunk by counting unions,
    # must violate the covering condition and be 1-minimal
    rng = random.Random(45)
    negatives = 0
    for _ in range(300):
        r = rng.randint(1, 3)
        m = rng.randint(r + 24, 64)
        cols = [sorted(rng.sample(range(1, m + 1), r + 1)) for _ in range(m - r)]
        phi = Slmf.from_columns(r, m, cols)
        ok, witness = is_slmf(phi)
        if not ok:
            negatives += 1
            _assert_one_minimal_violation(phi, witness)
    assert negatives > 200


def test_cycle_negative_is_witnessed_at_once():
    # the 24-row r=1 cycle {i, i mod 23 + 1}: its 23 columns cover 23 rows,
    # and every proper subset covers enough, so the witness is all of them;
    # a walk over the column subsets would visit all 2^23 before finding it
    phi = Slmf.from_columns(1, 24, [[i, i % 23 + 1] for i in range(1, 24)])
    start = time.perf_counter()
    assert is_slmf(phi) == (False, tuple(range(1, 24)))
    assert time.perf_counter() - start < 0.05


def test_induce_slmf_from_valid_groups(reduced_base):
    for group in REDUCED_BASE_5X5_GROUPS:
        phi = _induce_slmf(group_pattern(reduced_base, group), 2)
        assert is_slmf(phi) == (True, None)
        assert len(phi.columns) == reduced_base.m - 2
        # every induced column comes from a column support in the group
        group_supports = [set(REDUCED_BASE_5X5[j - 1]) for j in group]
        for col in phi.columns:
            assert any(set(col) <= s for s in group_supports)


def test_induced_systems_always_pass_is_slmf():
    # _induce_slmf does not re-check its output; this is the guarantee its
    # docstring proves, over random relaxed (1,r,m) groups and over every
    # certificate group of the census grids
    rng = random.Random(41)
    induced = []
    while len(induced) < 300:
        m = rng.randint(3, 9)
        r = rng.randint(1, m - 2)
        # positive excesses summing to m-r, plus columns of at most r rows
        sizes, left = [], m - r
        while left:
            e = rng.randint(1, left)
            sizes.append(r + e)
            left -= e
        sizes += [rng.randint(1, r) for _ in range(rng.randint(0, 2))]
        cols = [sorted(rng.sample(range(1, m + 1), k)) for k in sizes]
        pattern = make_pattern(m, cols)
        if is_relaxed_slmf(pattern, RelaxedParams(1, r))[0]:
            induced.append(_induce_slmf(pattern, r))
    for m, n, r in ((5, 5, 2), (5, 6, 2), (6, 5, 3), (6, 4, 2), (4, 4, 2)):
        for pattern in enumerate_patterns(m, n, r):
            cert = partition_search(pattern, r)
            if cert is not None:
                induced += [_induce_slmf(group_pattern(pattern, g), r)
                            for g in cert.groups]
    assert len(induced) > 320
    for phi in induced:
        assert len(phi.cols) == phi.m - phi.r
        assert is_slmf(phi) == (True, None)


def test_relaxed_group_is_a_sum_of_m_minus_r_whose_system_covers():
    # the equivalence that lets validate_certificate rebuild a phi instead
    # of running is_slmf on it: a group is relaxed (1,r,m) exactly when its
    # excesses sum to m-r and its induced system passes is_slmf.  Most draws
    # have that sum, the only case where is_slmf decides, and half take
    # their rows from a prefix of [m] so that columns overlap and fail
    rng = random.Random(35)
    verdicts = {}
    for _ in range(5000):
        m = rng.randint(3, 12)
        r = rng.randint(1, m - 1)
        sizes, left = [], m - r
        if rng.random() < 0.8:
            while left:
                e = rng.randint(1, left)
                sizes.append(r + e)
                left -= e
            sizes += [rng.randint(1, r) for _ in range(rng.randint(0, 2))]
        else:
            sizes = [rng.randint(1, m) for _ in range(rng.randint(1, 4))]
        top = m if rng.random() < 0.5 else rng.randint(max(sizes), m)
        cols = [rng.sample(range(1, top + 1), k) for k in sizes]
        group = make_pattern(m, cols)
        at_sum = sum(max(len(c) - r, 0) for c in cols) == m - r
        relaxed = is_relaxed_slmf(group, RelaxedParams(1, r))[0]
        assert relaxed == (at_sum and is_slmf(_induce_slmf(group, r))[0]), (
            m, r, cols)
        verdicts[at_sum, relaxed] = verdicts.get((at_sum, relaxed), 0) + 1
    assert verdicts[True, True] >= 200 and verdicts[True, False] >= 200
    assert verdicts[False, False] > 0


def _check_against_scan(pattern, params):
    got = is_relaxed_slmf(pattern, params)
    assert got == _is_relaxed_slmf_by_scan(pattern, params), (
        pattern.m, pattern.cols, params)
    return got


def test_relaxed_check_matches_scan_reference():
    # half the patterns have base size r(m+n-r), where most are relaxed at
    # nu=r; the rest have free column sizes and mostly fail, some at [m];
    # every tenth has so many near-full columns that the witness sum can
    # pass 63, the largest sum a 6-bit field holds
    rng = random.Random(30)
    kinds = set()
    for trial in range(600):
        m = rng.randint(2, 10)
        r = rng.randint(1, m - 1)
        n = rng.randint(1, 2 * m)
        if trial % 10 == 0:
            sizes = [rng.randint(m - 1, m) for _ in range(8 * m)]
        elif trial % 2:
            total = min(max(r * (m + n - r), n), n * m)
            sizes = _sizes_summing_to(rng, n, total, 1, m)
        else:
            sizes = [rng.randint(0, m) for _ in range(n)]
        n = len(sizes)
        pattern = SupportPattern.from_columns(m, _random_columns(rng, m, sizes))
        for nu in range(1, r + 1):
            group = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
            for checked in (pattern, group_pattern(pattern, group)):
                ok, witness = _check_against_scan(checked,
                                                  RelaxedParams(nu, r))
                kinds.add("relaxed" if ok else witness.kind)
    assert kinds == {"relaxed", "inequality_violated",
                     "equality_failed_at_full_set"}


def test_relaxed_check_matches_scan_reference_at_16x16():
    # the first seeded draw that is relaxed at nu=r, so that size runs the
    # whole scan; the smaller nu and the 4-column group fail on it
    rng = random.Random(32)
    m, r = 16, 4
    while True:
        pattern = SupportPattern.from_columns(m, _random_columns(rng, m, [7] * 16))
        if _is_relaxed_slmf_by_scan(pattern, RelaxedParams(r, r))[0]:
            break
    assert is_relaxed_slmf(pattern, RelaxedParams(r, r)) == (True, None)
    for nu in range(1, r):
        assert not _check_against_scan(pattern, RelaxedParams(nu, r))[0]
    assert not _check_against_scan(group_pattern(pattern, (1, 5, 9, 13)),
                                   RelaxedParams(1, r))[0]


def test_relaxed_nu1_column_route_matches_scan_reference():
    # groups whose excesses #omega_j - r sum to m-r are decided by column
    # unions when they pass; the others, and the failures, by the row scan
    rng = random.Random(31)
    quota_outcomes, outcomes, row_scan_only = set(), set(), 0
    for trial in range(600):
        m = rng.randint(3, 10)
        r = rng.randint(1, m - 2)
        if trial % 4:
            excesses = _sizes_summing_to(rng, rng.randint(1, m - r), m - r,
                                         1, m - r)
            sizes = [r + e for e in excesses]
            sizes += [rng.randint(0, r) for _ in range(rng.randint(0, 3))]
        else:
            sizes = [rng.randint(r + 1, m) for _ in range(rng.randint(1, m + 2))]
        rng.shuffle(sizes)
        pattern = SupportPattern.from_columns(m, _random_columns(rng, m, sizes))
        group = list(range(1, len(sizes) + 1))
        rng.shuffle(group)
        ok, _ = _check_against_scan(group_pattern(pattern, group),
                                    RelaxedParams(1, r))
        outcomes.add(ok)
        if sum(max(s - r, 0) for s in sizes) == m - r:
            quota_outcomes.add(ok)
        if sum(s > r for s in sizes) >= m:
            row_scan_only += 1
    assert quota_outcomes == outcomes == {True, False}
    assert row_scan_only > 0


def test_column_union_walk_from_a_start_column_matches_brute_force():
    # partition_search's prune: every set of group members, joined to the
    # new column, must have sum of excesses <= #(union) - r
    rng = random.Random(41)
    outcomes = set()
    for _ in range(5000):
        m = rng.randint(3, 9)
        r = rng.randint(1, m - 2)
        cols = []
        for _ in range(rng.randint(1, 6)):
            mask = sum(1 << i for i in rng.sample(range(m), rng.randint(r + 1, m)))
            cols.append((mask, mask.bit_count() - r))
        (cmask, cexc), members = cols[0], cols[1:]
        expected = True
        for k in range(len(members) + 1):
            for subset in combinations(members, k):
                union, esum = cmask, cexc
                for mask, e in subset:
                    union, esum = union | mask, esum + e
                expected = expected and esum <= union.bit_count() - r
        assert _unions_cover_excess(members, r, cmask, cexc) == expected, (
            members, r, cmask, cexc)
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_relaxed_prefix_prune_matches_scan_reference_at_11_to_16_rows():
    # the scan prunes a row prefix that still needs q rows by the capped
    # counts min(q, a_j); base-size and sparse patterns at 11 and 12 rows
    # give all three outcomes, and at 13 to 16 rows columns of r+1 to r+3
    # rows with excesses summing past r(m-r) fail every nu before [m],
    # often first at r+3 rows or more, where every prune above the leaves
    # has q >= 2
    rng = random.Random(35)
    kinds, deep = set(), 0
    for m in range(11, 17):
        for trial in range(3):
            if m <= 12:
                r = rng.randint(2, 5)
                n = rng.randint(m - 3, m + 3)
                if trial % 2:
                    sizes = _sizes_summing_to(rng, n, r * (m + n - r), r + 1, m)
                else:
                    sizes = [rng.randint(r - 2, r + 1) for _ in range(n)]
            else:
                r = rng.randint(2, 4)
                sizes = [rng.randint(r + 1, r + 3)
                         for _ in range(r * (m - r) // 2 + 3)]
            pattern = SupportPattern.from_columns(m, _random_columns(rng, m, sizes))
            for nu in range(1, r + 1):
                ok, witness = _check_against_scan(pattern, RelaxedParams(nu, r))
                kinds.add("relaxed" if ok else witness.kind)
                if not ok and len(witness.subset_rows) >= r + 3 \
                        and witness.kind == "inequality_violated":
                    deep += 1
    assert kinds == {"relaxed", "inequality_violated",
                     "equality_failed_at_full_set"}
    assert deep >= 15


# 24x8, size 60 = r(m+n-r) at r=2: relaxed at nu=2, and the row scan alone
# takes over 2 s to show it
TALL_24X8 = (5448202, 5600, 723125, 17415, 1839560, 1104916, 12182016,
             15467072)


def test_relaxed_tall_patterns_at_nu_r_match_scan_reference():
    # at nu = r, fewer selected columns than rows: the column sets are
    # scanned first, and a violation there falls back to the row scan for
    # the witness; base-size draws give the positives, free sizes the rest
    rng = random.Random(36)
    kinds = set()
    for trial in range(300):
        m = rng.randint(3, 12)
        r = rng.randint(1, m - 2)
        n = rng.randint(1, m - 1)
        if trial % 2:
            total = min(r * (m + n - r), n * m)
            sizes = _sizes_summing_to(rng, n, total, 1, m)
        else:
            sizes = [rng.randint(0, m) for _ in range(n)]
        pattern = SupportPattern.from_columns(m, _random_columns(rng, m, sizes))
        group = tuple(rng.sample(range(1, n + 1), rng.randint(1, n)))
        for checked in (pattern, group_pattern(pattern, group)):
            ok, witness = _check_against_scan(checked, RelaxedParams(r, r))
            kinds.add(("relaxed" if ok else witness.kind, checked is pattern))
    assert kinds == {(kind, whole) for whole in (True, False)
                     for kind in ("relaxed", "inequality_violated",
                                  "equality_failed_at_full_set")}


def test_tall_positive_is_decided_on_the_column_side(monkeypatch):
    pattern = SupportPattern(24, 8, TALL_24X8)
    assert pattern.size() == 60
    scanned = []
    scan = slmf._first_violation

    def spy(masks, m, r, nu):
        scanned.append(m)
        return scan(masks, m, r, nu)

    monkeypatch.setattr(slmf, "_first_violation", spy)
    start = time.perf_counter()
    assert is_relaxed_slmf(pattern, RelaxedParams(2, 2)) == (True, None)
    assert time.perf_counter() - start < 0.1
    assert scanned == [8]
    ok, witness = is_relaxed_slmf(pattern, RelaxedParams(1, 2))
    assert not ok
    assert witness == ViolationWitness((3, 5, 12), 2, 1, "inequality_violated")


def test_relaxed_scan_ceiling_still_counts_rows():
    # 25 rows and 3 columns: the column side is short, the ceiling is on m
    tall = SupportPattern.from_columns(25, [range(1, 26)] * 3)
    for nu in (1, 3):
        with pytest.raises(CapacityError, match="ceiling 24"):
            is_relaxed_slmf(tall, RelaxedParams(nu, 3))
