"""Partition certificates, backtracking search, and closed-form references."""

from __future__ import annotations

import json
import random
import time
import tracemalloc
from dataclasses import fields

import pytest

from conftest import (REDUCED_BASE_5X5_GROUPS, RELAXED_NONBASE_5X5,
                      draw_base_size, group_pattern, make_pattern)
import detmatroid
from detmatroid import (CapacityError, ContractError, ParseError,
                        PartitionCertificate, RelaxedParams,
                        certificate_from_groups, enumerate_patterns,
                        is_relaxed_slmf, is_slmf, parse_certificate,
                        partition_search, validate_certificate)


def _partition_r_eq_m_minus_1(pattern):
    """Closed-form partition for r = m-1: all supports full, n = r.

    In this regime the counting identity forces n = m-1 and every column to
    observe all m rows; the singleton groups {1},..,{r} are the certificate.
    """
    m = pattern.m
    r = m - 1
    if r < 1:
        raise ContractError("need m >= 2")
    full = (1 << m) - 1
    for j, mask in enumerate(pattern.cols, start=1):
        if mask != full:
            raise ContractError("column %d must observe all %d rows" % (j, m))
    if pattern.n != r:
        raise ContractError("need n = m-1 = %d, got n=%d" % (r, pattern.n))
    return certificate_from_groups(pattern, r, [(j,) for j in range(1, r + 1)])


def _partition_r_eq_m_minus_2(pattern):
    """Closed-form partition for r = m-2 with all supports of size >= m-1.

    The alpha full columns become singleton groups; the remaining columns of
    size m-1 are sorted so equal supports sit consecutively and the sorted
    sequence s_1..s_{2q} (q = m-2-alpha) is folded into pairs (s_t, s_{t+q}).
    The relaxed (r,r,m) precondition bounds each support's multiplicity by q,
    so no pair repeats a support and every pair is a relaxed (1,r,m) group.
    """
    m = pattern.m
    r = m - 2
    if r < 1:
        raise ContractError("need m >= 3")
    ok, witness = is_relaxed_slmf(pattern, RelaxedParams(r, r))
    if not ok:
        raise ContractError(
            "pattern is not a relaxed (%d,%d,%d)-SLMF: %s"
            % (r, r, m, witness.as_dict())
        )
    full = (1 << m) - 1
    full_cols, partial_cols = [], []
    for j, mask in enumerate(pattern.cols, start=1):
        if mask == full:
            full_cols.append(j)
        elif mask.bit_count() == m - 1:
            partial_cols.append(j)
        else:
            raise ContractError(
                "column %d has %d rows; need m-1 or m" % (j, mask.bit_count())
            )
    alpha = len(full_cols)
    if pattern.n != 2 * m - 4 - alpha:
        raise ContractError(
            "need n = 2m-4-alpha = %d, got n=%d" % (2 * m - 4 - alpha, pattern.n)
        )
    q = m - 2 - alpha
    partial_cols.sort(key=lambda j: (pattern.cols[j - 1], j))
    groups = [(partial_cols[t], partial_cols[t + q]) for t in range(q)]
    groups.extend((j,) for j in full_cols)
    return certificate_from_groups(pattern, r, groups)


def test_search_finds_partition_on_reducible_base(fully_reducible_base):
    cert = partition_search(fully_reducible_base, 2)
    assert cert is not None
    assert cert.groups == ((1, 2, 3), (4, 5))
    validate_certificate(fully_reducible_base, cert, 2)
    for phi in cert.induced:
        assert is_slmf(phi) == (True, None)


def test_search_finds_partition_on_reduced_base(reduced_base, triples_base):
    cert = partition_search(reduced_base, 2)
    assert cert is not None
    assert cert.groups == ((1, 3, 5), (2, 4))
    validate_certificate(reduced_base, cert, 2)
    # every column has r+1 rows: two groups of m-r columns
    cert = partition_search(triples_base, 2)
    assert cert is not None
    assert cert.groups == ((1, 2, 3, 4), (5, 6, 7, 8))
    validate_certificate(triples_base, cert, 2)


def test_search_exhausts_without_partition(unpartitionable_base,
                                           relaxed_nonbase):
    assert partition_search(unpartitionable_base, 2) is None
    assert partition_search(relaxed_nonbase, 2) is None
    # base size, but eight copies of one triple cannot pack two groups
    assert partition_search(make_pattern(6, [[1, 2, 3]] * 8), 2) is None


def test_search_warns_off_base_size():
    p = make_pattern(3, [[1, 2], [3]])
    with pytest.warns(UserWarning):
        assert partition_search(p, 1) is None


def test_hand_partition_builds_valid_certificate(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    validate_certificate(reduced_base, cert, 2)
    assert cert.groups == ((1, 3, 4), (2, 5))
    # each group satisfies the single-slack counting condition
    for group in cert.groups:
        ok, _ = is_relaxed_slmf(group_pattern(reduced_base, group),
                                RelaxedParams(1, 2))
        assert ok


def test_input_partition_implies_relaxed_at_slack_r():
    # certify reads the relaxed (r,r,m) stage off a partition of the input:
    # the r group inequalities sum to it.  So on seeded base-size squares
    # and on every orbit of four census grids, a certificate must meet a
    # passing row scan; equally, a failing scan must meet no certificate
    rng = random.Random(22)
    cases = []
    for k in range(2000):
        m, r = rng.randint(6, 12), rng.choice((2, 3))
        cases.append((draw_base_size(rng, m, m, r, k % 2 == 0), r))
    for m, n, r in ((5, 5, 2), (5, 6, 2), (6, 5, 3), (6, 6, 2)):
        cases.extend((p, r) for p in enumerate_patterns(m, n, r))
    outcomes = set()
    for p, r in cases:
        cert = partition_search(p, r)
        scan = is_relaxed_slmf(p, RelaxedParams(r, r))
        if cert is not None:
            assert scan == (True, None), (p.m, p.cols, r)
        outcomes.add((cert is not None, scan[0]))
    assert {(True, True), (False, False)} <= outcomes


def test_certificate_json_round_trip(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    text = cert.to_json()
    again = parse_certificate(text)
    # nothing is lost: the parsed certificate equals the built one
    assert again == cert
    validate_certificate(reduced_base, again, 2)
    d = json.loads(text)
    assert set(d) == {"r", "groups", "phis", "same_phi"}
    assert d["r"] == 2


def test_parse_certificate_rejects_malformed(reduced_base):
    with pytest.raises(ParseError):
        parse_certificate("{}")
    with pytest.raises(ParseError):
        parse_certificate(json.dumps({"r": 2, "groups": [[1]], "phis": [],
                                      "same_phi": False}))
    # same_phi is derived from the phis, so a flipped flag contradicts them
    d = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS).as_dict()
    d["same_phi"] = not d["same_phi"]
    with pytest.raises(ParseError, match="same_phi flag inconsistent"):
        parse_certificate(json.dumps(d))
    # phis hold JSON integers 0 and 1, not booleans or floats
    for wrong in (True, False, 1.0, 0.0):
        d = certificate_from_groups(reduced_base, 2,
                                    REDUCED_BASE_5X5_GROUPS).as_dict()
        row = d["phis"][1][2]
        row[row.index(int(wrong))] = wrong
        with pytest.raises(ParseError, match=r"phis\[2\] row 3: expected 0/1"):
            parse_certificate(json.dumps(d))


def test_certificate_from_groups_names_malformed_groups(reduced_base):
    # groups are checked as given, before they are sorted, and a bool is
    # not a column index: True would print as true and fail to parse back
    for groups, message in [([[1, "a", 3], [2, 4, 5]], r"group \[1, 'a', 3\]"),
                            ([[1, 3, 4], 7], "group 7"),
                            ([[True, 3, 4], [2, 5]], r"group \[True, 3, 4\]"),
                            ({1: (1, 3, 4), 2: (2, 5)}, "expected a list")]:
        with pytest.raises(ContractError, match=message):
            certificate_from_groups(reduced_base, 2, groups)


def test_validate_certificate_rejects_tampering(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    # building a certificate runs the same group check as validating one
    for groups, message in [([[1, 3, 4], [2, 4, 5]], "column 4 appears in two"),
                            ([[1, 3, 4], [2]], "cover columns 1..5 exactly"),
                            ([[1, 1, 3, 5], [2, 4]],
                             r"column 1 appears twice in group \[1, 1, 3, 5\]"),
                            ([[1, 3, 5], [2, 4, 9]],
                             r"column 9 is out of range 1\.\.5"),
                            ([[1, 3, 4, 2, 5]], "expected 2 groups, got 1"),
                            ([[1, 2, 3, 4, 5], []], "groups must be nonempty")]:
        with pytest.raises(ContractError, match=message):
            certificate_from_groups(reduced_base, 2, groups)
    # groups must cover every column exactly once
    with pytest.raises(ContractError):
        validate_certificate(reduced_base,
                             parse_certificate(json.dumps({
                                 "r": 2,
                                 "groups": [[1, 3, 4], [2, 4, 5]],
                                 "phis": [s for s in json.loads(cert.to_json())["phis"]],
                                 "same_phi": False,
                             })), 2)
    # a certificate for a different pattern must not validate
    other = make_pattern(5, RELAXED_NONBASE_5X5)
    with pytest.raises(ContractError):
        validate_certificate(other, cert, 2)
    # nor one of another rank than the caller asks for
    for r in (1, 3):
        with pytest.raises(ContractError,
                           match="certificate rank 2 differs from r=%d" % r):
            validate_certificate(reduced_base, cert, r)


def test_building_and_validating_reject_a_group_with_one_message(
        relaxed_nonbase, reduced_base):
    # one group check under both routes: columns 1..3 of the relaxed
    # nonbase have excesses summing to m - r = 3, yet two of them hold the
    # same three rows
    groups = ((1, 2, 3), (4, 5))
    with pytest.raises(ContractError) as built:
        certificate_from_groups(relaxed_nonbase, 2, groups)
    induced = certificate_from_groups(reduced_base, 2,
                                      REDUCED_BASE_5X5_GROUPS).induced
    with pytest.raises(ContractError) as checked:
        validate_certificate(relaxed_nonbase,
                             PartitionCertificate(2, groups, induced), 2)
    assert str(built.value) == str(checked.value)
    assert str(built.value).startswith(
        "group [1, 2, 3] is not a relaxed (1,2,5)-SLMF: ")


def test_out_of_range_group_index_is_refused_by_the_group_check(reduced_base):
    # no public route takes column indices past _check_groups: the relaxed
    # check reads a whole pattern, and the SLMF builder is private
    assert "induce_slmf" not in detmatroid.__all__
    assert [f.name for f in fields(RelaxedParams)] == ["nu", "r"]
    induced = certificate_from_groups(reduced_base, 2,
                                      REDUCED_BASE_5X5_GROUPS).induced
    for groups, bad in (([[0, 1], [2, 3, 4, 5]], 0),
                        ([[1, 3, 4], [2, 5, 6]], 6)):
        message = r"^column %d is out of range 1\.\.5$" % bad
        with pytest.raises(ContractError, match=message):
            certificate_from_groups(reduced_base, 2, groups)
        cert = PartitionCertificate(2, tuple(map(tuple, groups)), induced)
        with pytest.raises(ContractError, match=message):
            validate_certificate(reduced_base, cert, 2)


def test_search_refuses_past_the_subset_scan_ceiling():
    # every leaf runs the relaxed check, so the search has no row ceiling
    # of its own: 25 rows are refused by the relaxed scan's
    p = make_pattern(25, [range(1, 26)])
    with pytest.raises(CapacityError,
                       match="^m=25 exceeds the subset-scan ceiling 24$"):
        partition_search(p, 1)


def test_same_phi_flag_detection():
    # two groups inducing the identical column system
    p = make_pattern(4, [[1, 2, 3], [2, 3, 4], [1, 2, 3], [2, 3, 4]])
    cert = partition_search(p, 2)
    assert cert is not None and cert.same_phi
    validate_certificate(p, cert, 2)


def test_zero_excess_columns_do_not_grow_the_search():
    # one full column and singletons: at r = 1 every singleton has zero
    # excess, and the one group takes them all; the search recurses only
    # over the one full column, so 1200 columns stay far from the
    # recursion limit
    for n in (40, 1200):
        p = make_pattern(3, [[1, 2, 3]] + [[1 + j % 3] for j in range(n - 1)])
        start = time.perf_counter()
        cert = partition_search(p, 1)
        assert time.perf_counter() - start < 1.0
        assert cert is not None and cert.groups == (tuple(range(1, n + 1)),)
        validate_certificate(p, cert, 1)


def test_search_memory_stays_polynomial_in_one_large_group():
    # at r = 1 the 17 columns {1, i} form one group; the prune walks the
    # sets holding each new column instead of storing all 2^17 subsets
    p = make_pattern(18, [[1, i] for i in range(2, 19)])
    tracemalloc.start()
    try:
        cert = partition_search(p, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert cert is not None and cert.groups == (tuple(range(1, 18)),)


def test_singleton_groups_when_rank_is_rows_minus_one():
    p = make_pattern(4, [[1, 2, 3, 4]] * 3)
    cert = _partition_r_eq_m_minus_1(p)
    assert cert.groups == ((1,), (2,), (3,))
    validate_certificate(p, cert, 3)
    with pytest.raises(ContractError):
        _partition_r_eq_m_minus_1(make_pattern(4, [[1, 2, 3]] * 3))


def test_pairing_construction_when_rank_is_rows_minus_two():
    p = make_pattern(5, [[1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4],
                         [1, 2, 3, 5], [1, 2, 3, 5]])
    assert is_relaxed_slmf(p, RelaxedParams(3, 3)) == (True, None)
    cert = _partition_r_eq_m_minus_2(p)
    assert cert.groups == ((1,), (2, 4), (3, 5))
    validate_certificate(p, cert, 3)
    # rejects a pattern that is not relaxed (r,r,m)
    bad = make_pattern(5, [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4],
                           [1, 2, 3, 4], [1, 2, 3, 5]])
    with pytest.raises(ContractError):
        _partition_r_eq_m_minus_2(bad)


def _agree_with_closed_form(p, r, reference):
    """Search and closed form agree on existence; both certificates validate."""
    try:
        ref = reference(p)
    except ContractError:
        ref = None
    cert = partition_search(p, r)
    assert (cert is None) == (ref is None), (p.m, r, p.cols)
    for c in (ref, cert):
        if c is not None:
            validate_certificate(p, c, r)
    return cert is not None


def test_search_matches_closed_forms_at_extreme_ranks():
    for m in range(2, 9):
        p = make_pattern(m, [range(1, m + 1)] * (m - 1))
        assert _agree_with_closed_form(p, m - 1, _partition_r_eq_m_minus_1)
    rng = random.Random(22)
    outcomes = set()
    for _ in range(1000):
        m = rng.randint(3, 8)
        alpha = rng.randint(0, m - 3)
        # alpha full columns, the other 2m-4-2alpha miss one row each
        cols = [range(1, m + 1)] * alpha
        for _ in range(2 * m - 4 - 2 * alpha):
            missing = rng.randint(1, m)
            cols.append([i for i in range(1, m + 1) if i != missing])
        rng.shuffle(cols)
        p = make_pattern(m, cols)
        outcomes.add(_agree_with_closed_form(p, m - 2, _partition_r_eq_m_minus_2))
    assert outcomes == {True, False}


def test_search_random_certificates_always_validate():
    rng = random.Random(20)
    found = 0
    for _ in range(60):
        m = rng.randint(3, 5)
        r = rng.randint(1, m - 1)
        n = rng.randint(2, 5)
        cols = [sorted(rng.sample(range(1, m + 1),
                                  rng.randint(1, m))) for _ in range(n)]
        p = make_pattern(m, cols)
        if p.size() != r * (m + n - r):
            continue
        cert = partition_search(p, r)
        if cert is None:
            continue
        found += 1
        validate_certificate(p, cert, r)
    assert found > 0


def _labellings(n, r):
    """Each split of columns 1..n into r non-empty groups, once."""
    def rec(labels, used):
        if len(labels) == n:
            if used == r:
                yield [tuple(j + 1 for j in range(n) if labels[j] == g)
                       for g in range(r)]
            return
        for g in range(min(used + 1, r)):
            labels.append(g)
            yield from rec(labels, max(used, g + 1))
            labels.pop()

    yield from rec([], 0)


def test_search_matches_brute_force_labelling():
    rng = random.Random(21)
    # "pinned" gives every column r+1 rows (so n = r(m-r)); "zero" draws
    # about half the columns at r rows, where the excess is zero
    for m, n, r, draw in ((5, 5, 2, "free"), (6, 6, 2, "free"),
                          (6, 5, 3, "free"), (6, 8, 2, "pinned"),
                          (5, 8, 2, "zero"), (5, 6, 3, "zero")):
        target = r * (m + n - r)
        outcomes = set()
        for _ in range(100):
            sizes = [r + 1 if draw == "pinned" else m + 1] * n
            while sum(sizes) != target:
                if draw == "zero":
                    sizes = [r if rng.random() < 0.5 else rng.randint(r + 1, m)
                             for _ in range(n)]
                else:
                    sizes = [rng.randint(r, m) for _ in range(n)]
            p = make_pattern(m, [sorted(rng.sample(range(1, m + 1), s))
                                 for s in sizes])
            exists = any(
                all(is_relaxed_slmf(group_pattern(p, g), RelaxedParams(1, r))[0]
                    for g in groups)
                for groups in _labellings(n, r)
            )
            cert = partition_search(p, r)
            assert (cert is not None) == exists, (m, n, r, p.cols)
            if cert is not None:
                validate_certificate(p, cert, r)
            outcomes.add(exists)
        assert outcomes == {True, False}
