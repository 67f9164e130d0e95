"""Partition certificates, backtracking search, and closed-form references."""

from __future__ import annotations

import json
import random
import time

import pytest

from conftest import REDUCED_BASE_5X5_GROUPS, RELAXED_NONBASE_5X5, make_pattern
from detmatroid import (ContractError, ParseError, RelaxedParams,
                        certificate_from_groups, is_relaxed_slmf, is_slmf,
                        parse_certificate, partition_search,
                        validate_certificate)


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
        ok, _ = is_relaxed_slmf(reduced_base, RelaxedParams(1, 2, group))
        assert ok


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


def test_validate_certificate_rejects_tampering(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    # building a certificate runs the same group check as validating one
    for groups, message in [([[1, 3, 4], [2, 4, 5]], "column 4 appears in two"),
                            ([[1, 3, 4], [2]], "cover columns 1..5 exactly"),
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


def test_same_phi_flag_detection():
    # two groups inducing the identical column system
    p = make_pattern(4, [[1, 2, 3], [2, 3, 4], [1, 2, 3], [2, 3, 4]])
    cert = partition_search(p, 2)
    assert cert is not None and cert.same_phi
    validate_certificate(p, cert, 2)


def test_zero_excess_columns_do_not_grow_the_search():
    # one full column and singletons: at r = 1 every singleton has zero
    # excess, and the one group takes them all
    n = 40
    p = make_pattern(3, [[1, 2, 3]] + [[1 + j % 3] for j in range(n - 1)])
    start = time.perf_counter()
    cert = partition_search(p, 1)
    assert time.perf_counter() - start < 1.0
    assert cert is not None and cert.groups == (tuple(range(1, n + 1)),)
    validate_certificate(p, cert, 1)


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
                all(is_relaxed_slmf(p, RelaxedParams(1, r, g))[0]
                    for g in groups)
                for groups in _labellings(n, r)
            )
            cert = partition_search(p, r)
            assert (cert is not None) == exists, (m, n, r, p.cols)
            if cert is not None:
                validate_certificate(p, cert, r)
            outcomes.add(exists)
        assert outcomes == {True, False}
