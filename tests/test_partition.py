"""Partition certificates, backtracking search, and the truncation matroid."""

from __future__ import annotations

import json
import random

import pytest

from conftest import (REDUCED_BASE_5X5_GROUPS, RELAXED_NONBASE_5X5,
                      TRIPLES_BASE_6X8, make_pattern)
from detmatroid import (ContractError, ParseError, RelaxedParams, TruncationMatroid,
                        certificate_from_groups, dilworth_rank,
                        is_relaxed_slmf, is_slmf, pack_bases,
                        parse_certificate, partition_r_eq_m_minus_1,
                        partition_r_eq_m_minus_2, partition_search,
                        truncation_independent, validate_certificate)


def test_search_finds_partition_on_reducible_base(fully_reducible_base):
    cert = partition_search(fully_reducible_base, 2)
    assert cert is not None
    assert cert.groups == ((1, 2, 3), (4, 5))
    validate_certificate(fully_reducible_base, cert)
    for phi in cert.induced:
        assert is_slmf(phi) == (True, None)


def test_search_finds_partition_on_reduced_base(reduced_base):
    cert = partition_search(reduced_base, 2)
    assert cert is not None
    assert cert.groups == ((1, 3, 5), (2, 4))
    validate_certificate(reduced_base, cert)


def test_search_exhausts_without_partition(unpartitionable_base,
                                           relaxed_nonbase):
    assert partition_search(unpartitionable_base, 2) is None
    assert partition_search(relaxed_nonbase, 2) is None


def test_search_warns_off_base_size():
    p = make_pattern(3, [[1, 2], [3]])
    with pytest.warns(UserWarning):
        assert partition_search(p, 1) is None


def test_hand_partition_builds_valid_certificate(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    validate_certificate(reduced_base, cert)
    assert cert.groups == ((1, 3, 4), (2, 5))
    # each group satisfies the single-slack counting condition
    for group in cert.groups:
        ok, _ = is_relaxed_slmf(reduced_base, RelaxedParams(1, 2, group))
        assert ok


def test_certificate_json_round_trip(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    text = cert.to_json()
    again = parse_certificate(text)
    # sources are derived bookkeeping and deliberately not serialized
    assert again.as_dict() == cert.as_dict()
    validate_certificate(reduced_base, again)
    d = json.loads(text)
    assert set(d) == {"r", "groups", "phis", "same_phi"}
    assert d["r"] == 2


def test_parse_certificate_rejects_malformed():
    with pytest.raises(ParseError):
        parse_certificate("{}")
    with pytest.raises(ParseError):
        parse_certificate(json.dumps({"r": 2, "groups": [[1]], "phis": [],
                                      "same_phi": False}))


def test_validate_certificate_rejects_tampering(reduced_base):
    cert = certificate_from_groups(reduced_base, 2, REDUCED_BASE_5X5_GROUPS)
    # groups must cover every column exactly once
    with pytest.raises(ContractError):
        validate_certificate(reduced_base,
                             parse_certificate(json.dumps({
                                 "r": 2,
                                 "groups": [[1, 3, 4], [2, 4, 5]],
                                 "phis": [s for s in json.loads(cert.to_json())["phis"]],
                                 "same_phi": False,
                             })))
    # a certificate for a different pattern must not validate
    other = make_pattern(5, RELAXED_NONBASE_5X5)
    with pytest.raises(ContractError):
        validate_certificate(other, cert)


def test_same_phi_flag_detection():
    # two groups inducing the identical column system
    p = make_pattern(4, [[1, 2, 3], [2, 3, 4], [1, 2, 3], [2, 3, 4]])
    cert = partition_search(p, 2)
    assert cert is not None and cert.same_phi
    cert2 = partition_search(p, 2, prefer_same_phi=True)
    assert cert2 is not None and cert2.same_phi
    validate_certificate(p, cert2)


def test_singleton_groups_when_rank_is_rows_minus_one():
    p = make_pattern(4, [[1, 2, 3, 4]] * 3)
    cert = partition_r_eq_m_minus_1(p)
    assert cert.groups == ((1,), (2,), (3,))
    validate_certificate(p, cert)
    with pytest.raises(ContractError):
        partition_r_eq_m_minus_1(make_pattern(4, [[1, 2, 3]] * 3))


def test_pairing_construction_when_rank_is_rows_minus_two():
    p = make_pattern(5, [[1, 2, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 4],
                         [1, 2, 3, 5], [1, 2, 3, 5]])
    assert is_relaxed_slmf(p, RelaxedParams(3, 3)) == (True, None)
    cert = partition_r_eq_m_minus_2(p)
    assert cert.groups == ((1,), (2, 4), (3, 5))
    validate_certificate(p, cert)
    # rejects a pattern that is not relaxed (r,r,m)
    bad = make_pattern(5, [[1, 2, 3, 4], [1, 2, 3, 4], [1, 2, 3, 4],
                           [1, 2, 3, 4], [1, 2, 3, 5]])
    with pytest.raises(ContractError):
        partition_r_eq_m_minus_2(bad)


def test_truncation_matroid_values(triples_base):
    mat = TruncationMatroid(triples_base, 2)
    n = triples_base.n
    assert dilworth_rank(mat, []) == 0
    for j in range(1, n + 1):
        assert dilworth_rank(mat, [j]) == 1
    assert dilworth_rank(mat, range(1, n + 1)) == triples_base.m - 2
    # independence agrees with rank saturation on every subset
    for mask in range(1 << n):
        subset = [j + 1 for j in range(n) if (mask >> j) & 1]
        assert truncation_independent(mat, subset) == \
            (dilworth_rank(mat, subset) == len(subset))


def test_truncation_matroid_requires_uniform_columns(reduced_base):
    with pytest.raises(ContractError):
        TruncationMatroid(reduced_base, 2)


def test_pack_bases_partitions_the_triples_base(triples_base):
    mat = TruncationMatroid(triples_base, 2)
    bases, witness = pack_bases(mat)
    assert witness is None
    assert bases == [(1, 2, 3, 4), (5, 6, 7, 8)]
    for group in bases:
        ok, _ = is_relaxed_slmf(triples_base, RelaxedParams(1, 2, group))
        assert ok


def test_pack_bases_reports_packing_obstruction():
    p = make_pattern(6, [[1, 2, 3]] * 8)
    mat = TruncationMatroid(p, 2)
    bases, witness = pack_bases(mat)
    assert bases is None and witness is not None
    # the witness subset violates the packing count
    assert witness.size < witness.bound
    comp = [j for j in range(1, 9) if j not in witness.subset]
    fhat = dilworth_rank(mat, comp)
    assert witness.bound == 2 * (6 - 2) - 2 * fhat


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
        validate_certificate(p, cert)
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
    for m, n, r in ((5, 5, 2), (6, 6, 2), (6, 5, 3)):
        target = r * (m + n - r)
        outcomes = set()
        for _ in range(100):
            sizes = [m + 1] * n
            while sum(sizes) != target:
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
                validate_certificate(p, cert)
            outcomes.add(exists)
        assert outcomes == {True, False}
