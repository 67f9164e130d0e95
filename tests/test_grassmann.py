"""Minor coordinates and sparse orthogonal bases (the reference layer in
plucker.py), and unique completion."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import FULLY_REDUCIBLE_BASE_6X5, make_pattern, mat_transpose
from dense import mat_mul, random_matrix, random_rank_r
from detmatroid import (ContractError, DEFAULT_PRIME, GenericityError,
                        PrimeField, Rationals, complete_matrix,
                        enumerate_patterns, partition_search)
from detmatroid.linalg import mat_vec, rank
from plucker import p_phi, plucker_from_basis, section_form, sparse_perp


def _random_basis(m, r, field, rng):
    while True:
        basis = random_matrix(m, r, field, rng)
        if rank([row[:] for row in basis], field) == r:
            return basis


def _det2(a, b, c, d, field):
    return field.add(field.mul(a, d), field.neg(field.mul(b, c)))


def test_plucker_coordinates_are_the_r_minors():
    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(31)
    basis = _random_basis(5, 2, field, rng)
    pl = plucker_from_basis(basis, field)
    assert pl.r == 2 and pl.m == 5
    for i, j in combinations(range(1, 6), 2):
        want = _det2(basis[i - 1][0], basis[i - 1][1],
                     basis[j - 1][0], basis[j - 1][1], field)
        assert pl[(i, j)] == want


def test_plucker_scales_by_determinant_under_change_of_basis():
    field = Rationals()
    rng = random.Random(32)
    basis = _random_basis(4, 2, field, rng)
    t = [[Fraction(2), Fraction(3)], [Fraction(1), Fraction(5)]]
    changed = mat_mul(basis, t, field)
    pl1 = plucker_from_basis(basis, field)
    pl2 = plucker_from_basis(changed, field)
    dt = _det2(t[0][0], t[0][1], t[1][0], t[1][1], field)
    for key in pl1.coords:
        assert pl2[key] == field.mul(pl1[key], dt)


def test_plucker_rejects_rank_deficient_basis():
    field = PrimeField(7)
    with pytest.raises(ContractError):
        plucker_from_basis([[1, 2], [2, 4], [3, 6]], field)


def test_section_form_vanishes_exactly_on_members():
    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(33)
    basis = _random_basis(6, 2, field, rng)
    pl = plucker_from_basis(basis, field)
    for phi_set in ([2, 4, 6], [1, 2, 5]):
        member = [field.add(field.mul(row[0], 17), field.mul(row[1], 23))
                  for row in basis]
        assert section_form(member, phi_set, pl) == field.zero
    assert section_form([1, 2, 3, 4, 5, 6], [2, 4, 6], pl) != field.zero
    with pytest.raises(ContractError):
        section_form([1] * 6, [1, 2], pl)


def test_sparse_perp_columns_are_orthogonal_and_sparse(slmf_6x4):
    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(34)
    basis = _random_basis(6, 2, field, rng)
    pl = plucker_from_basis(basis, field)
    sp = sparse_perp(slmf_6x4, pl)
    mat = sp.as_lists()
    bt = mat_transpose(basis)
    for j, support in enumerate(slmf_6x4.columns):
        col = [mat[i][j] for i in range(6)]
        # supported exactly on phi_j, orthogonal to the subspace
        for i in range(1, 7):
            if i not in support:
                assert col[i - 1] == field.zero
        assert any(col[i - 1] != field.zero for i in support)
        assert mat_vec(bt, col, field) == [field.zero, field.zero]


def test_p_phi_is_a_fixed_sign_product_of_three_minors(slmf_6x4):
    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(35)
    for _ in range(20):
        basis = _random_basis(6, 2, field, rng)
        pl = plucker_from_basis(basis, field)
        prod = field.mul(field.mul(pl[(1, 2)], pl[(2, 4)]), pl[(1, 5)])
        assert p_phi(slmf_6x4, pl) == field.neg(prod)


def test_sparse_perp_requires_nonvanishing_genericity_polynomial(slmf_6x4):
    field = PrimeField(DEFAULT_PRIME)
    # rows 1 and 2 proportional makes the [12] minor vanish
    basis = [[1, 0], [2, 0], [0, 1], [3, 4], [5, 6], [7, 8]]
    pl = plucker_from_basis(basis, field)
    assert p_phi(slmf_6x4, pl) == field.zero
    with pytest.raises(GenericityError):
        sparse_perp(slmf_6x4, pl)


def _observe(pattern, x):
    return {(i, j): x[i - 1][j - 1] for (i, j) in pattern.cells()}


def test_completion_round_trip_over_prime_field():
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    field = PrimeField(DEFAULT_PRIME)
    cert = partition_search(pattern, 2)
    for seed in range(5):
        x = random_rank_r(6, 5, 2, seed=seed)
        got = complete_matrix(pattern, 2, cert, _observe(pattern, x), field)
        assert got == x


def test_completion_round_trip_over_rationals():
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    field = Rationals()
    cert = partition_search(pattern, 2)
    rng = random.Random(36)
    left = random_matrix(6, 2, field, rng)
    right = random_matrix(2, 5, field, rng)
    x = mat_mul(left, right, field)
    observed = {(i, j): x[i - 1][j - 1] for (i, j) in pattern.cells()}
    assert complete_matrix(pattern, 2, cert, observed, field) == x


def test_completion_rejects_wrong_observation_support():
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    field = PrimeField(DEFAULT_PRIME)
    cert = partition_search(pattern, 2)
    x = random_rank_r(6, 5, 2, seed=1)
    observed = _observe(pattern, x)
    missing = dict(observed)
    del missing[(1, 1)]
    with pytest.raises(ContractError, match=r"\(1, 1\)"):
        complete_matrix(pattern, 2, cert, missing, field)
    extra = dict(observed)
    extra[(6, 3)] = 5
    with pytest.raises(ContractError):
        complete_matrix(pattern, 2, cert, extra, field)


def test_completion_rejects_rank_mismatched_certificate(reduced_base):
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    field = PrimeField(DEFAULT_PRIME)
    other = partition_search(reduced_base, 2)
    x = random_rank_r(6, 5, 2, seed=2)
    with pytest.raises(ContractError):
        complete_matrix(pattern, 3, partition_search(pattern, 2),
                        _observe(pattern, x), field)
    with pytest.raises(ContractError):
        complete_matrix(pattern, 2, other, _observe(pattern, x), field)


def test_completion_flags_degenerate_observations_as_not_generic():
    pattern = make_pattern(6, FULLY_REDUCIBLE_BASE_6X5)
    field = PrimeField(DEFAULT_PRIME)
    cert = partition_search(pattern, 2)
    x = random_rank_r(6, 5, 1, seed=3)  # rank 1, below the target rank
    with pytest.raises(GenericityError) as info:
        complete_matrix(pattern, 2, cert, _observe(pattern, x), field)
    assert info.value.phi is not None


def test_certified_patterns_observe_each_phi_in_at_most_r_columns():
    # stage 1 takes one kernel over every column containing phi; r+1 such
    # columns would hold a fully observed (r+1) x (r+1) block, a circuit,
    # which a certified (independent) pattern cannot contain
    certs = 0
    for m, n, r in ((5, 5, 2), (5, 6, 2), (6, 5, 3)):
        for pattern in enumerate_patterns(m, n, r):
            cert = partition_search(pattern, r)
            if cert is None:
                continue
            certs += 1
            for phi in cert.induced:
                for key in phi.cols:
                    assert sum(key & ~c == 0 for c in pattern.cols) <= r
    assert certs > 0
