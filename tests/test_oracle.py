"""Randomized rank oracle over a prime field."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations

import pytest

from conftest import (assert_case_digests, case_digest, draw_base_size,
                      make_pattern, mat_transpose)
from dense import random_matrix, random_rank_r
from detmatroid import (DEFAULT_PRIME, ContractError, PrimeField,
                        SupportPattern, is_base, jacobian_rank, linalg,
                        oracle, prev_prime, transpose)
from detmatroid.linalg import _eliminate, rank
from detmatroid.oracle import _draws, _rank_ceiling
from detmatroid.seeding import derive_seed


def _jacobian_rank_dense(pattern, r, p=DEFAULT_PRIME, seed=0):
    """Reference Jacobian rank: build the full #Omega x (m+n)r Jacobian at the
    same random (L, R) as jacobian_rank and eliminate all of it with the
    element-wise core, not the packed GF(p) rank that jacobian_rank uses.
    Rows are the cells (row-major); columns are the entries of L, then those
    of R."""
    if r == 0 or pattern.size() == 0:
        return 0
    field = PrimeField(p)
    rng = random.Random(seed)
    left = random_matrix(pattern.m, r, field, rng)
    right = random_matrix(r, pattern.n, field, rng)
    return _dense_jacobian_rank_at(pattern, left, right, field)


def _dense_jacobian_rank_at(pattern, left, right, field):
    """Rank of the dense Jacobian of the observed entries of left*right."""
    m, n, r = pattern.m, pattern.n, len(right)
    jac = []
    for i, j in pattern.cells():
        row = [0] * (m * r + r * n)
        for k in range(r):
            row[(i - 1) * r + k] = right[k][j - 1]
            row[m * r + k * n + (j - 1)] = left[i - 1][k]
        jac.append(row)
    return len(_eliminate(jac, field)[1])


def _dense_complement_rank(pattern, p_basis, q_basis, field):
    """Rank of the rows p (x) q over the cells outside the pattern, for p
    running over the m-vectors p_basis and q over the n-vectors q_basis."""
    cells = set(pattern.cells())
    rows = [[field.reduce(pv[i - 1] * qv[j - 1]) for pv in p_basis
             for qv in q_basis]
            for i in range(1, pattern.m + 1) for j in range(1, pattern.n + 1)
            if (i, j) not in cells]
    return rank(rows, field)


def _recording(monkeypatch):
    """Patch the packed kernel to log (row count, limit, w, pivot count)
    per call."""
    calls = []
    kernel = linalg._eliminate_mod_p

    def recording_kernel(rows, limit, p, w):
        pivots, rest = kernel(rows, limit, p, w)
        calls.append((len(rows), limit, w, len(pivots)))
        return pivots, rest

    monkeypatch.setattr(linalg, "_eliminate_mod_p", recording_kernel)
    return calls


def test_random_rank_r_has_exact_rank():
    field = PrimeField(DEFAULT_PRIME)
    for seed in range(10):
        x = random_rank_r(5, 6, 2, seed=seed)
        assert rank(x, field) == 2
        assert len(x) == 5
        assert all(len(row) == 6 for row in x)
        assert all(0 <= v < DEFAULT_PRIME for row in x for v in row)
    assert rank(random_rank_r(4, 4, 0), field) == 0
    assert rank(random_rank_r(3, 3, 3, seed=1), field) == 3


def test_random_rank_r_is_deterministic_per_seed():
    a = random_rank_r(4, 5, 2, seed=7)
    b = random_rank_r(4, 5, 2, seed=7)
    c = random_rank_r(4, 5, 2, seed=8)
    assert a == b
    assert a != c


def test_jacobian_rank_never_exceeds_variety_dimension():
    rng = random.Random(12)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(0, min(m, n))
        cols = [sorted(rng.sample(range(1, m + 1), rng.randint(0, m)))
                for _ in range(n)]
        p = make_pattern(m, cols)
        got = jacobian_rank(p, r, seed=rng.randrange(2 ** 32))
        assert got <= min(p.size(), r * (m + n - r))


def test_jacobian_rank_matches_dense_reference(monkeypatch):
    # random patterns on both sides of the diagonal, with empty rows and
    # columns; small primes make rank-deficient R and singular blocks common
    rng = random.Random(5)
    cases = []
    for p in (2, 3, 7, DEFAULT_PRIME):
        for _ in range(120):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            density = rng.random()
            empty = set(rng.sample(range(1, m + 1), rng.randint(0, m // 2)))
            cols = [[i for i in range(1, m + 1)
                     if i not in empty and rng.random() < density]
                    for _ in range(n)]
            for j in rng.sample(range(n), rng.randint(0, n // 2)):
                cols[j] = []
            cases.append((make_pattern(m, cols), rng.randint(0, min(m, n)), p))
    # blocks sharing a support of more than r cells, on the columns (n > m)
    # or on the rows (the transpose): at p = 2 and 3 shared blocks are
    # often singular, and every one of them has left-kernel vectors
    dup = random.Random(51)
    for p in (2, 3):
        for t in range(60):
            a = dup.randint(2, 7)
            b = dup.randint(a + 1, 8)
            r = dup.randint(1, a - 1)
            shared = [sorted(dup.sample(range(1, a + 1), dup.randint(r + 1, a)))
                      for _ in range(dup.randint(1, 3))]
            cols = [dup.choice(shared) if dup.random() < 0.6 else
                    sorted(dup.sample(range(1, a + 1), dup.randint(0, a)))
                    for _ in range(b)]
            pattern = make_pattern(a, cols)
            cases.append((transpose(pattern) if t % 2 else pattern, r, p))
    assert any(c[0].n > c[0].m for c in cases)
    assert any(c[0].m > c[0].n for c in cases)
    for m, n, r in ((16, 16, 4), (8, 40, 2)):
        cols = [sorted(rng.sample(range(1, m + 1), rng.randint(r, m)))
                for _ in range(n)]
        cases.append((make_pattern(m, cols), r, DEFAULT_PRIME))
    # base size at 16x16 r=4 with row 1 in r-1 columns, so rank-deficient:
    # a slot that carried would make dependent Schur rows independent
    m, r = 16, 4
    cols = [set(rng.sample(range(2, m + 1), r)) for _ in range(m)]
    for j in rng.sample(range(m), r - 1):
        cols[j].add(1)
    free = [(i, j) for j in range(m) for i in range(2, m + 1) if i not in cols[j]]
    for i, j in rng.sample(free, r * (2 * m - r) - sum(map(len, cols))):
        cols[j].add(i)
    cases.append((make_pattern(m, [sorted(c) for c in cols]), r, DEFAULT_PRIME))
    # base size at 24x24 r=6: the Schur complement has >= 252 - 24*6 rows
    m, r = 24, 6
    cols = [set(rng.sample(range(1, m + 1), r)) for _ in range(m)]
    free = [(i, j) for j in range(m) for i in range(1, m + 1) if i not in cols[j]]
    for i, j in rng.sample(free, r * (2 * m - r) - r * m):
        cols[j].add(i)
    cases.append((make_pattern(m, [sorted(c) for c in cols]), r, DEFAULT_PRIME))
    # the last kernel call of a jacobian_rank is its Schur stage
    calls = _recording(monkeypatch)
    for pattern, r, p in cases:
        seed = rng.randrange(2 ** 32)
        assert (jacobian_rank(pattern, r, p, seed)
                == _jacobian_rank_dense(pattern, r, p, seed)), (pattern, r, p)
    assert calls[-1][0] > 100


def test_jacobian_rank_matches_dense_reference_at_base_size():
    # base-size patterns whose lines all hold at least r+1 cells, where the
    # Schur stage is widest and its rows are eliminated shortest first:
    # the rank must be the dense Jacobian's at the same point.  p = 7 makes
    # rank-deficient points common; at 2^31 - 1 a shortfall is a non-base
    rng = random.Random(83)
    seen = {}
    for t in range(300):
        m, n, r = rng.randint(10, 14), rng.randint(10, 14), rng.randint(2, 4)
        p = (7, 31, DEFAULT_PRIME)[t % 3]
        pattern = draw_base_size(rng, m, n, r, True)
        seed = rng.randrange(2 ** 32)
        got = jacobian_rank(pattern, r, p, seed)
        assert got == _jacobian_rank_dense(pattern, r, p, seed), (
            pattern, r, p, seed)
        key = (p, got == pattern.size())
        seen[key] = seen.get(key, 0) + 1
    assert seen[7, True] >= 10 and seen[7, False] >= 10, seen
    assert seen[DEFAULT_PRIME, True] >= 50, seen
    assert sum(seen.get((p, False), 0) for p in (31, DEFAULT_PRIME)) >= 10, seen


def test_jacobian_rank_eliminates_each_distinct_support_once(monkeypatch):
    # six columns on two supports: the gauge, one call for {1, 2, 3} and
    # the Schur stage, where one call per block would make 1 + 6 + 1; the
    # support {1, 2} lies inside the gauge (rows 1 and 2 of a generic L)
    # and is counted without a call
    calls = _recording(monkeypatch)
    pattern = make_pattern(3, [[1, 2, 3], [1, 2], [1, 2, 3], [1, 2],
                               [1, 2, 3], [1, 2]])
    inside = make_pattern(3, [[1, 2], [1], [2], [1, 2], [1], [2]])
    for seed in range(5):
        del calls[:]
        got = jacobian_rank(pattern, 2, DEFAULT_PRIME, seed)
        assert len(calls) == 3
        assert calls[1][1] == 2
        assert got == _jacobian_rank_dense(pattern, 2, DEFAULT_PRIME, seed)
        # every support inside the gauge: only the gauge and Schur calls
        del calls[:]
        got = jacobian_rank(inside, 2, DEFAULT_PRIME, seed)
        assert len(calls) == 2
        assert got == _jacobian_rank_dense(inside, 2, DEFAULT_PRIME, seed)
    # the same on the rows, with the transpose
    del calls[:]
    assert (jacobian_rank(transpose(pattern), 2, 7, 3)
            == _jacobian_rank_dense(transpose(pattern), 2, 7, 3))
    assert len(calls) == 3


def test_draws_are_the_values_randrange_draws():
    # _draws takes getrandbits with randrange's rejection rule; the dense
    # reference draws through randrange itself, so this pins the two
    # routes together on every CPython the tests run on
    for p in (2, 3, 5, 7, 31, 65521, 2 ** 31 - 1, 2 ** 61 - 1):
        for seed in range(300):
            rng = random.Random(seed)
            assert (_draws(seed, p, 40)
                    == [rng.randrange(p) for _ in range(40)]), (p, seed)


def test_jacobian_rank_slot_widths_follow_the_docstring(monkeypatch):
    # with n' the shorter side: the gauge runs at 2*bitlen(p) + bitlen(n')
    # + 1, every later stage at 2*bitlen(p) + bitlen(r + width) + 1, where
    # width = r * (n' - |gauge|) is the Schur stage's slot count
    calls = _recording(monkeypatch)
    rng = random.Random(29)
    for p in (2, 3, 7, 31, 257, DEFAULT_PRIME):
        for _ in range(25):
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            r = rng.randint(1, min(m, n))
            cols = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
                    for _ in range(n)]
            del calls[:]
            jacobian_rank(make_pattern(m, cols), r, p, rng.randrange(2 ** 32))
            short = min(m, n)
            (_, limit, w, gauge), *rest = calls
            assert limit == short
            assert w == 2 * p.bit_length() + short.bit_length() + 1
            width = r * (short - gauge)
            assert rest[-1][1] == width
            for _, limit, w, _ in rest:
                assert w == 2 * p.bit_length() + (r + width).bit_length() + 1


def test_complement_identity_holds_at_shared_points():
    # at every (L, R) the image of J is orthogonal to {P*Z*Q^T}, with P and
    # Q null-space bases of L^T and R, whatever the ranks of L and R, so
    # rank J = |Omega| + rank{P[i,:] (x) Q[j,:] : (i,j) not in Omega} -
    # dim P * dim Q.  Small primes make singular L or R and deficient
    # Jacobians common
    rng = random.Random(61)
    seen = {"full": 0, "deficient": 0, "singular L or R": 0}
    for t in range(1000):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        r = rng.randint(0, min(m, n))
        field = PrimeField((2, 3, 7, DEFAULT_PRIME)[t % 4])
        pattern = SupportPattern(m, n, tuple(rng.getrandbits(m)
                                             for _ in range(n)))
        left = random_matrix(m, r, field, rng)
        right = random_matrix(r, n, field, rng)
        p_basis = linalg.right_kernel(mat_transpose(left), m, field)
        q_basis = linalg.right_kernel(right, n, field)
        got = _dense_jacobian_rank_at(pattern, left, right, field)
        assert got == (pattern.size() - len(p_basis) * len(q_basis)
                       + _dense_complement_rank(pattern, p_basis, q_basis,
                                                field)), (pattern, r, field.p)
        seen["full" if got == pattern.size() else "deficient"] += 1
        seen["singular L or R"] += (len(p_basis) > m - r
                                    or len(q_basis) > n - r)
    assert min(seen.values()) >= 50, seen


def _routed(pattern, r):
    """is_base's rule for deciding a pattern on its complement."""
    return 3 * (pattern.m - r) * (pattern.n - r) < pattern.size()


def test_routed_is_base_matches_the_dense_reference():
    # patterns that is_base decides on the complement, 2x2 to 9x9 and of
    # every size up to base size + 2, against the dense Jacobian at the
    # first trial's seed: both give the generic rank, each missing it with
    # probability below |Omega|/p < 4e-8 at p = 2^31 - 1
    rng = random.Random(67)
    verdicts = {}
    while sum(verdicts.values()) < 3000:
        m, n = rng.randint(2, 9), rng.randint(2, 9)
        r = rng.randint(1, min(m, n))
        size = rng.randint(1, min(m * n, r * (m + n - r) + 2))
        cols = [0] * n
        for c in rng.sample(range(m * n), size):
            cols[c % n] |= 1 << c // n
        pattern = SupportPattern(m, n, tuple(cols))
        if not _routed(pattern, r):
            continue
        seed = rng.randrange(2 ** 32)
        got = is_base(pattern, r, seed=seed)
        want = _jacobian_rank_dense(pattern, r, DEFAULT_PRIME,
                                    derive_seed(seed, "jacobian-trial-0"))
        assert got.rank_observed == want, (pattern, r, seed)
        verdicts[got.verdict] = verdicts.get(got.verdict, 0) + 1
    positive = verdicts.get("base", 0) + verdicts.get("independent", 0)
    assert 100 <= positive <= 2900, verdicts


def test_is_base_routes_to_the_complement_by_the_ratio(monkeypatch):
    # every trial of a pattern goes to _complement_rank exactly when
    # 3(m-r)(n-r) < |Omega|, r = min(m,n) included, and never at r = 0 or on
    # an empty pattern
    calls = {"complement": 0, "jacobian": 0}

    def counting(name, trial):
        def counted(*args):
            calls[name] += 1
            return trial(*args)
        return counted

    monkeypatch.setattr(oracle, "_complement_rank",
                        counting("complement", oracle._complement_rank))
    monkeypatch.setattr(oracle, "jacobian_rank",
                        counting("jacobian", oracle.jacobian_rank))
    rng = random.Random(71)
    routed = top = 0
    for t in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        r = (min(m, n), 0, rng.randint(0, min(m, n)))[min(t % 4, 2)]
        cols = tuple(0 if t % 10 == 9 else rng.getrandbits(m)
                     for _ in range(n))
        pattern = SupportPattern(m, n, cols)
        before = dict(calls)
        ran = is_base(pattern, r, trials=2, seed=t).trials
        took = {k: calls[k] - before[k] for k in calls}
        if _routed(pattern, r):
            assert took == {"complement": ran, "jacobian": 0}, (pattern, r)
            assert r > 0 and pattern.size() > 0
            routed += 1
            top += r == min(m, n)
        else:
            assert took == {"complement": 0, "jacobian": ran}, (pattern, r)
    assert 50 <= routed <= 350 and top >= 50, (routed, top)


def _top_draws(seed, p, count):
    """Seeded draws from the top three values of [0, p)."""
    rng = random.Random(seed)
    return [p - 1 - rng.randrange(min(p - 1, 3)) for _ in range(count)]


def test_complement_rank_slot_width_holds_at_the_top_of_the_range(
        monkeypatch):
    # with P and Q drawn near p - 1, every slot enters the kernel near
    # (p-1)^2: the packed rank must equal the dense rank of the same rows,
    # and the width must keep (ab + 1) * p^2, the kernel's bound for ab
    # updates of entries below p^2, under 2^(w-1)
    monkeypatch.setattr(oracle, "_draws", _top_draws)
    calls = _recording(monkeypatch)
    rng = random.Random(73)
    for p in (3, 31, 2 ** 31 - 1):
        field = PrimeField(p)
        for _ in range(40):
            m, n = rng.randint(2, 10), rng.randint(2, 10)
            r = rng.randint(0, min(m, n) - 1)
            a, b = m - r, n - r
            pattern = SupportPattern(m, n, tuple(rng.getrandbits(m)
                                                 for _ in range(n)))
            seed = rng.randrange(2 ** 32)
            draws = _top_draws(seed, p, a * m + b * n)
            p_basis = [draws[k:a * m:a] for k in range(a)]
            q_basis = [draws[a * m + l::b] for l in range(b)]
            del calls[:]
            got = oracle._complement_rank(pattern, r, p, seed)
            assert got == pattern.size() - a * b + _dense_complement_rank(
                pattern, p_basis, q_basis, field), (pattern, r, p)
            [(_, limit, w, _)] = calls
            assert limit == a * b and (a * b + 1) * p * p < 2 ** (w - 1)


def _shared_support_corpus(count, seed):
    """Seeded (pattern, r, p, seed) cases up to 9x9 at six primes, with
    about half the columns copied from one to three shared supports and
    about half the patterns transposed, so shared supports fall on both
    sides."""
    rng = random.Random(seed)
    primes = (2, 3, 5, 7, 31, DEFAULT_PRIME)
    for t in range(count):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        shared = [rng.getrandbits(m) for _ in range(rng.randint(1, 3))]
        cols = tuple(rng.choice(shared) if rng.random() < 0.5
                     else rng.getrandbits(m) for _ in range(n))
        pattern = SupportPattern(m, n, cols)
        if rng.random() < 0.5:
            pattern = transpose(pattern)
        yield (pattern, rng.randint(0, min(m, n)), primes[t % len(primes)],
               rng.randrange(2 ** 32))


def test_rank_ceiling_bounds_the_dense_reference():
    # the counting ceiling is an upper bound at every point and prime.  A
    # dense pattern with a row or a column thinned below r cells makes the
    # row or the column count the only binding term
    rng = random.Random(47)
    binding = {"row": 0, "col": 0}
    for t in range(1200):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        r = rng.randint(1, min(m, n))
        density = rng.random() if t % 3 == 0 else 0.5 + rng.random() / 2
        cells = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)
                 if rng.random() < density}
        if t % 3:
            axis = t % 3 - 1  # 0 thins rows, 1 thins columns
            for _ in range(rng.randint(1, 2)):
                k = rng.randint(1, (m, n)[axis])
                line = sorted(c for c in cells if c[axis] == k)
                keep = rng.randint(0, r - 1)
                cells -= set(rng.sample(line, max(0, len(line) - keep)))
        cols = [[i for i in range(1, m + 1) if (i, j) in cells]
                for j in range(1, n + 1)]
        pattern = make_pattern(m, cols)
        ceiling = _rank_ceiling(pattern, r)
        col_count = sum(min(len(c), r) for c in cols) + r * (m - r)
        row_count = (sum(min(sum(i in c for c in cols), r)
                         for i in range(1, m + 1)) + r * (n - r))
        others = min(pattern.size(), r * (m + n - r))
        binding["row"] += row_count < min(col_count, others)
        binding["col"] += col_count < min(row_count, others)
        for p in (2, 3, 7, DEFAULT_PRIME):
            seed = rng.randrange(2 ** 32)
            assert _jacobian_rank_dense(pattern, r, p, seed) <= ceiling, (
                pattern, r, p, seed)
    assert binding["row"] >= 50 and binding["col"] >= 50, binding


def test_is_base_stops_at_a_ceiling_below_base_size():
    # 4x4 r=2 at base size 12 with row 1 in one cell: the row count caps the
    # rank at 1 + 3*2 + 2*2 = 11, so one trial reaching 11 proves not_base;
    # on the transpose the column count does the same
    pattern = make_pattern(4, [[1, 2, 3, 4], [2, 3, 4], [2, 3, 4], [2, 3]])
    assert pattern.size() == 12
    for case in (pattern, transpose(pattern)):
        assert _rank_ceiling(case, 2) == 11
        verdict = is_base(case, 2)
        assert verdict.verdict == "not_base"
        assert verdict.rank_observed == 11 and verdict.trials == 1


def test_jacobian_rank_and_is_base_outputs_are_frozen():
    # every rank and verdict (or refusal) over the corpus, hashed three
    # times: jacobian_rank alone; in full; and with the trial count left
    # out, which pins every verdict and rank_observed apart from when the
    # trials stop.  The trials-free digest was recorded before trials
    # stopped at the counting ceiling, and it and the jacobian_rank digest
    # before is_base came to route trials to _complement_rank, which moved
    # only trial counts.  Each run of 100 cases has its own digest too,
    # naming where a change is
    heads, lines, answers = [], [], []
    for pattern, r, p, seed in _shared_support_corpus(2400, 2026):
        head = "%r %d %d %d" % (pattern.cols, r, p,
                                jacobian_rank(pattern, r, p, seed))
        heads.append(head)
        try:
            verdict = is_base(pattern, r, p, seed=seed)
        except ContractError as exc:
            lines.append("%s %s" % (head, exc))
            answers.append(lines[-1])
            continue
        lines.append("%s %r" % (head, verdict))
        answer = verdict.as_dict()
        del answer["trials"]
        answers.append("%s %r" % (head, answer))
    heads_digest = hashlib.sha256("\n".join(heads).encode()).hexdigest()
    assert heads_digest == ("2b11e6e48715627769f5c7b4c4e15b94"
                            "11c39815221a5781cf10b20526ef6e63")
    assert_case_digests("oracle", [
        ("cases %d-%d" % (k, k + 99),
         case_digest("\n".join(lines[k:k + 100]).encode()))
        for k in range(0, len(lines), 100)])
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    answers_digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()
    assert answers_digest == ("811cb51a923add0d10300805c468d0f8"
                              "a11c9f614c6a9e5a4527262a7eb7c0aa")
    assert digest == ("8f5810b9456b9d1a26a66cf8382ad644"
                      "cc116a372538f28ca0501734901d5da5")


def test_jacobian_rank_runs_only_on_the_packed_kernel(monkeypatch):
    # the gauge, the row blocks and the Schur stage all use the packed GF(p)
    # kernel: no element-wise rref, kernel or rank call is left
    def forbidden(*args, **kwargs):
        raise AssertionError("jacobian_rank called the element-wise core")

    for name in ("rref", "right_kernel", "rank", "_eliminate"):
        monkeypatch.setattr(linalg, name, forbidden)
    rng = random.Random(13)
    for m, n, r, p in ((6, 4, 2, 3), (4, 9, 3, 7), (12, 12, 3, DEFAULT_PRIME)):
        cols = [sorted(rng.sample(range(1, m + 1), rng.randint(1, m)))
                for _ in range(n)]
        assert 0 < jacobian_rank(make_pattern(m, cols), r, p,
                                 seed=rng.randrange(2 ** 32))
    assert is_base(make_pattern(2, [[1, 2], [1]]), 1).verdict == "base"


def test_is_base_on_known_bases(fully_reducible_base, unpartitionable_base,
                                reduced_base, triples_base):
    for p, dim in ((fully_reducible_base, 18), (unpartitionable_base, 18),
                   (reduced_base, 16), (triples_base, 24)):
        verdict = is_base(p, 2)
        assert verdict.verdict == "base"
        assert verdict.rank_observed == verdict.rank_required == dim
        assert verdict.trials == 1


def test_is_base_on_rank_deficient_pattern(relaxed_nonbase):
    verdict = is_base(relaxed_nonbase, 2, trials=5)
    assert verdict.verdict == "not_base"
    assert verdict.rank_observed == 15
    assert verdict.rank_required == 16
    assert verdict.trials == 5


def test_relaxed_nonbase_is_dependent_by_two_minor_fills(relaxed_nonbase):
    # every 3x3 minor of a rank-2 X vanishes.  The minor on rows {1,2,5} x
    # columns {3,4,5} is linear in x55 with the pivot minor {1,2}x{3,4} as
    # coefficient, so it fills x55; then the minor on rows {3,4,5} x
    # columns {1,2,5}, pivot {4,5}x{2,5}, fills x31.  Both use only
    # Omega - (3,1) and the filled cell, so (3,1) is in the closure of the
    # other 15 cells and the rank is at most 15 < 16 = |Omega|
    cells = set(relaxed_nonbase.cells())
    known = cells - {(3, 1)} | {(5, 5)}
    fills = (((5, 5), (1, 2, 5), (3, 4, 5)), ((3, 1), (4, 5, 3), (2, 5, 1)))
    assert (3, 1) in cells and (5, 5) not in cells and len(cells) == 16
    for cell, rows, cols in fills:
        block = {(i, j) for i in rows for j in cols}
        assert block - {cell} <= known and cell == (rows[-1], cols[-1])
    for p in (DEFAULT_PRIME, prev_prime(DEFAULT_PRIME),
              prev_prime(prev_prime(DEFAULT_PRIME))):
        field = PrimeField(p)
        for seed in range(5):
            assert jacobian_rank(relaxed_nonbase, 2, p, seed) == 15
            x = random_rank_r(5, 5, 2, p, seed)
            # x[i][j] = -(minor with a zero there) / pivot minor, the
            # fill's cell last in its block
            for (i, j), rows, cols in fills:
                minor = [[x[a - 1][b - 1] for b in cols] for a in rows]
                minor[2][2] = 0
                pivot = [row[:2] for row in minor[:2]]
                filled = field.reduce(-linalg.det(minor, field)
                                      * field.inv(linalg.det(pivot, field)))
                assert filled == x[i - 1][j - 1]


def test_is_base_oversized_pattern_is_not_base():
    p = make_pattern(3, [[1, 2, 3]] * 3)
    verdict = is_base(p, 1)
    assert verdict.verdict == "not_base"
    assert verdict.dimension == 5 and p.size() == 9


def test_verdicts_below_base_size():
    # spanning tree minus an edge: independent
    p = make_pattern(3, [[1, 2], [2, 3], []])
    verdict = is_base(p, 1)
    assert verdict.verdict == "independent"
    # doubled 2x2 block inside a 3-row grid: a circuit, hence dependent
    q = make_pattern(3, [[1, 2], [1, 2], []])
    verdict = is_base(q, 1)
    assert verdict.verdict == "dependent"


def test_rank_one_bases_are_spanning_trees_exhaustive_small():
    # every size-4 pattern on a 3x2 grid: base iff its graph is a tree
    cells = [(i, j) for i in range(1, 4) for j in range(1, 3)]
    for subset in combinations(cells, 4):
        cols = [sorted(i for i, j in subset if j == c) for c in (1, 2)]
        p = make_pattern(3, cols)
        from detmatroid import is_spanning_tree
        expected = is_spanning_tree(p)
        assert (is_base(p, 1).verdict == "base") == expected


def test_is_base_determinism_and_zero_rank_edges():
    p = make_pattern(3, [[1, 2], [2, 3]])
    assert is_base(p, 1, seed=3) == is_base(p, 1, seed=3)
    assert jacobian_rank(p, 0) == 0
    empty = make_pattern(3, [[], []])
    assert jacobian_rank(empty, 1) == 0
    verdict = is_base(empty, 0)
    assert verdict.verdict == "base"


def test_is_base_contract_errors():
    p = make_pattern(3, [[1, 2], [2, 3]])
    with pytest.raises(ContractError):
        is_base(p, 4)
    with pytest.raises(ContractError):
        is_base(p, 1, trials=0)
    with pytest.raises(ContractError):
        is_base(p, -1)
    # a composite modulus is refused before the early returns of r = 0 and
    # of an empty pattern
    with pytest.raises(ContractError, match="modulus 4 is not prime"):
        is_base(SupportPattern(2, 2, (0, 0)), 1, p=4)
    with pytest.raises(ContractError, match="modulus 4 is not prime"):
        jacobian_rank(p, 0, p=4)

