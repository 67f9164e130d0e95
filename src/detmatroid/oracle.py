"""Randomized rank oracle for independence in the rank-r matrix matroid.

A pattern Omega is generically independent iff the Jacobian of the observed
entries of X = L*R with respect to the parameters (L, R) has rank equal to
#Omega at a generic point; evaluating at random (L, R) over GF(p) gives a
Monte Carlo test.  Full rank at any single evaluation is a genuine
certificate of independence (a nonzero minor mod p lifts to a nonzero minor
over the rationals); rank deficiency is evidence of dependence whose error
probability shrinks with repeated trials and distinct primes, and proof of
it when a dimension count caps the rank below #Omega.  A base is an
independent set of size r(m+n-r), the dimension of the rank-<=r variety.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .errors import ContractError
from .fields import DEFAULT_PRIME, PrimeField
from .patterns import SupportPattern, _row_masks
from .seeding import derive_seed

DEFAULT_TRIALS = 3
# is_base uses the complement if this*(m-r)(n-r) < |Omega|: the break-even
# measured before the Schur rows were sorted, which moved it toward 4
COMPLEMENT_RATIO = 3


def _draws(seed: int, p: int, count: int) -> list[int]:
    """The next count values of random.Random(seed).randrange(p), drawn
    without its per-call overhead: getrandbits(bitlen(p)), again while the
    value is not below p, which is the rule randrange follows."""
    bits = random.Random(seed).getrandbits
    k = p.bit_length()
    out = []
    for _ in range(count):
        v = bits(k)
        while v >= p:
            v = bits(k)
        out.append(v)
    return out


def _pack(values, w: int) -> int:
    """values as one int, value k in the w bits from bit w*k."""
    x = 0
    for v in reversed(values):
        x = x << w | v
    return x


def jacobian_rank(pattern: SupportPattern, r: int, p: int = DEFAULT_PRIME,
                  seed: int = 0) -> int:
    """Rank of the Jacobian J of the observed entries of L*R at random (L, R).

    J has one row per cell (i,j), holding R[:,j] in the r columns of L[i,:]
    and L[i,:] in the r columns of R[:,j].  Its rank is computed without
    building it, by three identities that are exact at the sampled point:

    * The L columns are block diagonal by matrix row: block A_i stacks
      R[:,j]^T for the observed j of row i.  So rank J = sum_i rank A_i +
      rank S, where S has one row per left-kernel vector y of some A_i,
      holding y_j * L[i,:] in the columns of R[:,j].
    * With n > m the problem is transposed (L and R^T swap after drawing),
      so the blocks run along the longer side and S is narrow.
    * The gauge (L, R) -> (Lg, g^-1 R) fixes L*R, so J vanishes on the
      tangents (L*X, -X*R).  For the pivot columns P of R, R[:,P] has
      independent columns, so X*R[:,P] can match any change of R[:,P]: the
      columns of R[:,P] can be dropped from S without changing the image of J.

    Every step is a call of the packed GF(p) kernel linalg._eliminate_mod_p:
    the gauge, one call per distinct support outside P, then the Schur
    stage.  P is the pivot slots of R's rows.  Cell (i,j) is a row holding
    R[:,j] in slots 0..r-1 and, for j outside P, a unit in a slot of its
    own (slot r+k for the k-th such j of the support), so eliminating r
    slots counts rank A_i and leaves each y in the unit slots.  These rows
    depend only on the support of block i, so blocks with the same support
    are eliminated once, in order of first appearance.  A support inside P
    is not eliminated at all: its R columns are independent, so the block
    has full rank |support| and no left-kernel vector.  y's Schur row for
    block i is the sum of (y_j mod p) * L[i,:] packed at the Schur slots of
    column j: the packed L[i,:] times one packed vector of the y_j mod p,
    shared by the support's blocks (no two products meet in a slot).
    The Schur rows are eliminated shortest first: the pivot slots depend
    only on the row space, and a shorter pivot updates rows without
    lengthening them, where the first in build order may reach far right.
    Nothing is reduced between the stages: a block slot takes r updates
    from below p and a Schur slot at most width from below p^2, so
    w = linalg._slot_width(p, r + width).  L and R are drawn entry by
    entry, row by row and L first, as the dense reference in the tests
    draws them with randrange; _draws gives the same values through
    getrandbits.  Each row of L and R, or of their transposes, is a slice
    of that one list of draws (strided for a column), packed by _pack's
    shifts and ors; a support's columns are its set bits.
    """
    if r < 0:
        raise ContractError("r must be >= 0")
    PrimeField(p)  # refuses a p that is not prime
    if r == 0 or pattern.size() == 0:
        return 0
    m, n = pattern.m, pattern.n
    draws = _draws(seed, p, r * (m + n))
    if n > m:  # L's rows are R's columns, R's rows are L's columns
        left = [draws[r * m + i::n] for i in range(n)]
        right = [draws[t:r * m:r] for t in range(r)]
        supports, n = pattern.cols, m
    else:
        left = [draws[r * i:r * i + r] for i in range(m)]
        right = [draws[r * m + n * k:r * m + n * k + n] for k in range(r)]
        supports = _row_masks(m, pattern.cols)
    groups = {}
    for i, support in enumerate(supports):
        if support:
            groups.setdefault(support, []).append(i)
    kernel, slot_width = linalg._eliminate_mod_p, linalg._slot_width
    w = slot_width(p, n)
    rows = [_pack(values, w) for values in right]
    gauge = sum(1 << j for j in kernel(rows, n, p, w)[0])
    slot, width = [-1] * n, 0
    for j in range(n):
        if not gauge >> j & 1:
            slot[j], width = width, width + r
    w = slot_width(p, r + width)
    mask = (1 << w) - 1
    heads = [_pack(values, w) for values in zip(*right)]
    total, schur = 0, []
    for support, members in groups.items():
        if not support & ~gauge:
            total += support.bit_count() * len(members)
            continue
        rows, moves, unit = [], [], 1 << w * r
        while support:
            low = support & -support
            support ^= low
            j = low.bit_length() - 1
            if gauge & low:
                rows.append(heads[j])
            else:
                rows.append(heads[j] | unit)
                unit <<= w
                moves.append(w * slot[j])
        pivots, rest = kernel(rows, r, p, w)
        total += len(pivots) * len(members)
        if not rest:
            continue
        ys = []
        for y in rest:
            z = 0
            for t in moves:
                z |= (y & mask) % p << t
                y >>= w
            ys.append(z)
        for i in members:
            tail = _pack(left[i], w)
            schur.extend(y * tail for y in ys)
    schur.sort(key=int.bit_length)
    return total + len(kernel(schur, width, p, w)[0])


def _complement_rank(pattern: SupportPattern, r: int, p: int,
                     seed: int) -> int:
    """The Jacobian's rank at a random point, read off the complement.

    At (L, R) of rank r the image of J is {A*R + L*B}, whose orthogonal
    complement is {P*Z*Q^T}, with P (m x a, a = m-r) and Q (n x b, b = n-r)
    spanning the null spaces of L^T and R; entry (i,j) of P*Z*Q^T is
    <P[i,:] (x) Q[j,:], Z>.  So rank J = |Omega| - ab + the rank of the
    rows P[i,:] (x) Q[j,:] of the cells (i,j) outside Omega.  Every minor of
    those rows is an integer polynomial in P and Q, so their rank at any
    point is at most the generic rank, which the identity gives at a generic
    (L, R), whose null spaces are generic: the value never exceeds the
    generic Jacobian rank, so the counting ceiling stays a sound stop and
    |Omega| proves independence.  Entries have degree 2, so a trial misses
    with probability at most 2ab/p < |Omega|/p on the patterns is_base
    routes here, which its refusal of p <= |Omega| covers.

    P is drawn row by row, then Q, through _draws.  Cell (i,j)'s row holds
    P[i,k]*Q[j,l] in slot k*b + l: P[i,:] packed at a stride of b slots
    times the packed Q[j,:].  A slot gathers that product and ab updates,
    so w = linalg._slot_width(p, ab + 1).
    """
    m, n, size = pattern.m, pattern.n, pattern.size()
    a, b = m - r, n - r
    if not a * b:
        return size
    draws = _draws(seed, p, a * m + b * n)
    w = linalg._slot_width(p, a * b + 1)
    left = [_pack(draws[a * i:a * i + a], w * b) for i in range(m)]
    rows = []
    for j, col in enumerate(pattern.cols):
        tail = _pack(draws[a * m + b * j:a * m + b * j + b], w)
        rows.extend(left[i] * tail for i in range(m) if not col >> i & 1)
    return size - a * b + len(linalg._eliminate_mod_p(rows, a * b, p, w)[0])


def _rank_ceiling(pattern: SupportPattern, r: int) -> int:
    """An upper bound on the generic rank of the pattern's Jacobian, by
    counting: the least of |Omega|, r(m+n-r), sum_j min(|omega_j|, r) +
    r(m-r) and sum_i min(d_i, r) + r(n-r), with d_i the degree of row i.

    The image of J at (L, R) is the tangents dL*R + L*dR restricted to
    Omega.  Where L has rank r (a generic point), write dL = dL' + L*g with
    dL' in a fixed complement of {L*g}, of dimension r(m-r); then dL*R +
    L*dR = dL'*R + L*dR' with dR' = dR + g*R.  The dL' part spans at most
    r(m-r) dimensions, and the L*dR' part shows in column j only through
    L[omega_j, :], of rank at most min(|omega_j|, r).  So the generic rank
    is at most sum_j min(|omega_j|, r) + r(m-r); the row count is the same
    argument on the transpose.  The rank at any point, over GF(p) too, is
    at most the generic rank (a nonzero minor mod p is a nonzero
    polynomial), so no trial exceeds this ceiling.
    """
    m, n = pattern.m, pattern.n
    reach = [0] * r  # reach[k]: the rows in more than k columns so far
    for carry in pattern.cols:
        for k in range(r):
            reach[k], carry = reach[k] | carry, reach[k] & carry
    return min(pattern.size(), r * (m + n - r),
               sum(min(col.bit_count(), r) for col in pattern.cols)
               + r * (m - r),
               sum(mask.bit_count() for mask in reach) + r * (n - r))


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of the randomized independence test.

    rank_required is the size of the pattern (what independence demands);
    dimension is r(m+n-r), the variety dimension a base must match.
    'independent'/'base' are certified by the full-rank witness.
    'dependent'/'not_base' are exact when the counting ceiling of
    _rank_ceiling is below rank_required, and otherwise Monte Carlo
    evidence from every trial falling short.  trials counts the trials run,
    which stop once rank_observed reaches that ceiling.
    """

    verdict: str
    trials: int
    p: int
    rank_observed: int
    rank_required: int
    dimension: int

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "trials": self.trials,
            "p": self.p,
            "rank_observed": self.rank_observed,
            "rank_required": self.rank_required,
            "dimension": self.dimension,
        }


def _check_trials_and_prime(trials: int, p: int, size: int | None = None) -> None:
    """Refuse trials < 1, a p that is not prime, and p <= size (|Omega|)."""
    if trials < 1:
        raise ContractError("trials must be >= 1")
    if size is not None and p <= size:
        raise ContractError(
            "prime p=%d must exceed |Omega|=%d: a trial misses full rank with "
            "probability up to |Omega|/p (Schwartz-Zippel)" % (p, size))
    PrimeField(p)  # refuses a p that is not prime


def is_base(pattern: SupportPattern, r: int, p: int = DEFAULT_PRIME,
            trials: int = DEFAULT_TRIALS, seed: int = 0) -> OracleVerdict:
    """Classify the pattern: base / not_base at size r(m+n-r), else
    independent / dependent.

    Takes the max over at most `trials` trials (rank is never
    overestimated), stopping early once the rank reaches the counting
    ceiling _rank_ceiling, which no trial can exceed.  So a ceiling below
    |Omega| makes 'dependent'/'not_base' exact; at base size that happens
    exactly when some row or column has fewer than r cells.  Each trial is
    jacobian_rank, or _complement_rank when COMPLEMENT_RATIO * (m-r)(n-r) <
    |Omega|.  A trial misses the generic rank with probability at most
    |Omega|/p, so a prime p <= |Omega| is refused with ContractError.
    """
    m, n = pattern.m, pattern.n
    if not 0 <= r <= min(m, n):
        raise ContractError("need 0 <= r <= min(m,n), got r=%d m=%d n=%d" % (r, m, n))
    size = pattern.size()
    _check_trials_and_prime(trials, p, size)
    dim = r * (m + n - r)
    trial = (_complement_rank if COMPLEMENT_RATIO * (m - r) * (n - r) < size
             else jacobian_rank)
    best = 0
    ran = 0
    for t in range(trials):
        ran += 1
        rk = trial(pattern, r, p, derive_seed(seed, "jacobian-trial-%d" % t))
        if rk > best:
            best = rk
        # the ceiling is at most size, and is only counted on a shortfall
        if best == size or best == _rank_ceiling(pattern, r):
            break
    if size == dim:
        verdict = "base" if best == size else "not_base"
    elif size < dim:
        verdict = "independent" if best == size else "dependent"
    else:
        verdict = "not_base"  # more cells than the variety dimension
    return OracleVerdict(verdict, ran, p, best, size, dim)
