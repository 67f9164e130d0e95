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

    Every step is a call of the packed GF(p) kernel linalg._eliminate_mod_p.
    P is the pivot slots of R's rows.  Cell (i,j) is a row holding R[:,j]
    in slots 0..r-1 and, for j outside P, a unit in a slot of its own, so
    eliminating r slots counts rank A_i and leaves each y in the unit
    slots.  These rows depend only on the support of block i, so blocks
    with the same support are eliminated once, in order of first
    appearance.  A support inside P is not eliminated at all: its R
    columns are independent, so the block has full rank |support| and no
    left-kernel vector.  y's Schur row for block i is the sum of
    (y_j mod p) * L[i,:] packed at the Schur slots of column j: the packed
    L[i,:] times one packed vector of the y_j mod p, shared by the
    support's blocks (no two products meet in a slot).  Nothing is reduced between the stages:
    a block slot takes r updates from below p and a Schur slot at most
    width from below p^2, so w = linalg._slot_width(p, r + width).  L and
    R are drawn entry by entry, row by row and L first, as the dense
    reference in the tests draws them with randrange; _draws gives the
    same values through getrandbits.
    """
    if r < 0:
        raise ContractError("r must be >= 0")
    PrimeField(p)  # refuses a p that is not prime
    if r == 0 or pattern.size() == 0:
        return 0
    m, n = pattern.m, pattern.n
    draws = _draws(seed, p, r * (m + n))
    left = [draws[r * i:r * i + r] for i in range(m)]
    right = [draws[r * m + n * k:r * m + n * k + n] for k in range(r)]
    if n > m:
        left, right = list(zip(*right)), list(zip(*left))
        supports = pattern.cols
        n = m
    else:
        supports = _row_masks(m, pattern.cols)
    groups = {}
    for i, support in enumerate(supports):
        if support:
            groups.setdefault(support, []).append(i)
    kernel, slot_width = linalg._eliminate_mod_p, linalg._slot_width
    w = slot_width(p, n)
    rows = [sum(v << w * j for j, v in enumerate(row)) for row in right]
    gauge = sum(1 << j for j in kernel(rows, n, p, w)[0])
    slot, width = [-1] * n, 0
    for j in range(n):
        if not gauge >> j & 1:
            slot[j], width = width, width + r
    w = slot_width(p, r + width)
    mask = (1 << w) - 1
    heads = [sum(v << w * k for k, v in enumerate(col))
             for col in zip(*right)]
    total, schur = 0, []
    for support, members in groups.items():
        if not support & ~gauge:
            total += support.bit_count() * len(members)
            continue
        cols = [j for j in range(n) if support >> j & 1]
        rows = [heads[j] | (slot[j] >= 0) << w * (r + k)
                for k, j in enumerate(cols)]
        moves = [(w * k, w * slot[j])
                 for k, j in enumerate(cols) if slot[j] >= 0]
        pivots, rest = kernel(rows, r, p, w)
        total += len(pivots) * len(members)
        ys = [sum((y >> s & mask) % p << t for s, t in moves) for y in rest]
        for i in members:
            tail = sum(v << w * k for k, v in enumerate(left[i]))
            schur.extend(y * tail for y in ys)
    return total + len(kernel(schur, width, p, w)[0])


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

    Takes the max of jacobian_rank over at most `trials` trials (rank is
    never overestimated), stopping early once the rank reaches the counting
    ceiling _rank_ceiling, which no trial can exceed.  So a ceiling below
    |Omega| makes 'dependent'/'not_base' exact; at base size that happens
    exactly when some row or column has fewer than r cells.  A trial misses
    the generic rank with probability at most |Omega|/p, so a prime
    p <= |Omega| is refused with ContractError.
    """
    m, n = pattern.m, pattern.n
    if not 0 <= r <= min(m, n):
        raise ContractError("need 0 <= r <= min(m,n), got r=%d m=%d n=%d" % (r, m, n))
    size = pattern.size()
    _check_trials_and_prime(trials, p, size)
    dim = r * (m + n - r)
    best = 0
    ran = 0
    for t in range(trials):
        ran += 1
        rk = jacobian_rank(pattern, r, p, derive_seed(seed, "jacobian-trial-%d" % t))
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
