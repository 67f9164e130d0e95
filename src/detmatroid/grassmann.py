"""Plucker coordinates, sparse orthogonal bases, and matrix completion.

An r-dimensional column space S of an m x r basis matrix B is recorded by its
Plucker vector: the (m choose r) maximal minors of B, indexed by r-subsets of
[m] and well defined up to one global scalar.  For an SLMF column system Phi
these coordinates assemble into

* section forms (one linear condition per (r+1)-set phi: a vector x has
  pi_phi(x) in pi_phi(S) exactly when the alternating sum of x-entries times
  r-minors vanishes, provided pi_phi(S) has full dimension r);
* a sparse m x (m-r) matrix whose j-th column is supported on phi_j and
  orthogonal to S (columns left unnormalized; only their span matters);
* the polynomial p_Phi whose nonvanishing certifies that S is generic for
  Phi (sign convention: rows ordered by ascending column index 2..m-r,
  columns by ascending row index outside phi_1).

complete_matrix turns a partition certificate plus observed entries into the
unique rank-r completion when the data is generic, and reports the failing
(r+1)-set otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice

from . import linalg
from .errors import CapacityError, ContractError, GenericityError
from .partition import PartitionCertificate, validate_certificate
from .patterns import Slmf, SupportPattern, _rows_of

_MINOR_CEILING = 100_000
STAGE1_RETRY_BUDGET = 20


def _subset_key(psi) -> tuple[int, ...]:
    key = tuple(sorted(psi))
    if len(set(key)) != len(key):
        raise ContractError("subset has repeated elements: %r" % (psi,))
    return key


@dataclass(frozen=True)
class PluckerVector:
    """Maximal minors of a rank-r basis, indexed by sorted r-subsets of [m]."""

    r: int
    m: int
    coords: dict
    field: object

    def __post_init__(self):
        if all(v == self.field.zero for v in self.coords.values()):
            raise ContractError("all Plucker coordinates vanish")

    def __getitem__(self, psi):
        key = _subset_key(psi)
        if key not in self.coords:
            raise ContractError("not an r-subset of [m]: %r" % (psi,))
        return self.coords[key]


def plucker_from_basis(basis: list[list], field) -> PluckerVector:
    """All r-minors of an m x r matrix of full column rank."""
    m = len(basis)
    r = len(basis[0]) if basis else 0
    if r == 0 or m < r:
        raise ContractError("basis must be m x r with 1 <= r <= m")
    if linalg.rank(basis, field) != r:
        raise ContractError("basis matrix is rank deficient")
    from math import comb

    if comb(m, r) > _MINOR_CEILING:
        raise CapacityError("C(%d,%d) minors exceed the ceiling" % (m, r))
    coords = {}
    for rows in combinations(range(m), r):
        key = tuple(i + 1 for i in rows)
        coords[key] = linalg.det(linalg.submatrix(basis, rows, range(r)), field)
    return PluckerVector(r, m, coords, field)


def section_form(x: list, phi_set, pl: PluckerVector):
    """Alternating sum sum_a (-1)^(a-1) x[i_a] * [phi minus i_a].

    Vanishes exactly when pi_phi(x) lies in pi_phi(S), provided that
    projection has full dimension r.
    """
    key = _subset_key(phi_set)
    if len(key) != pl.r + 1:
        raise ContractError("phi must have r+1 = %d elements" % (pl.r + 1))
    if len(x) != pl.m:
        raise ContractError("x must have m = %d entries" % pl.m)
    field = pl.field
    acc = field.zero
    for a, i in enumerate(key):
        minor = pl[key[:a] + key[a + 1:]]
        term = field.mul(x[i - 1], minor)
        acc = field.add(acc, field.neg(term) if a % 2 else term)
    return acc


def p_phi(phi: Slmf, pl: PluckerVector):
    """Genericity polynomial of the column system, evaluated at pl.

    Determinant over rows alpha = 2..m-r and columns beta in [m] minus phi_1
    (both ascending) of [phi_alpha minus beta], taken as zero when beta is
    not in phi_alpha.  The empty determinant (m-r = 1) is 1.
    """
    if phi.m != pl.m or phi.r != pl.r:
        raise ContractError("column system and Plucker vector shapes differ")
    field = pl.field
    cols_rows = phi.columns
    outside = [b for b in range(1, phi.m + 1) if b not in set(cols_rows[0])]
    mat = []
    for alpha in range(1, phi.m - phi.r):
        support = set(cols_rows[alpha])
        row = []
        for beta in outside:
            if beta in support:
                row.append(pl[tuple(i for i in cols_rows[alpha] if i != beta)])
            else:
                row.append(field.zero)
        mat.append(row)
    return linalg.det(mat, field)


@dataclass(frozen=True)
class SparsePerp:
    """m x (m-r) matrix whose column j is supported on phi_j, orthogonal to S."""

    phi: Slmf
    matrix: tuple[tuple, ...]

    def as_lists(self) -> list[list]:
        return [list(row) for row in self.matrix]


def sparse_perp(phi: Slmf, pl: PluckerVector) -> SparsePerp:
    """Sparse basis of the orthogonal complement of S, one column per phi_j.

    Column j has entry (-1)^(i-1) [phi_j minus its i-th smallest row] at that
    row, zero elsewhere; columns are unnormalized (each is projective).
    Requires p_Phi(S) nonzero, which makes the columns independent.
    """
    if phi.m != pl.m or phi.r != pl.r:
        raise ContractError("column system and Plucker vector shapes differ")
    if p_phi(phi, pl) == pl.field.zero:
        raise GenericityError("subspace lies outside V_Phi: p_Phi vanishes")
    field = pl.field
    zero = field.zero
    columns = []
    for rows in phi.columns:
        col = [zero] * phi.m
        for i, row in enumerate(rows):
            minor = pl[rows[:i] + rows[i + 1:]]
            col[row - 1] = field.neg(minor) if i % 2 else minor
        columns.append(col)
    matrix = tuple(tuple(col[i] for col in columns) for i in range(phi.m))
    return SparsePerp(phi, matrix)


def _stage1_normal(key, eligible, observed, r, field):
    """Left kernel of r observed columns restricted to key, when it is a line."""
    for combo in islice(combinations(eligible, r), STAGE1_RETRY_BUDGET):
        rows = [[observed[(i, j)] for i in key] for j in combo]
        kernel = linalg.right_kernel(rows, r + 1, field)
        if len(kernel) == 1:
            return kernel[0]
    raise GenericityError(
        "observed columns containing %s do not span an r-space" % (list(key),),
        phi=key,
    )


def complete_matrix(
    pattern: SupportPattern,
    r: int,
    cert: PartitionCertificate,
    observed: dict,
    field,
) -> list[list]:
    """Unique rank-r completion of generic observed entries.

    Stage 1 turns each distinct certificate column phi into a normal vector of
    the unknown column space S: pick r observed columns whose supports contain
    phi (lexicographically smallest first, further combinations up to a small
    retry budget) and whose restrictions to phi span an r-space; the left
    kernel of that (r+1) x r block is a line orthogonal to pi_phi(S), spanned
    by its signed maximal minors.  Columns contained in fewer than r observed
    supports contribute nothing.
    Stage 2 intersects the normals' orthogonal complements; the kernel must
    have dimension exactly r and is taken as a basis B of S.  Stage 3 solves
    pi_omega_j(B) c = pi_omega_j(x_j) for each column and returns B c.

    Raises GenericityError (carrying the failing phi when one is to blame)
    whenever a dimension check fails; resampling the data is the remedy.
    ContractError signals a certificate/observation mismatch instead.
    """
    validate_certificate(pattern, cert, r)
    cells = set()
    for j, mask in enumerate(pattern.cols, start=1):
        for i in _rows_of(mask):
            cells.add((i, j))
    given = set(observed)
    if given != cells:
        missing = sorted(cells - given)[:3]
        extra = sorted(given - cells)[:3]
        raise ContractError(
            "observations must cover the pattern exactly "
            "(missing %s, extra %s)" % (missing, extra)
        )

    phi_keys = sorted({rows for phi in cert.induced for rows in phi.columns})
    normals = []
    for key in phi_keys:
        kmask = 0
        for i in key:
            kmask |= 1 << (i - 1)
        eligible = [
            j for j in range(1, pattern.n + 1)
            if kmask & ~pattern.cols[j - 1] == 0
        ]
        if len(eligible) < r:
            continue  # underdetermined locally; the kernel check gates this
        short = _stage1_normal(key, eligible, observed, r, field)
        normal = [field.zero] * pattern.m
        for a, i in enumerate(key):
            normal[i - 1] = short[a]
        normals.append(normal)

    kernel = linalg.right_kernel(normals, pattern.m, field)
    if len(kernel) != r:
        raise GenericityError(
            "normals cut the column space to dimension %d, expected %d"
            % (len(kernel), r)
        )
    basis = [[kernel[k][i] for k in range(r)] for i in range(pattern.m)]

    out = [[field.zero] * pattern.n for _ in range(pattern.m)]
    for j, mask in enumerate(pattern.cols, start=1):
        rows = _rows_of(mask)
        proj = [basis[i - 1] for i in rows]
        rhs = [observed[(i, j)] for i in rows]
        coeff = linalg.solve_unique(proj, rhs, field)
        if coeff is None:
            raise GenericityError(
                "column %d admits no unique reconstruction" % j
            )
        full = linalg.mat_vec(basis, coeff, field)
        for i in range(pattern.m):
            out[i][j - 1] = full[i]
    return out
