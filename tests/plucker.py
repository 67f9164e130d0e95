"""Plucker coordinates and sparse orthogonal bases: the Grassmannian reference.

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

No pipeline of the package calls this layer; it is the reference that the
section-product identity (acceptance criterion 2) and the Grassmannian tests
check against.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from dense import submatrix
from detmatroid import CapacityError, ContractError, GenericityError, Slmf
from detmatroid import linalg

_MINOR_CEILING = 100_000


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
    if comb(m, r) > _MINOR_CEILING:
        raise CapacityError("C(%d,%d) minors exceed the ceiling" % (m, r))
    coords = {}
    for rows in combinations(range(m), r):
        key = tuple(i + 1 for i in rows)
        coords[key] = linalg.det(submatrix(basis, rows, range(r)), field)
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
        term = x[i - 1] * pl[key[:a] + key[a + 1:]]
        acc = field.reduce(acc - term if a % 2 else acc + term)
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
            col[row - 1] = field.reduce(-minor) if i % 2 else minor
        columns.append(col)
    matrix = tuple(tuple(col[i] for col in columns) for i in range(phi.m))
    return SparsePerp(phi, matrix)
