"""Unique completion of generic observed entries in the certified regime.

complete_matrix turns a partition certificate plus observed entries into the
unique rank-r completion when the data is generic, and reports the failing
(r+1)-set otherwise.  Stage 1 takes one left kernel per certificate column
phi, over every observed column whose support contains phi.
"""

from __future__ import annotations

from . import linalg
from .errors import ContractError, GenericityError
from .partition import PartitionCertificate, validate_certificate
from .patterns import SupportPattern, _rows_of


def complete_matrix(
    pattern: SupportPattern,
    r: int,
    cert: PartitionCertificate,
    observed: dict,
    field,
) -> list[list]:
    """Unique rank-r completion of generic observed entries.

    Stage 1 turns each distinct certificate column phi into a normal vector of
    the unknown column space S: the observed columns whose supports contain
    phi, restricted to phi, span pi_phi(S), an r-space for generic data, so
    the left kernel of that (r+1) x k block is a line orthogonal to it.  Any
    other kernel dimension names phi as not generic.  Columns contained in
    fewer than r observed supports give no normal; if fewer than m-r are
    left, no data completes, and ContractError names the first such phi.
    Stage 2 intersects the normals' orthogonal complements; the kernel must
    have dimension exactly r and is taken as a basis B of S.  Stage 3 solves
    pi_omega_j(B) c = pi_omega_j(x_j) for each column and returns B c.

    Raises GenericityError (carrying the failing phi when one is to blame)
    whenever a dimension check fails; resampling the data is the remedy.
    ContractError signals a certificate/observation mismatch instead.
    """
    validate_certificate(pattern, cert, r)
    cells = set(pattern.cells())
    given = set(observed)
    if given != cells:
        missing = sorted(cells - given)[:3]
        extra = sorted(given - cells)[:3]
        raise ContractError(
            "observations must cover the pattern exactly "
            "(missing %s, extra %s)" % (missing, extra)
        )

    phi_masks = sorted({mask for phi in cert.induced for mask in phi.cols},
                       key=_rows_of)
    normals, short = [], None
    for kmask in phi_masks:
        key = _rows_of(kmask)
        eligible = [
            j for j in range(1, pattern.n + 1)
            if kmask & ~pattern.cols[j - 1] == 0
        ]
        if len(eligible) < r:
            short = short or (list(key), len(eligible))
            continue
        rows = [[observed[(i, j)] for i in key] for j in eligible]
        line = linalg.right_kernel(rows, r + 1, field)
        if len(line) != 1:
            raise GenericityError(
                "observed columns containing %s do not span an r-space"
                % (list(key),),
                phi=key,
            )
        normal = [field.zero] * pattern.m
        for a, i in enumerate(key):
            normal[i - 1] = line[0][a]
        normals.append(normal)

    if len(normals) < pattern.m - r:
        raise ContractError(
            "stage 1 finds %d of the m-r=%d normals it needs: certificate "
            "column %s lies in %d observed columns, fewer than r=%d"
            % (len(normals), pattern.m - r, *short, r))
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
