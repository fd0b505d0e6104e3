"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything a two-qubit problem needs and nothing more: Kronecker products,
partial trace and partial transpose, and Hermitian eigendecompositions
(LAPACK on arrays, Jacobi on real symmetric lists).  All functions are pure
and never mutate their arguments.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionError, NotHermitian

if TYPE_CHECKING:
    import numpy as np

HERMITIAN_TOL = 1e-10
DM_TOL = 1e-12
#: eigenvalues closer to zero than this are treated as exact zeros
SUPPORT_TOL = 1e-12


def as_matrix(m, dim=None) -> np.ndarray:
    """Coerce to a square complex array of dimension 2 or 4."""
    import numpy as np
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise DimensionError(f"expected a 2x2 or 4x4 matrix, got shape {a.shape}")
    if dim is not None and a.shape[0] != dim:
        raise DimensionError(f"expected a {dim}x{dim} matrix, got {a.shape[0]}x{a.shape[0]}")
    return a


def _checked_eigh(a, tol: float, what: str):
    """``eigh`` of the Hermitian part of a coerced matrix or stack; NotHermitian past tol."""
    import numpy as np
    ah = a.conj().swapaxes(-1, -2)
    if not np.abs(a - ah).max() <= tol:  # NaN and inf entries fail this too
        raise NotHermitian(f"{what} is not Hermitian to {tol:g}")
    return np.linalg.eigh(0.5 * (a + ah))


class Spectrum(NamedTuple):
    """Full spectral decomposition, eigenvalues ascending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _density_spectra(a) -> Spectrum:
    """validate_density_matrix on a coerced matrix or stack, one check and ``eigh`` for all."""
    values, vectors = _checked_eigh(a, DM_TOL, "density matrix")
    tr = a.trace(axis1=-2, axis2=-1)
    if (abs(tr - 1.0) > DM_TOL).any():
        raise ValueError(f"density matrix trace {tr} is not 1 to 1e-12")
    if values.min() < -DM_TOL:
        raise ValueError("density matrix has an eigenvalue below -1e-12")
    return Spectrum(values.clip(0.0), vectors)


def validate_density_matrix(rho) -> Spectrum:
    """Check the density-matrix contract: Hermitian, unit trace, PSD, in that order.

    Tolerances are 1e-12 for hermiticity and trace and -1e-12 for the
    smallest eigenvalue.  Returns the spectrum of the coerced array, taken
    as ``hermitian_eigen`` takes it, with its eigenvalues clipped at 0.
    """
    return _density_spectra(as_matrix(rho))


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators, left factor acting on qubit A.

    Basis order of the product space is |00>, |01>, |10>, |11> with the
    first index belonging to A.
    """
    import numpy as np
    # each entry is one product, so this equals np.kron bit for bit, at a tenth of its cost
    outer = np.multiply.outer(as_matrix(a, dim=2), as_matrix(b, dim=2))
    return outer.transpose(0, 2, 1, 3).reshape(4, 4)


def partial_trace(m, subsystem: str) -> np.ndarray:
    """Trace out one qubit of a 4x4 operator.

    ``subsystem`` names the qubit that is removed: ``"B"`` returns the
    reduced operator of A and vice versa.  The trace is preserved.
    """
    import numpy as np
    a = as_matrix(m, dim=4).reshape(2, 2, 2, 2)
    if subsystem == "B":
        return np.einsum("ibjb->ij", a)
    if subsystem == "A":
        return np.einsum("aiaj->ij", a)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def partial_transpose(m, subsystem: str = "B") -> np.ndarray:
    """Transpose the indices of one qubit only.  Involutive."""
    a = as_matrix(m, dim=4).reshape(2, 2, 2, 2)
    if subsystem == "B":
        return a.transpose(0, 3, 2, 1).reshape(4, 4)
    if subsystem == "A":
        return a.transpose(2, 1, 0, 3).reshape(4, 4)
    raise ValueError(f"subsystem must be 'A' or 'B', got {subsystem!r}")


def hermitian_eigen(m) -> Spectrum:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Eigenvectors are those ``np.linalg.eigh`` returns; their phases, and
    their order inside a degenerate eigenspace, follow no convention.
    Raises :class:`NotHermitian` when the input deviates from Hermiticity
    by more than 1e-10; smaller deviations are symmetrized away.
    """
    return Spectrum(*_checked_eigh(as_matrix(m), HERMITIAN_TOL, "matrix"))


def _jacobi_eigh(m):
    """Eigenvalues and eigenvector columns of a real symmetric list matrix, by cyclic Jacobi."""
    n = len(m)
    a, v = [list(row) for row in m], [[float(i == j) for j in range(n)] for i in range(n)]
    for _ in range(50):
        rotated = False
        for p, r in [(p, r) for p in range(n) for r in range(p + 1, n)]:
            app, arr, apr = a[p][p], a[r][r], a[p][r]
            if abs(app) + 100.0 * abs(apr) == abs(app) and abs(arr) + 100.0 * abs(apr) == abs(arr):
                continue  # too small to move either diagonal entry; a sweep of these ends it
            rotated, theta = True, (arr - app) / (2.0 * apr)
            t = math.copysign(1.0 / (abs(theta) + math.hypot(theta, 1.0)), theta)
            c = 1.0 / math.hypot(t, 1.0)
            s = t * c
            # Rutishauser's update: the diagonal moves by t*apr, not by c*c + s*s = 1 - ulp
            a[p][p], a[r][r], a[p][r], a[r][p] = app - t * apr, arr + t * apr, 0.0, 0.0
            for k in range(n):
                if k != p and k != r:
                    a[k][p], a[k][r] = c * a[k][p] - s * a[k][r], s * a[k][p] + c * a[k][r]
                    a[p][k], a[r][k] = a[k][p], a[k][r]
                v[k][p], v[k][r] = c * v[k][p] - s * v[k][r], s * v[k][p] + c * v[k][r]
        if not rotated:
            break
    return [a[i][i] for i in range(n)], v
