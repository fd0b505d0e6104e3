"""Dense complex linear algebra for 2x2 and 4x4 operators.

Everything a two-qubit problem needs and nothing more: Kronecker products,
partial trace and partial transpose, and Hermitian eigendecompositions.
All functions are pure and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

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


def is_hermitian(m) -> bool:
    import numpy as np
    a = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(a - a.conj().T)) <= HERMITIAN_TOL)


def validate_density_matrix(rho) -> Spectrum:
    """Check the density-matrix contract: Hermitian, unit trace, PSD.

    Tolerances are 1e-12 for hermiticity and trace and -1e-12 for the
    smallest eigenvalue.  Returns the spectrum of the coerced array, taken
    as ``hermitian_eigen`` takes it, with its eigenvalues clipped at 0.
    """
    import numpy as np
    a = as_matrix(rho)
    if np.max(np.abs(a - a.conj().T)) > DM_TOL:
        raise NotHermitian("density matrix is not Hermitian to 1e-12")
    tr = np.trace(a)
    if abs(tr - 1.0) > DM_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 to 1e-12")
    values, vectors = np.linalg.eigh(0.5 * (a + a.conj().T))
    if values.min() < -DM_TOL:
        raise ValueError("density matrix has an eigenvalue below -1e-12")
    return Spectrum(eigenvalues=np.clip(values, 0.0, None), eigenvectors=vectors)


@dataclass(frozen=True)
class Spectrum:
    """Full spectral decomposition, eigenvalues ascending, eigenvectors as columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 operators, left factor acting on qubit A.

    Basis order of the product space is |00>, |01>, |10>, |11> with the
    first index belonging to A.
    """
    import numpy as np
    return np.kron(as_matrix(a, dim=2), as_matrix(b, dim=2))


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
    import numpy as np
    a = as_matrix(m)
    if not is_hermitian(a):
        raise NotHermitian("matrix is not Hermitian to 1e-10")
    sym = 0.5 * (a + a.conj().T)
    values, vectors = np.linalg.eigh(sym)
    return Spectrum(eigenvalues=values, eigenvectors=vectors)
