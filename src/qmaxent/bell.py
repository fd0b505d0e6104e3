"""Bell basis and the correlation observable used as inference data.

The observable is B = sqrt(2) (sigma_x (x) sigma_x + sigma_z (x) sigma_z),
whose spectral form is 2*sqrt(2) (P_phi_plus - P_psi_minus) with spectrum
{-2*sqrt(2), 0, 0, 2*sqrt(2)}.  Its square, 8 (P_phi_plus + P_psi_minus),
commutes with it and is the second datum of the inference problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from .smallmat import kron

if TYPE_CHECKING:
    import numpy as np

#: upper end of the admissible range of the correlation datum
B_MAX = 2.0 * math.sqrt(2.0)

_BELL_LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")


@lru_cache(maxsize=1)
def _pauli_table() -> dict:
    """The three read-only Pauli matrices, built on first use."""
    import numpy as np
    table = {
        "x": np.array([[0, 1], [1, 0]], dtype=complex),
        "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for m in table.values():
        m.setflags(write=False)
    return table


def pauli(axis: str) -> np.ndarray:
    """Standard Pauli matrix in the up/down basis (up = index 0)."""
    try:
        return _pauli_table()[axis]
    except KeyError:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}") from None


def bell_state(label: str) -> np.ndarray:
    """One of the four maximally entangled two-qubit states.

    Basis order |00>, |01>, |10>, |11>:
    phi_pm = (|00> pm |11>)/sqrt(2), psi_pm = (|01> pm |10>)/sqrt(2).
    Global phases are fixed exactly as written; no rephasing is applied.
    """
    import numpy as np
    s = 1.0 / np.sqrt(2.0)
    table = {
        "phi_plus": [s, 0, 0, s],
        "phi_minus": [s, 0, 0, -s],
        "psi_plus": [0, s, s, 0],
        "psi_minus": [0, s, -s, 0],
    }
    try:
        v = np.array(table[label], dtype=complex)
    except KeyError:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {_BELL_LABELS}") from None
    v.setflags(write=False)
    return v


@lru_cache(maxsize=1)
def bell_projectors() -> dict:
    """Rank-one projectors onto the four Bell states, keyed by label."""
    import numpy as np
    projs = {}
    for lab in _BELL_LABELS:
        v = bell_state(lab)
        projs[lab] = np.outer(v, v.conj())
        projs[lab].setflags(write=False)
    return projs


@dataclass(frozen=True)
class ChshOperators:
    """The observable and its square, shared immutable constants."""

    b_op: np.ndarray
    b_squared: np.ndarray


@lru_cache(maxsize=1)
def chsh_operator() -> ChshOperators:
    import numpy as np
    sx, sz = pauli("x"), pauli("z")
    b_op = np.sqrt(2.0) * (kron(sx, sx) + kron(sz, sz))
    b_squared = b_op @ b_op
    b_op.setflags(write=False)
    b_squared.setflags(write=False)
    return ChshOperators(b_op=b_op, b_squared=b_squared)


def chsh_squared() -> np.ndarray:
    """The squared observable built from its spectral projectors directly."""
    projs = bell_projectors()
    m = 8.0 * (projs["phi_plus"] + projs["psi_minus"])
    m.setflags(write=False)
    return m
