"""Bell basis and the correlation observable used as inference data.

The observable is B = sqrt(2) (sigma_x (x) sigma_x + sigma_z (x) sigma_z),
whose spectral form is 2*sqrt(2) (P_phi_plus - P_psi_minus) with spectrum
{-2*sqrt(2), 0, 0, 2*sqrt(2)}.  Its square, 8 (P_phi_plus + P_psi_minus),
commutes with it and is the second datum of the inference problem.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .smallmat import kron

if TYPE_CHECKING:
    import numpy as np

#: upper end of the admissible range of the correlation datum
B_MAX = 2.0 * math.sqrt(2.0)

_PAULI = {"x": [[0, 1], [1, 0]], "y": [[0, -1j], [1j, 0]], "z": [[1, 0], [0, -1]]}

#: bitwise 1.0 / np.sqrt(2.0): both square roots are correctly rounded
_S = 1.0 / math.sqrt(2.0)
#: basis order |00>, |01>, |10>, |11>; the key order is the label order of bell_projectors
_BELL = {"phi_plus": [_S, 0, 0, _S], "phi_minus": [_S, 0, 0, -_S],
         "psi_plus": [0, _S, _S, 0], "psi_minus": [0, _S, -_S, 0]}
_BELL_LABELS = tuple(_BELL)


def _read_only(values) -> np.ndarray:
    """A new read-only complex array of values; every constant of this module is one."""
    import numpy as np
    a = np.array(values, dtype=complex)
    a.setflags(write=False)
    return a


def pauli(axis: str) -> np.ndarray:
    """Standard Pauli matrix in the up/down basis (up = index 0)."""
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return _read_only(_PAULI[axis])


def bell_state(label: str) -> np.ndarray:
    """One of the four maximally entangled two-qubit states.

    Basis order |00>, |01>, |10>, |11>:
    phi_pm = (|00> pm |11>)/sqrt(2), psi_pm = (|01> pm |10>)/sqrt(2).
    Global phases are fixed exactly as written; no rephasing is applied.
    """
    if label not in _BELL:
        raise ValueError(f"unknown Bell label {label!r}; expected one of {_BELL_LABELS}")
    return _read_only(_BELL[label])


@lru_cache(maxsize=1)
def bell_projectors() -> dict:
    """Rank-one projectors onto the four Bell states, keyed by label."""
    import numpy as np
    vectors = {lab: bell_state(lab) for lab in _BELL_LABELS}
    return {lab: _read_only(np.outer(v, v.conj())) for lab, v in vectors.items()}


class ChshOperators(NamedTuple):
    """The observable and its square, shared immutable constants."""

    b_op: np.ndarray
    b_squared: np.ndarray


@lru_cache(maxsize=1)
def chsh_operator() -> ChshOperators:
    sx, sz = pauli("x"), pauli("z")
    b_op = math.sqrt(2.0) * (kron(sx, sx) + kron(sz, sz))
    return ChshOperators(b_op=_read_only(b_op), b_squared=_read_only(b_op @ b_op))


def chsh_squared() -> np.ndarray:
    """The squared observable built from its spectral projectors directly."""
    projs = bell_projectors()
    return _read_only(8.0 * (projs["phi_plus"] + projs["psi_minus"]))
