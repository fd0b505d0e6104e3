"""Thermodynamic layer over the inferred states.

The entropy of an inferred state is S_q = (Z_q**(1-q) - 1)/(1-q), the
multipliers are its gradient with respect to the data, and
F_q = lambda_1 * b_q + lambda_2 * sigma2_q - S_q plays the role of a free
energy.  The Legendre structure is checked numerically: central differences
of S_q against the analytic multipliers, and the differential identity
dF = b_q dlambda_1 + sigma2_q dlambda_2 along a short feasible path.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import ConstraintError, StencilOutOfDomain
from .bell import B_MAX
from .inference import (
    ConstraintSet,
    InferredState,
    Multipliers,
    _multipliers,
    escort_map,
    escort_weights,
    infer_state,
    qexpm1,
    validate_constraints,
)

if TYPE_CHECKING:
    import numpy as np


def entropy_of_state(s: InferredState) -> float:
    """S_q = qexpm1(ln Z_q, 1 - q), the q-logarithm of the stored normalizer.

    This is (c_q - 1)/(1 - q), continuous through ln Z_q at q = 1; on the pure
    boundary Z_q = 1 and it vanishes identically.  Agrees with the direct
    spectral evaluation on the materialized matrix.
    """
    return qexpm1(math.log(s.Z_q), 1.0 - s.q)


class ThermoPoint(NamedTuple):
    S_q: float
    F_q: float
    multipliers: Multipliers


def free_energy(s: InferredState) -> ThermoPoint:
    """Free energy at an interior point; diverging multipliers propagate."""
    entropy = entropy_of_state(s)
    value, lam1, lam2 = _free_energy(s.constraints, s.weights, s.c_q, s.ln_wz, entropy)
    return ThermoPoint(S_q=entropy, F_q=value, multipliers=Multipliers(lam1, lam2))


def _free_energy(c, w, c_q, ln_wz, entropy):
    """free_energy as (F_q, lambda_1, lambda_2) from the state's weights, c_q, ln_wz and S_q."""
    lam1, lam2 = _multipliers(c, w, c_q, ln_wz)
    return lam1 * c.b_q + lam2 * c.sigma2_q - entropy, lam1, lam2


class LegendreReport(NamedTuple):
    dS_db_fd: float
    dS_dsigma2_fd: float
    lambda_1: float
    lambda_2: float
    rel_err_1: float
    rel_err_2: float
    path_residual: float


def _point(q, b, s2):
    """(c, w, c_q, ln_wz, S_q) at a stencil point, as infer_state and entropy_of_state give them."""
    try:
        c = validate_constraints(q, b, s2)
    except ConstraintError as exc:
        raise StencilOutOfDomain(f"stencil point (b={b}, sigma2={s2}) infeasible: {exc}") from exc
    w = escort_weights(c)
    _, ln_z, ln_wz = escort_map(w.as_tuple(), q)
    return c, w, math.exp((1.0 - q) * ln_z), ln_wz, qexpm1(math.log(math.exp(ln_z)), 1.0 - q)


def legendre_report(c: ConstraintSet, h: float = 1e-5) -> LegendreReport:
    """Finite-difference audit of the multiplier relations and of dF.

    Central differences of S_q(b_q, sigma2_q) with step h are compared
    against the analytic multipliers.  The path residual discretizes
    dF = b_q dlambda_1 + sigma2_q dlambda_2 over ten steps of a straight
    feasible segment (midpoint rule), reporting the worst relative defect.

    Note the multiplier-stationarity identity dS/dlambda = 0 at fixed data
    needs no numerics: in this closed form S_q is a function of the data
    alone, so the derivative vanishes by representation.
    """
    if not 1e-8 <= h <= 1e-3:
        raise ValueError(f"finite-difference step must lie in [1e-8, 1e-3], got {h}")
    q, b, s2 = c
    centre = _free_energy(*_point(q, b, s2))
    _, lam1, lam2 = centre
    s_bp, s_bm, s_sp, s_sm = [_point(q, b + db, s2 + ds)[4]
                              for db, ds in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
    d_s_db, d_s_ds2 = (s_bp - s_bm) / (2.0 * h), (s_sp - s_sm) / (2.0 * h)
    # path point k = 0 is the centre itself, since b + 0*h == b
    path = [(b + k * h, s2 + k * h) for k in range(11)]
    points = [centre] + [_free_energy(*_point(q, *p)) for p in path[1:]]
    residual = 0.0
    for k in range(10):
        (f0, l10, l20), (f1, l11, l21) = points[k], points[k + 1]
        (b0, s0), (b1, s1) = path[k], path[k + 1]
        df = f1 - f0
        predicted = 0.5 * (b0 + b1) * (l11 - l10) + 0.5 * (s0 + s1) * (l21 - l20)
        residual = max(residual, abs(df - predicted) / (abs(df) + 1e-15))
    return LegendreReport(
        dS_db_fd=d_s_db, dS_dsigma2_fd=d_s_ds2, lambda_1=lam1, lambda_2=lam2,
        rel_err_1=abs(d_s_db - lam1) / max(abs(lam1), 1e-12),
        rel_err_2=abs(d_s_ds2 - lam2) / max(abs(lam2), 1e-12), path_residual=residual)


class PurificationPath(NamedTuple):
    """Samples along the minimum-uncertainty line toward the pure corner."""

    t: np.ndarray
    Z_q: np.ndarray
    S_q: np.ndarray
    fidelity: np.ndarray


def purification_path_check(q: float, steps: int) -> PurificationPath:
    """Walk the line sigma2_q = 2*sqrt(2)*b_q with b_q = 2*sqrt(2)*t, t in (0, 1].

    Each point is one infer_state call.  At t = 1 the data force the pure
    maximally entangled state: Z_q = 1 and S_q = 0 exactly.  The fidelity
    recorded is the overlap with that target state, which is simply the
    phi_plus eigenvalue.
    """
    import numpy as np
    if steps < 2:
        raise ValueError(f"need at least 2 path steps, got {steps}")
    ts = np.linspace(1.0 / steps, 1.0, steps)
    states = [infer_state(validate_constraints(q, B_MAX * t, 8.0 * t)) for t in ts.tolist()]
    return PurificationPath(t=ts, Z_q=np.array([s.Z_q for s in states]),
                            S_q=np.array([entropy_of_state(s) for s in states]),
                            fidelity=np.array([s.eig_phi_plus for s in states]))
