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
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConstraintError, StencilOutOfDomain
from .bell import B_MAX
from .inference import (
    ConstraintSet,
    InferredState,
    Multipliers,
    infer_state,
    lagrange_multipliers,
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


@dataclass(frozen=True)
class ThermoPoint:
    S_q: float
    F_q: float
    multipliers: Multipliers


def free_energy(s: InferredState) -> ThermoPoint:
    """Free energy at an interior point; diverging multipliers propagate."""
    m = lagrange_multipliers(s)
    entropy = entropy_of_state(s)
    value = m.lambda_1 * s.constraints.b_q + m.lambda_2 * s.constraints.sigma2_q - entropy
    return ThermoPoint(S_q=entropy, F_q=value, multipliers=m)


@dataclass(frozen=True)
class LegendreReport:
    dS_db_fd: float
    dS_dsigma2_fd: float
    lambda_1: float
    lambda_2: float
    rel_err_1: float
    rel_err_2: float
    path_residual: float


def _point(q, b, s2):
    try:
        return infer_state(validate_constraints(q, b, s2))
    except ConstraintError as exc:
        raise StencilOutOfDomain(f"stencil point (b={b}, sigma2={s2}) infeasible: {exc}") from exc


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
    q, b, s2 = c.q, c.b_q, c.sigma2_q
    centre = free_energy(_point(q, b, s2))
    m = centre.multipliers
    s_bp, s_bm, s_sp, s_sm = [entropy_of_state(_point(q, b + db, s2 + ds))
                              for db, ds in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
    d_s_db, d_s_ds2 = (s_bp - s_bm) / (2.0 * h), (s_sp - s_sm) / (2.0 * h)
    rel_1 = abs(d_s_db - m.lambda_1) / max(abs(m.lambda_1), 1e-12)
    rel_2 = abs(d_s_ds2 - m.lambda_2) / max(abs(m.lambda_2), 1e-12)

    steps = 10
    # path point k = 0 is the centre itself, since b + 0*h == b
    points = [(free_energy(_point(q, b + k * h, s2 + k * h)) if k else centre,
               b + k * h, s2 + k * h) for k in range(steps + 1)]
    residual = 0.0
    for k in range(steps):
        t0, b0, s0 = points[k]
        t1, b1, s1 = points[k + 1]
        df = t1.F_q - t0.F_q
        predicted = (0.5 * (b0 + b1) * (t1.multipliers.lambda_1 - t0.multipliers.lambda_1)
                     + 0.5 * (s0 + s1) * (t1.multipliers.lambda_2 - t0.multipliers.lambda_2))
        residual = max(residual, abs(df - predicted) / (abs(df) + 1e-15))
    return LegendreReport(
        dS_db_fd=d_s_db, dS_dsigma2_fd=d_s_ds2,
        lambda_1=m.lambda_1, lambda_2=m.lambda_2,
        rel_err_1=rel_1, rel_err_2=rel_2,
        path_residual=residual,
    )


@dataclass(frozen=True)
class PurificationPath:
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
