"""Closed-form maximum-Tsallis-entropy state from two-qubit correlation data.

The data are the escort expectation b_q of the observable B and the escort
expectation sigma2_q of B**2, taken with respect to the entropic index q.
Under these two constraints plus normalization, the entropy maximizer is
diagonal in the Bell basis and its spectrum has a closed form: writing

    w_plus  = (sigma2_q + 2*sqrt(2)*b_q) / 16      (phi_plus slot)
    w_minus = (sigma2_q - 2*sqrt(2)*b_q) / 16      (psi_minus slot)
    w_zero  = (8 - sigma2_q) / 16                  (each of phi_minus, psi_plus)

the eigenvalues are lambda_i = w_i**(1/q) / Y with Y = sum_i w_i**(1/q)
counted with multiplicity.  The w_i are exactly the escort weights
lambda_i**q / sum_j lambda_j**q of the optimal state, so the constraints
are reproduced identically.  The partition normalizer satisfies
Y = Z**((q-1)/q), and c_q = Tr rho**q = Z**(1-q) = Y**(-q).

Everything here is evaluated through logarithms of the weights and the
q-deformed pair qexpm1(a, t) = expm1(a*t)/t and qlog1p(x, t) = log1p(t*x)/t,
which tend to a and x as t -> 0.  With a_i = ln w_i, a* = max_i a_i and
e = (1-q)/q,

    ln Z_q = -(a* + qlog1p(sum_i w_i*qexpm1(a_i - a*, e), e))
    S_q    = qexpm1(ln Z_q, 1-q),    c_q = exp((1-q)*ln Z_q)

so the Gibbs / von Neumann limit q -> 1 is continuous and needs no branch.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, NamedTuple

from .bell import B_MAX, bell_projectors
from .errors import (
    BOutOfRange,
    BoundaryDivergence,
    FloatRangeExceeded,
    NegativeBracket,
    QOutOfDomain,
    SigmaOutOfRange,
    UncertaintyViolated,
)

if TYPE_CHECKING:
    import numpy as np

#: closed inequalities in the data domain are enforced with this slack
VALIDATION_TOL = 1e-12
SIGMA_MAX = 8.0


def qexpm1(a, t):
    """expm1(a*t)/t on floats or arrays, continuous through t = 0 where it equals a."""
    if t == 0.0:
        return a
    x = a * t
    if isinstance(x, float):
        return math.expm1(x) / t
    import numpy as np
    return np.expm1(x) / t


def qexpm1_scaled(w: float, a: float, t: float) -> float:
    """w*qexpm1(a, t) for a float w > 0, as exp(ln w + a*t)*qexpm1(a, -t) where a*t > 0."""
    if a * t > 0.0:
        return math.exp(math.log(w) + a * t) * qexpm1(a, -t)
    return w * qexpm1(a, t)


def qlog1p(x, t):
    """log1p(t*x)/t on floats, continuous through t = 0 where it equals x."""
    if t == 0.0:
        return x
    return math.log1p(x * t) / t


def _check_q(q: float) -> None:
    if not sys.float_info.min <= q < math.inf:
        raise QOutOfDomain(f"entropic index q={q} is not a normal float >= {sys.float_info.min}")


class ConstraintSet(NamedTuple("ConstraintSet", [("q", float), ("b_q", float),
                                                  ("sigma2_q", float)])):
    """Validated problem input (q, b_q, sigma2_q).

    Construction enforces the data domain: q > 0 (a normal float), 0 <= b_q <= 2*sqrt(2),
    sigma2_q <= 8 and the uncertainty relation sigma2_q >= 2*sqrt(2)*b_q,
    all with slack 1e-12.  _make and _replace build through the same checks.
    """

    __slots__ = ()

    def __new__(cls, q: float, b_q: float, sigma2_q: float):
        b, s2 = b_q, sigma2_q
        _check_q(q)
        if not math.isfinite(b) or b < -VALIDATION_TOL or b > B_MAX + VALIDATION_TOL:
            raise BOutOfRange(f"b_q={b} outside [0, 2*sqrt(2)={B_MAX:.7f}]")
        if not math.isfinite(s2) or s2 > SIGMA_MAX + VALIDATION_TOL:
            raise SigmaOutOfRange(f"sigma2_q={s2} exceeds the maximum 8")
        if s2 - B_MAX * b < -VALIDATION_TOL:
            raise UncertaintyViolated(
                f"uncertainty relation sigma2_q >= 2*sqrt(2)*b_q violated: "
                f"{s2} < {B_MAX * b:.7g}"
            )
        return super().__new__(cls, q, b_q, sigma2_q)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def validate_constraints(q: float, b: float, s2: float) -> ConstraintSet:
    """Validate raw data, raising a typed error naming the violated inequality."""
    return ConstraintSet(q=float(q), b_q=float(b), sigma2_q=float(s2))


class EscortWeights(NamedTuple):
    """Escort distribution of the optimal spectrum; w_zero is doubly occupied."""

    w_plus: float
    w_minus: float
    w_zero: float

    def as_tuple(self):
        return (self.w_plus, self.w_minus, self.w_zero, self.w_zero)


def _clamp01(w: float) -> float:
    if w < 0.0:
        return 0.0
    return 1.0 if w > 1.0 else w


def escort_weights(c: ConstraintSet) -> EscortWeights:
    """Escort weights of the optimal state, linear in the data.

    Every negative weight, which boundary data (sigma2_q = 2*sqrt(2)*b_q or sigma2_q = 8)
    reach within the 1e-12 validation slack, is clamped to exact zero, as is negative b_q dust,
    and a w_plus the slack lifts above 1 is clamped to exact one.
    """
    t = B_MAX * max(c.b_q, 0.0)
    return EscortWeights(
        w_plus=_clamp01((c.sigma2_q + t) / 16.0),
        w_minus=_clamp01((c.sigma2_q - t) / 16.0),
        w_zero=_clamp01((8.0 - c.sigma2_q) / 16.0),
    )


class InferredState(NamedTuple):
    """Bell-diagonal maximum-entropy state.

    eig_phi_plus, eig_psi_minus and the doubly degenerate eig_deg are the
    eigenvalues on the phi_plus, psi_minus and {phi_minus, psi_plus} slots.
    Z_q is the partition normalizer, c_q = Z_q**(1-q) = Tr rho**q, ln_wz = ln(w_max*Z_q).
    """

    constraints: ConstraintSet
    weights: EscortWeights
    eig_phi_plus: float
    eig_psi_minus: float
    eig_deg: float
    Z_q: float
    c_q: float
    ln_wz: float

    @property
    def q(self) -> float:
        return self.constraints.q

    def eigenvalues(self):
        """Spectrum as (phi_plus, psi_minus, deg, deg)."""
        return (self.eig_phi_plus, self.eig_psi_minus, self.eig_deg, self.eig_deg)

    @property
    def lambda_max(self) -> float:
        return max(self.eig_phi_plus, self.eig_deg)


def escort_map(w, q: float):
    """The closed form on escort weights w (floats summing to one): (roots, ln Z_q, ln(w_max*Z_q)).

    The eigenvalues are roots / sum(roots), the roots w_i**(1/q) relative to the largest so
    that they cannot all underflow.  The sum in ln Z_q is taken term by term with
    qexpm1_scaled, so for q > 1 subnormal w_i cannot overflow it.
    """
    e = (1.0 - q) / q
    top = math.log(max(w))
    roots, x_sum = [], 0.0
    for x in w:
        if x > 0.0:
            a = math.log(x)
            roots.append(math.exp(a / q - top / q))
            x_sum += qexpm1_scaled(x, a - top, e)
        else:
            roots.append(0.0)
    ln_wz = 0.0 - qlog1p(x_sum, e)  # ln Z_q + a*, accurate however small q is; +0 if pure
    return roots, ln_wz - top, ln_wz


def infer_state(c: ConstraintSet) -> InferredState:
    """Evaluate the closed-form spectrum, normalizer and c_q for the data.

    ln Z_q and c_q are the q-logarithm forms of the module docstring; at q = 1
    the eigenvalues equal the weights and ln Z_q is their Gibbs entropy.
    """
    w = escort_weights(c)
    q = c.q
    (yp, ym, y0, _), ln_z, ln_wz = escort_map(w.as_tuple(), q)
    y_norm = yp + ym + 2.0 * y0
    return InferredState(
        constraints=c, weights=w,
        eig_phi_plus=yp / y_norm, eig_psi_minus=ym / y_norm, eig_deg=y0 / y_norm,
        Z_q=math.exp(ln_z), c_q=math.exp((1.0 - q) * ln_z), ln_wz=ln_wz,
    )


class SpectrumBatch(NamedTuple):
    """The validation mask and infer_state's lambda_max at one q; NaN where infeasible."""

    feasible: np.ndarray
    lambda_max: np.ndarray


def infer_spectra(q: float, b_q, sigma2_q) -> SpectrumBatch:
    """infer_state's lambda_max in one numpy pass over arrays of (b_q, sigma2_q), to a few ulp.

    Cells that validate_constraints would reject are masked, not raised, and skipped.  The
    clamps and the max-shifted roots are escort_map's, which alone evaluates ln Z_q; the
    largest root is exactly 1, so lambda_max is the reciprocal of the root sum.
    """
    import numpy as np
    _check_q(q)
    b, s2 = np.asarray(b_q, dtype=float), np.asarray(sigma2_q, dtype=float)
    t = B_MAX * b
    # NaN and infinite data fail at least one of these comparisons
    feasible = ((b >= -VALIDATION_TOL) & (b <= B_MAX + VALIDATION_TOL)
                & (s2 <= SIGMA_MAX + VALIDATION_TOL) & (s2 - t >= -VALIDATION_TOL))
    s2, t = s2[feasible], B_MAX * np.maximum(b[feasible], 0.0)
    w = np.stack([(s2 + t) / 16.0, (s2 - t) / 16.0, (8.0 - s2) / 16.0])
    # every non-positive weight has root 0, as in escort_map; validation lets s2 - t reach
    # -VALIDATION_TOL and w_plus pass 1 by about 2e-13, so each weight is clamped into [0, 1]
    np.clip(w, 0.0, 1.0, out=w)
    # the roots, formed in w's buffer: ln 0 = -inf off the support, and ln w / q overflows
    # at tiny q; max(x / q) = max(x) / q, as division by q > 0 keeps the order
    with np.errstate(divide="ignore", over="ignore"):
        roots = np.log(w, out=w)
        roots /= q
        roots -= roots.max(axis=0)
        np.exp(roots, out=roots)
    lambda_max = np.full(feasible.shape, np.nan)
    lambda_max[feasible] = 1.0 / (roots[0] + roots[1] + 2.0 * roots[2])
    return SpectrumBatch(feasible, lambda_max)


class MuFactors(NamedTuple):
    """Bracket values of the fixed-point form on the three distinct slots.

    They satisfy mu_pm**(1/(1-q)) = (w_mp * Z_q)**(1/q) with the slot
    swap: mu_plus pairs with w_minus and mu_minus with w_plus.
    """

    mu_zero: float
    mu_plus: float
    mu_minus: float


def mu_factors(s: InferredState) -> MuFactors:
    """(w*Z_q)**((1-q)/q): 0 (q < 1) or inf at w = 0; FloatRangeExceeded past the float range."""
    e = (1.0 - s.q) / s.q
    w = s.weights.as_tuple()
    top = math.log(max(w))

    def mu(x):
        if not x > 0.0:
            return 0.0 if e > 0.0 else math.inf
        a = (math.log(x) - top) + s.ln_wz
        try:
            return math.exp(e * a)
        except OverflowError:
            raise FloatRangeExceeded(f"mu = exp({e * a:.6g}) exceeds the float range") from None

    return MuFactors(*map(mu, w[2::-1]))


class Multipliers(NamedTuple):
    lambda_1: float
    lambda_2: float


#: weights at or below this are treated as sitting on the domain boundary
BOUNDARY_TOL = 1e-12


def lagrange_multipliers(s: InferredState) -> Multipliers:
    """Multipliers dS/db_q and dS/dsigma2_q at fixed q, finite at interior points.

    With e = (1-q)/q and the slot factor mu(w) = (w*Z_q)**e of mu_factors, each difference
    taken as one qexpm1 step, so with no pole at q = 1:

        lambda_1 = c_q * (mu(w_minus) - mu(w_plus)) / (4*sqrt(2)*(1-q))
        lambda_2 = c_q * (mu(w_zero) - mu(w_plus)) / (8*(1-q)) - sqrt(2)/4 * lambda_1
    """
    return Multipliers(*_multipliers(s.constraints, s.weights, s.c_q, s.ln_wz))


def _multipliers(c: ConstraintSet, w: EscortWeights, c_q: float, ln_wz: float):
    """lagrange_multipliers as (lambda_1, lambda_2) from the state's weights, c_q and ln_wz."""
    if min(w) <= BOUNDARY_TOL:
        raise BoundaryDivergence(
            "Lagrange multipliers diverge: data sit on the boundary of the domain "
            f"(weights {tuple(w)}, sigma2_q={c.sigma2_q})"
        )
    q = c.q
    e = (1.0 - q) / q
    d = math.log(w.w_zero / w.w_plus)
    # mu(w) = exp(e*ln(w*Z_q)), where ln(w_max*Z_q) = ln_wz keeps its accuracy as q -> 0, as in
    # mu_factors; w_max is w_zero where d > 0, else w_plus
    mu = math.exp(e * (ln_wz - d if d > 0.0 else ln_wz))
    # ln(w_minus/w_plus) from the data: w_plus - w_minus = 2*sqrt(2)*b_q/8 cancels as b_q -> 0
    g = mu * qexpm1(math.log1p(-B_MAX * max(c.b_q, 0.0) / (8.0 * w.w_plus)), e) / (2.0 * B_MAX * q)
    # mu(w_zero) - mu(w_plus) over e, factored on mu(w_max) so that expm1 cannot overflow
    step = math.exp(e * ln_wz) * qexpm1(d, -e) if d > 0.0 else mu * qexpm1(d, e)
    # c_q multiplies last, so a multiplier that underflows keeps its sign
    return c_q * g, c_q * (step / (8.0 * q) - B_MAX * g / 8.0)


def fixed_point_residual(s: InferredState, m: Multipliers) -> float:
    """Rebuild the state from its fixed-point form and report the mismatch.

    The state must solve rho = Z**-1 * [ (1 + (1-q)/c_q * (l1*b + l2*s2)) I
    - (1-q)/c_q * (l1*B + l2*B**2) ]**(1/(1-q)).  On each Bell slot the
    bracket is scalar; this evaluates the q-logarithms of those scalars,
    qlog1p((l1*b_i + l2*s2_i)/c_q, 1-q), from (lambda_1, lambda_2, c_q),
    shifts them by their maximum, renormalizes, and returns the largest
    absolute eigenvalue discrepancy against the stored spectrum.  The trace of
    the rebuilt operator is the partition normalizer, so a small residual also
    certifies Z_q.  Where c_q (and with it the multipliers) is below the
    normal float range, as for large q, :class:`FloatRangeExceeded` is raised.
    """
    q, b, s2 = s.constraints
    l1, l2 = m
    if not (math.isfinite(l1) and math.isfinite(l2)):
        raise BoundaryDivergence("multipliers are not finite")
    if s.c_q < sys.float_info.min:
        raise FloatRangeExceeded(f"c_q = {s.c_q:.3g} at q={q} is below the normal float "
                                 "range, and so are the multipliers that scale with it")
    # log brackets on the phi_plus / psi_minus / degenerate slots; the
    # observable eigenvalues there are (+2sqrt2, -2sqrt2, 0) for B and
    # (8, 8, 0) for B**2
    logs = []
    for x in (l1 * (b - B_MAX) + l2 * (s2 - 8.0),
              l1 * (b + B_MAX) + l2 * (s2 - 8.0),
              l1 * b + l2 * s2):
        x /= s.c_q
        bracket = 1.0 + x * (1.0 - q)
        # for q < 1 a non-positive bracket is the Tsallis cut-off [.]_+, a
        # zero eigenvalue; for q > 1 it has no admissible power
        if bracket <= 0.0 and q > 1.0:
            raise NegativeBracket(
                f"bracket argument {bracket} is not admissible for q={q}"
            )
        logs.append(qlog1p(x, 1.0 - q) if bracket > 0.0 else -math.inf)
    top = max(logs)
    vals = [math.exp(x - top) for x in logs]
    z_rebuilt = vals[0] + vals[1] + 2.0 * vals[2]
    rebuilt = [v / z_rebuilt for v in vals]
    stored = (s.eig_phi_plus, s.eig_psi_minus, s.eig_deg)
    return max(abs(r - t) for r, t in zip(rebuilt, stored))


def to_density_matrix(s: InferredState) -> np.ndarray:
    """Materialize the 4x4 density matrix in the computational basis."""
    import numpy as np
    projs = bell_projectors()
    return (s.eig_phi_plus * projs["phi_plus"]
            + s.eig_psi_minus * projs["psi_minus"]
            + s.eig_deg * (projs["phi_minus"] + projs["psi_plus"]))
