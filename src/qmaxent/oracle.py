"""Independent brute-force checks of the closed-form entropy maximizer.

Two routes, deliberately disjoint from the closed form:

* The split oracle.  The two data constraints are linear in the escort
  weights of a Bell-diagonal spectrum, so they pin the phi_plus and
  psi_minus escort weights exactly (this reduction is the lemma tested in
  the suite).  The only remaining freedom is how the leftover escort mass
  splits between the two degenerate slots; a one-dimensional golden-section
  search maximizes the entropy over that split.

* The general oracle.  A penalized local maximization of the entropy over
  all 4x4 density matrices rho = X X^dagger / Tr(X X^dagger), with
  quadratic penalties enforcing the two escort constraints on a weight
  schedule that grows tenfold per round.  This is a falsifier, not a
  prover: it can only ever report a failure to beat the closed form, never
  certify global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import BudgetExhausted
from .bell import B_MAX, bell_state, chsh_operator
from .inference import ConstraintSet, InferredState, escort_map, escort_weights, infer_state, qexpm1
from .measures import spectrum_entropy

#: golden ratio section for the 1-D search
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEARCH_TOL = 1e-10
_PENALTY_ROUNDS = (1e3, 1e4, 1e5, 1e6, 1e7)
_RESIDUAL_TARGET = 1e-6
#: eigenvalue floor used only inside gradients of fractional powers
_GRAD_FLOOR = 1e-14


@dataclass(frozen=True)
class OracleResult:
    eigenvalues: np.ndarray
    achieved_entropy: float
    constraint_residual: float
    iterations: int
    t_split: float | None = None


def escort_residual(eigenvalues, c: ConstraintSet):
    """Worst reconstruction error of (b_q, sigma2_q) from a Bell-diagonal spectrum.

    The spectrum is taken in slot order (phi_plus, psi_minus, deg, deg).
    """
    lam = np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)
    # escort weights are scale-free; over lam.max(), lam**q cannot all underflow at large q
    lam_q = (lam / lam.max()) ** c.q
    norm = lam_q.sum()
    b_rec = B_MAX * (lam_q[0] - lam_q[1]) / norm
    s2_rec = 8.0 * (lam_q[0] + lam_q[1]) / norm
    return max(abs(b_rec - c.b_q), abs(s2_rec - c.sigma2_q))


def maxent_split_oracle(c: ConstraintSet) -> OracleResult:
    """Maximize the entropy over the split of the unconstrained escort mass.

    The constraints fix the escort weights of the phi_plus and psi_minus
    slots at w_plus and w_minus; the degenerate pair shares the remaining
    mass (8 - sigma2_q)/8 as (t, rest - t).  Golden-section search on t
    locates the optimum, which lands on the equal split.
    """
    w = escort_weights(c)
    q = c.q
    free = 2.0 * w.w_zero

    # S_q = qexpm1(ln Z_q, 1-q) rises with ln Z_q, which stays well scaled at large q
    def log_partition_at(t):
        return escort_map((w.w_plus, w.w_minus, t, free - t), q)[1]

    iterations = 0
    if free <= 0.0:
        t_best = 0.0
    else:
        lo, hi = 0.0, free
        c1 = hi - _GOLDEN * (hi - lo)
        c2 = lo + _GOLDEN * (hi - lo)
        f1, f2 = log_partition_at(c1), log_partition_at(c2)
        while hi - lo > _SEARCH_TOL:
            iterations += 1
            if f1 < f2:
                lo, c1, f1 = c1, c2, f2
                c2 = lo + _GOLDEN * (hi - lo)
                f2 = log_partition_at(c2)
            else:
                hi, c2, f2 = c2, c1, f1
                c1 = hi - _GOLDEN * (hi - lo)
                f1 = log_partition_at(c1)
        t_best = 0.5 * (lo + hi)
    roots, ln_z = escort_map((w.w_plus, w.w_minus, t_best, free - t_best), q)
    lam = np.asarray(roots) / sum(roots)
    return OracleResult(
        eigenvalues=lam,
        achieved_entropy=qexpm1(ln_z, 1.0 - q),
        constraint_residual=escort_residual(lam, c),
        iterations=iterations,
        t_split=t_best,
    )


def _divided_difference(lam, q):
    """Matrix of (lam_i**q - lam_j**q)/(lam_i - lam_j) with smooth diagonal."""
    li = lam[:, None]
    lj = lam[None, :]
    close = np.abs(li - lj) < 1e-12
    den = np.where(close, 1.0, li - lj)
    num = lam ** q
    diff = (num[:, None] - num[None, :]) / den
    mid = np.maximum(0.5 * (li + lj), _GRAD_FLOOR)
    return np.where(close, q * mid ** (q - 1.0), diff)


def _objective_and_grad(x, q, b, s2, penalty, b_op, b2_op):
    """Penalized negative entropy and its analytic gradient in 32 real parameters."""
    xm = (x[:16] + 1j * x[16:]).reshape(4, 4)
    raw = xm @ xm.conj().T
    trace = float(np.real(np.trace(raw)))
    rho = raw / trace
    lam, vec = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    lam_g = np.maximum(lam, _GRAD_FLOOR)
    full_m1 = vec.conj().T @ b_op @ vec
    full_m2 = vec.conj().T @ b2_op @ vec
    m1, m2 = full_m1.diagonal().real, full_m2.diagonal().real
    lam_q = lam ** q
    t0 = lam_q.sum()
    e1 = float((lam_q * m1).sum() / t0)
    e2 = float((lam_q * m2).sum() / t0)
    entropy = spectrum_entropy(lam, q)
    dd = _divided_difference(lam_g, q)
    power = lam_g ** (q - 1.0)
    grad_t0 = vec @ np.diag(q * power) @ vec.conj().T
    grad_t1 = vec @ (dd * full_m1) @ vec.conj().T
    grad_t2 = vec @ (dd * full_m2) @ vec.conj().T
    grad_e1 = (grad_t1 - e1 * grad_t0) / t0
    grad_e2 = (grad_t2 - e2 * grad_t0) / t0
    # d/dlam of -lam*qexpm1(ln lam, q-1)
    grad_s = vec @ np.diag(-(qexpm1(np.log(lam_g), q - 1.0) + power)) @ vec.conj().T
    value = -entropy + penalty * ((e1 - b) ** 2 + (e2 - s2) ** 2)
    grad_rho = (-grad_s
                + 2.0 * penalty * (e1 - b) * grad_e1
                + 2.0 * penalty * (e2 - s2) * grad_e2)
    # chain through rho = raw / Tr raw, then raw = X X^dagger
    h = (grad_rho - np.real(np.trace(grad_rho @ rho)) * np.eye(4)) / trace
    hx = h @ xm
    grad = np.concatenate([2.0 * hx.real.ravel(), 2.0 * hx.imag.ravel()])
    return value, grad


def _escort_pair(rho, q, b_op, b2_op):
    lam, vec = np.linalg.eigh(rho)
    lam = np.clip(lam, 0.0, None)
    m1 = np.real(np.einsum("ij,jk,ki->i", vec.conj().T, b_op, vec))
    m2 = np.real(np.einsum("ij,jk,ki->i", vec.conj().T, b2_op, vec))
    lam_q = lam ** q
    weights = lam_q / lam_q.sum()
    return lam, float((weights * m1).sum()), float((weights * m2).sum())


def _closed_form_start(c: ConstraintSet):
    state = infer_state(c)
    vectors = np.column_stack(
        [bell_state(lab) for lab in ("phi_plus", "psi_minus", "phi_minus", "psi_plus")]
    )
    lam = np.asarray(state.eigenvalues(), dtype=float)
    return vectors @ np.diag(np.sqrt(lam))


def maxent_general_oracle(c: ConstraintSet, seed: int, budget: int = 6000,
                          start_at_closed_form: bool = False) -> OracleResult:
    """Try to beat the closed form over the full 4x4 state space.

    Seeded local search with analytic gradients; the quadratic penalty on
    the two constraints grows tenfold per round, and leftover budget
    polishes at the final weight.  Raises :class:`BudgetExhausted` when the
    constraint residual is still above 1e-6 after the full schedule.

    Falsifier contract: a result with entropy at most the closed-form value
    (within tolerance) is evidence, not proof, that the closed form is the
    maximizer.
    """
    if budget < 1000:
        raise ValueError(f"evaluation budget must be at least 1000, got {budget}")
    ops = chsh_operator()
    b_op, b2_op = ops.b_op, ops.b_squared
    q, b, s2 = c.q, c.b_q, c.sigma2_q
    if start_at_closed_form:
        x0m = _closed_form_start(c)
        x = np.concatenate([x0m.real.ravel(), x0m.imag.ravel()])
    else:
        rng = np.random.default_rng(seed)
        x = 0.5 * rng.standard_normal(32)
    evaluations = 0

    def run_round(x, penalty, maxfun):
        nonlocal evaluations

        def fun(x):
            nonlocal evaluations
            evaluations += 1
            return _objective_and_grad(x, q, b, s2, penalty, b_op, b2_op)

        res = minimize(fun, x, jac=True, method="L-BFGS-B",
                       options={"maxfun": maxfun, "ftol": 1e-16, "gtol": 1e-12})
        return res

    per_round = budget // (len(_PENALTY_ROUNDS) + 1)
    for penalty in _PENALTY_ROUNDS:
        x = run_round(x, penalty, per_round).x
    while evaluations < budget:
        res = run_round(x, _PENALTY_ROUNDS[-1], budget - evaluations)
        x = res.x
        if res.status != 1:  # anything but "ran out of evaluations"
            break
    xm = (x[:16] + 1j * x[16:]).reshape(4, 4)
    raw = xm @ xm.conj().T
    rho = raw / np.real(np.trace(raw))
    lam, e1, e2 = _escort_pair(rho, q, b_op, b2_op)
    residual = max(abs(e1 - b), abs(e2 - s2))
    if residual > _RESIDUAL_TARGET:
        raise BudgetExhausted(
            f"constraint residual {residual:.3g} above {_RESIDUAL_TARGET} "
            f"after {evaluations} objective evaluations"
        )
    return OracleResult(
        eigenvalues=np.sort(lam),
        achieved_entropy=spectrum_entropy(lam, q),
        constraint_residual=residual,
        iterations=evaluations,
    )


def _spectrum_of(x):
    if isinstance(x, InferredState):
        return np.sort(np.asarray(x.eigenvalues(), dtype=float))
    if isinstance(x, OracleResult):
        return np.sort(np.asarray(x.eigenvalues, dtype=float))
    return np.sort(np.asarray(x, dtype=float))


def compare_states(a, b) -> float:
    """Largest absolute difference between two sorted eigenvalue 4-vectors."""
    return float(np.max(np.abs(_spectrum_of(a) - _spectrum_of(b))))
