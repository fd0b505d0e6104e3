"""Independent brute-force checks of the closed-form entropy maximizer.

Two routes that search for the maximizer the closed form writes down:

* The split oracle.  The two data constraints are linear in the escort
  weights of a Bell-diagonal spectrum, so they pin the phi_plus and
  psi_minus escort weights exactly (this reduction is the lemma tested in
  the suite).  The only remaining freedom is how the leftover escort mass
  splits between the two degenerate slots; a one-dimensional golden-section
  search maximizes the entropy over that split.  What it shares with the
  closed form is ``escort_map``, run at each trial split instead of at the
  equal split the closed form assumes.

* The general oracle.  One equality-constrained SLSQP maximization of the
  entropy over all 4x4 escort states P = X X^dagger / Tr(X X^dagger), from
  a seeded random X.  The data are escort expectations, so the two
  constraints Tr(P B) = b_q and Tr(P B^2) = sigma2_q are linear in P, and
  rho = P**(1/q) / Tr P**(1/q) is a bijection onto all 4x4 density
  matrices: the search still covers every state.  It calls nothing of the
  closed form.  This is a falsifier, not a prover: it can only ever report
  a failure to beat the closed form, never certify global optimality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import BudgetExhausted
from .bell import B_MAX, chsh_operator
from .inference import ConstraintSet, InferredState, escort_map, escort_weights, qexpm1
from .measures import spectrum_entropy

if TYPE_CHECKING:
    import numpy as np

#: golden ratio section for the 1-D search
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SEARCH_TOL = 1e-10
#: SLSQP's stop tolerance; resuming from the stopped point mends early stops
_SLSQP_FTOL = 1e-12
#: SLSQP's exit status after its default 100 iterations; resuming restarts its quasi-Newton model
_SLSQP_ITERATION_LIMIT = 9
_RESIDUAL_TARGET = 1e-6
#: escort-weight floor used only inside the entropy gradient, where ln lambda and lambda/p diverge
_GRAD_FLOOR = 1e-14


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported at call time: only the general oracle needs scipy."""
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(*args, **kwargs)


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
    import numpy as np
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
    import numpy as np
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
    roots, ln_z, _ = escort_map((w.w_plus, w.w_minus, t_best, free - t_best), q)
    lam = np.asarray(roots) / sum(roots)
    return OracleResult(
        eigenvalues=lam,
        achieved_entropy=qexpm1(ln_z, 1.0 - q),
        constraint_residual=escort_residual(lam, c),
        iterations=iterations,
        t_split=t_best,
    )


def _entropy_and_escorts(x, q, b_op, b2_op):
    """Entropy, the two escort expectations and their analytic gradients in 32 real parameters.

    The parameters give the escort state P = X X^dagger / Tr(X X^dagger), and the
    state is rho = P**(1/q) / Tr P**(1/q), with P's eigenvectors.  Returns rho's
    clipped spectrum, S_q, the gradient of S_q and the (2,) escort values
    (Tr P B, Tr P B^2) with their (2, 32) Jacobian.
    """
    import numpy as np
    xm = (x[:16] + 1j * x[16:]).reshape(4, 4)
    raw = xm @ xm.conj().T
    trace = float(np.real(np.trace(raw)))
    esc = raw / trace
    p, vec = np.linalg.eigh(esc)
    p = np.clip(p, 0.0, None)
    # over p.max(), p**(1/q) cannot all underflow at small q
    root = (p / p.max()) ** (1.0 / q)
    lam = root / root.sum()
    ln_p = np.log(np.maximum(p, _GRAD_FLOOR))
    ln_lam = (ln_p - np.log(p.max())) / q - np.log(root.sum())
    entropy = spectrum_entropy(lam, q)
    ratio = np.exp(ln_lam - ln_p)  # lambda/p = c_q * lambda**(1-q)
    # c_q * qexpm1(ln lambda, 1-q), taken for q > 1 as the equal ratio * qexpm1(ln lambda, q-1):
    # at large q, c_q = sum lambda**q underflows while lambda**(1-q) overflows
    c_term = (ratio * qexpm1(ln_lam, q - 1.0) if q > 1.0
              else (lam ** q).sum() * qexpm1(ln_lam, 1.0 - q))
    # dS/dp up to a multiple of the identity, which the trace projection below drops
    grad_s = -(c_term + entropy * ratio)
    grad_p = np.stack([(vec * grad_s) @ vec.conj().T, b_op, b2_op])
    # Tr(G P) is the projection's shift and, for G = B and B^2, the escort value
    shift = np.einsum("kij,ji->k", grad_p, esc).real
    # chain through P = raw / Tr raw, then raw = X X^dagger
    h = (grad_p - shift[:, None, None] * np.eye(4)) / trace
    hx = h @ xm
    grad = 2.0 * np.concatenate([hx.real.reshape(3, 16), hx.imag.reshape(3, 16)], axis=1)
    return lam, entropy, grad[0], shift[1:], grad[1:]


def maxent_general_oracle(c: ConstraintSet, seed: int, budget: int = 6000) -> OracleResult:
    """Try to beat the closed form over the full 4x4 state space.

    From a seeded random start, SLSQP maximizes S_q with the two escort
    constraints as equalities, resuming from where it stopped until a solve
    ends below its iteration limit with constraint residual at most 1e-6.
    Raises :class:`BudgetExhausted` once ``budget`` objective evaluations are
    spent, or when a resumed solve no longer moves.

    Falsifier contract: a result with entropy at most the closed-form value
    (within tolerance) is evidence, not proof, that the closed form is the
    maximizer.
    """
    import numpy as np
    if budget < 1000:
        raise ValueError(f"evaluation budget must be at least 1000, got {budget}")
    ops = chsh_operator()
    q, target = c.q, np.array([c.b_q, c.sigma2_q])
    evaluations, last_key, last = 0, None, None

    def exhausted():
        residual = np.max(np.abs(last[3] - target))
        return BudgetExhausted(
            f"no solve ended at constraint residual <= {_RESIDUAL_TARGET} after {evaluations} "
            f"objective evaluations; the last evaluated point has {residual:.3g}"
        )

    # SLSQP asks for the objective, the constraints and their gradients
    # separately at the same x: a one-entry memo diagonalises each x once
    def evaluate(x):
        nonlocal evaluations, last_key, last
        if x.tobytes() != last_key:
            if evaluations == budget:
                raise exhausted()
            evaluations += 1
            last_key, last = x.tobytes(), _entropy_and_escorts(x, q, ops.b_op, ops.b_squared)
        return last

    constraints = {"type": "eq", "fun": lambda x: evaluate(x)[3] - target,
                   "jac": lambda x: evaluate(x)[4]}
    rng = np.random.default_rng(seed)
    x = 0.5 * rng.standard_normal(32)
    while True:
        x_prev = x
        solve = minimize(lambda x: (-evaluate(x)[1], -evaluate(x)[2]), x, jac=True, method="SLSQP",
                         constraints=constraints, options={"ftol": _SLSQP_FTOL})
        x = solve.x
        lam, entropy, _, escorts, _ = evaluate(x)
        residual = float(np.max(np.abs(escorts - target)))
        if residual <= _RESIDUAL_TARGET and solve.status != _SLSQP_ITERATION_LIMIT:
            return OracleResult(
                eigenvalues=np.sort(lam),
                achieved_entropy=entropy,
                constraint_residual=residual,
                iterations=evaluations,
            )
        if np.array_equal(x, x_prev):
            raise exhausted()


def compare_states(a, b) -> float:
    """Largest absolute difference of the sorted spectra of two InferredState or OracleResult."""
    x, y = (sorted(s.eigenvalues() if isinstance(s, InferredState) else s.eigenvalues)
            for s in (a, b))
    return float(max(abs(u - v) for u, v in zip(x, y)))
