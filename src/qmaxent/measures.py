"""Entropic functionals: Tsallis entropy, escort expectations, divergences.

The divergence order q_prime of the generalized Kullback-Leibler entropy is
deliberately independent of the entropic index q used for inference; when a
caller leaves it unspecified the CLI defaults it to q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    FloatRangeExceeded,
    NotHermitian,
    QOutOfDomain,
    SingularReference,
    SupportMismatch,
)
from .inference import InferredState, qexpm1
from .smallmat import (
    SUPPORT_TOL,
    as_matrix,
    is_hermitian,
    partial_trace,
    validate_density_matrix,
)


def _spectrum_clamped(rho):
    lam, vec = np.linalg.eigh(0.5 * (rho + rho.conj().T))
    return np.clip(lam, 0.0, None), vec


def _qexpm1_sum(weight, lam, log_ratio, order: float) -> float:
    """sum of weight * lam * qexpm1(log_ratio, order - 1); FloatRangeExceeded past the float range.

    Where (order-1)*log_ratio > 0 the term is taken as its value exp(ln lam + (order-1)*log_ratio)
    * qexpm1(log_ratio, 1-order), since expm1 alone can overflow there on a small lam.
    """
    t = order - 1.0
    x = t * log_ratio
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.where(x > 0.0, np.exp(np.log(lam) + x) * qexpm1(log_ratio, -t),
                         lam * qexpm1(log_ratio, t))
        k = float((weight * terms).sum())
    if not math.isfinite(k):
        raise FloatRangeExceeded(f"sum of order {order} exceeds the float range")
    return k


def spectrum_entropy(lam, q: float) -> float:
    """Tsallis entropy -sum_i lam_i*qexpm1(ln lam_i, q-1) of a spectrum, over lam_i > 0."""
    pos = lam[lam > 0.0]
    return -_qexpm1_sum(1.0, pos, np.log(pos), q)


def tsallis_entropy(rho, q: float) -> float:
    """(Tr rho**q - 1)/(1 - q), evaluated as spectrum_entropy: continuous through q = 1."""
    if not q > 0.0:
        raise QOutOfDomain(f"entropic index must satisfy q > 0, got q={q}")
    lam, _ = _spectrum_clamped(validate_density_matrix(rho))
    return spectrum_entropy(lam, q)


def q_expectation(rho, obs, q: float) -> float:
    """Escort expectation Tr(rho**q obs) / Tr(rho**q) of a Hermitian observable."""
    if not q > 0.0:
        raise QOutOfDomain(f"entropic index must satisfy q > 0, got q={q}")
    o = as_matrix(obs)
    if not is_hermitian(o):
        raise NotHermitian("observable is not Hermitian to 1e-10")
    lam, vec = _spectrum_clamped(validate_density_matrix(rho))
    lam_q = lam ** q
    diag = np.real(np.einsum("ij,jk,ki->i", vec.conj().T, o, vec))
    return float((lam_q * diag).sum() / lam_q.sum())


def _support_leak(rho, ref_vecs, ref_lam) -> float:
    """Probability mass of rho outside the support of the reference."""
    null = ref_vecs[:, ref_lam <= SUPPORT_TOL]
    if null.shape[1] == 0:
        return 0.0
    return float(np.real(np.einsum("ij,jk,ki->", null.conj().T, rho, null)))


def generalized_kl(rho, ref, q_prime: float) -> float:
    """Generalized Kullback-Leibler entropy of rho relative to ref.

    K = 1/(1-q') Tr[rho**q' (rho**(1-q') - ref**(1-q'))], which is
    nonnegative and vanishes iff the states coincide.  From two independent
    eigendecompositions, (lam_i, v_i) of rho and (mu_j, w_j) of ref (the
    states need not commute), over lam_i > 0 and the support of ref, it is

        K = sum_ij |<v_i|w_j>|**2 * lam_i * qexpm1(ln lam_i - ln mu_j, q'-1)

    which is the relative entropy Tr[rho (log rho - log ref)] at q' = 1.  A
    finite K beyond the float range raises :class:`FloatRangeExceeded`.

    Domain restrictions: for q' > 1 the reference must be full rank
    (:class:`SingularReference` otherwise); for q' <= 1 the support of rho
    must lie inside the support of ref (:class:`SupportMismatch`).
    """
    if not q_prime > 0.0:
        raise QOutOfDomain(f"divergence order must satisfy q' > 0, got {q_prime}")
    rho = validate_density_matrix(rho)
    ref = validate_density_matrix(ref)
    lam, vec = _spectrum_clamped(rho)
    mu, wec = _spectrum_clamped(ref)
    if q_prime > 1.0:
        if mu.min() <= SUPPORT_TOL:
            raise SingularReference(
                f"reference state is singular (min eigenvalue {mu.min():.3g}) "
                f"but q'={q_prime} > 1 needs a negative power of it"
            )
    elif _support_leak(rho, wec, mu) > SUPPORT_TOL:
        raise SupportMismatch("state support is not contained in the reference support")
    own, ref_own = lam > 0.0, mu > SUPPORT_TOL
    overlap = np.abs(vec[:, own].conj().T @ wec[:, ref_own]) ** 2
    log_ratio = np.log(lam[own])[:, None] - np.log(mu[ref_own])[None, :]
    return _qexpm1_sum(overlap, lam[own][:, None], log_ratio, q_prime)


def marginals(rho_ab):
    """Single-qubit reductions (Tr_B rho, Tr_A rho) of a two-qubit state."""
    rho = validate_density_matrix(as_matrix(rho_ab, dim=4))
    return partial_trace(rho, "B"), partial_trace(rho, "A")


@dataclass(frozen=True)
class MutualEntropyResult:
    value: float
    q_prime: float


def mutual_entropy(rho_ab, q_prime: float) -> MutualEntropyResult:
    """Generalized mutual entropy: divergence from the product of marginals."""
    rho_a, rho_b = marginals(rho_ab)
    ref = np.kron(rho_a, rho_b)
    return MutualEntropyResult(value=generalized_kl(rho_ab, ref, q_prime), q_prime=q_prime)


def mutual_entropy_closed_form(state: InferredState, q_prime: float | None = None) -> float:
    """Mutual entropy of an inferred state without materializing matrices.

    Both marginals of every inferred state are maximally mixed, so the
    reference is I/4 and commutes with the state:

        K = sum_i lambda_i * qexpm1(ln(4*lambda_i), q'-1)

    over the nonzero eigenvalues, the relative entropy to I/4 at q' = 1.  The
    divergence order defaults to the state's own entropic index.
    """
    if q_prime is None:
        q_prime = state.q
    if not q_prime > 0.0:
        raise QOutOfDomain(f"divergence order must satisfy q' > 0, got {q_prime}")
    lam = np.array([x for x in state.eigenvalues() if x > 0.0])
    return _qexpm1_sum(1.0, lam, np.log(4.0 * lam), q_prime)
