"""Entropic functionals: Tsallis entropy, escort expectations, divergences.

Each Tsallis sum is taken term by term in Python floats with qexpm1_scaled, and
a sum past the float range raises FloatRangeExceeded.  The divergence order q_prime
is independent of the entropic index q used for inference; the CLI defaults it to q.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import (
    FloatRangeExceeded,
    NotHermitian,
    QOutOfDomain,
    SingularReference,
    SupportMismatch,
)
from .inference import InferredState, qexpm1_scaled
from .smallmat import (
    HERMITIAN_TOL,
    SUPPORT_TOL,
    _density_spectra,
    _jacobi_eigh,
    as_matrix,
    kron,
    partial_trace,
    validate_density_matrix,
)


def _finite_sum(terms, order: float) -> float:
    """Sum of float terms in order; FloatRangeExceeded where it leaves the float range."""
    try:
        k = sum(terms)
    except OverflowError:
        k = math.inf
    if not math.isfinite(k):
        raise FloatRangeExceeded(f"sum of order {order} exceeds the float range")
    return k


def spectrum_entropy(lam, q: float) -> float:
    """Tsallis entropy -sum_i lam_i*qexpm1(ln lam_i, q-1) of a spectrum array, over lam_i > 0."""
    return -_finite_sum((qexpm1_scaled(x, math.log(x), q - 1.0)
                         for x in lam.tolist() if x > 0.0), q)


def tsallis_entropy(rho, q: float) -> float:
    """(Tr rho**q - 1)/(1 - q), evaluated as spectrum_entropy: continuous through q = 1."""
    if not q > 0.0:
        raise QOutOfDomain(f"entropic index must satisfy q > 0, got q={q}")
    return spectrum_entropy(validate_density_matrix(rho).eigenvalues, q)


def q_expectation(rho, obs, q: float) -> float:
    """Escort expectation Tr(rho**q obs) / Tr(rho**q) of a Hermitian observable."""
    import numpy as np
    if not q > 0.0:
        raise QOutOfDomain(f"entropic index must satisfy q > 0, got q={q}")
    a = as_matrix(rho)
    o = as_matrix(obs, dim=a.shape[0])
    if not np.abs(o - o.conj().T).max() <= HERMITIAN_TOL:
        raise NotHermitian("observable is not Hermitian to 1e-10")
    lam, vec = validate_density_matrix(a)
    lam_q = (lam / lam.max()) ** q  # scaled by the top eigenvalue: lam ** q underflows at large q
    diag = np.real(np.einsum("ij,jk,ki->i", vec.conj().T, o, vec))
    return float((lam_q * diag).sum() / lam_q.sum())


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
    import numpy as np
    if not q_prime > 0.0:
        raise QOutOfDomain(f"divergence order must satisfy q' > 0, got {q_prime}")
    a = as_matrix(rho)
    (lam, mu), (vec, wec) = _density_spectra(np.array((a, as_matrix(ref, dim=a.shape[0]))))
    own, support = lam > 0.0, mu > SUPPORT_TOL
    overlap = np.abs(vec[:, own].conj().T @ wec) ** 2  # |<v_i|w_j>|**2 over lam_i > 0
    if not support.all():  # BLAS rounds a product by its column count: keep the support's own
        overlap[:, support] = np.abs(vec[:, own].conj().T @ wec[:, support]) ** 2
    return _kl_sum(lam[own].tolist(), mu.tolist(), overlap.tolist(), q_prime)


def _kl_sum(lam, mu, overlap, q_prime: float) -> float:
    """generalized_kl's checks and sum on lists: lam_i > 0, mu_j and rows of |<v_i|w_j>|**2."""
    if q_prime > 1.0:
        if min(mu) <= SUPPORT_TOL:
            raise SingularReference(
                f"reference state is singular (min eigenvalue {min(mu):.3g}) "
                f"but q'={q_prime} > 1 needs a negative power of it"
            )
    elif sum(x * sum(o for o, m in zip(row, mu) if m <= SUPPORT_TOL)
             for x, row in zip(lam, overlap)) > SUPPORT_TOL:  # mass outside ref's support
        raise SupportMismatch("state support is not contained in the reference support")
    ln_mu = [(j, math.log(m)) for j, m in enumerate(mu) if m > SUPPORT_TOL]
    rows = ((x, math.log(x), row) for x, row in zip(lam, overlap))  # one log per row
    return _finite_sum((row[j] * qexpm1_scaled(x, ln_x - b, q_prime - 1.0)
                        for x, ln_x, row in rows for j, b in ln_mu), q_prime)


def marginals(rho_ab):
    """Single-qubit reductions (Tr_B rho, Tr_A rho) of a two-qubit state."""
    rho = as_matrix(rho_ab, dim=4)
    validate_density_matrix(rho)
    return partial_trace(rho, "B"), partial_trace(rho, "A")


class MutualEntropyResult(NamedTuple):
    value: float


def mutual_entropy(rho_ab, q_prime: float) -> MutualEntropyResult:
    """Generalized mutual entropy: divergence from the product of marginals."""
    ref = kron(partial_trace(rho_ab, "B"), partial_trace(rho_ab, "A"))
    return MutualEntropyResult(value=generalized_kl(rho_ab, ref, q_prime))


def mutual_entropy_of_state(state: InferredState, q_prime: float) -> float:
    """mutual_entropy(to_density_matrix(state), q_prime).value on Python floats.

    A generic Jacobi solver diagonalises the state and the product of its marginals,
    so this stays a check of the closed form.
    """
    if not q_prime > 0.0:
        raise QOutOfDomain(f"divergence order must satisfy q' > 0, got {q_prime}")
    p, m, d = state.eig_phi_plus, state.eig_psi_minus, state.eig_deg
    x, y, z, w = (p + d) / 2, (p - d) / 2, (d + m) / 2, (d - m) / 2  # exact at a pure state
    rho = [[x, 0.0, 0.0, y], [0.0, z, w, 0.0], [0.0, w, z, 0.0], [y, 0.0, 0.0, x]]
    tr_b = [[rho[2 * i][2 * j] + rho[2 * i + 1][2 * j + 1] for j in (0, 1)] for i in (0, 1)]
    tr_a = [[rho[i][j] + rho[i + 2][j + 2] for j in (0, 1)] for i in (0, 1)]
    ref = [[tr_b[i // 2][j // 2] * tr_a[i % 2][j % 2] for j in range(4)] for i in range(4)]
    (lam, vec), (mu, wec) = _jacobi_eigh(rho), _jacobi_eigh(ref)
    own = [i for i in range(4) if lam[i] > 0.0]
    overlap = [[sum(vec[k][i] * wec[k][j] for k in range(4)) ** 2 for j in range(4)] for i in own]
    # rows scaled to unit sum: each rotation leaves the eigenvectors' norms an ulp off
    return _kl_sum([lam[i] for i in own], mu, [[o / sum(r) for o in r] for r in overlap], q_prime)


def mutual_entropy_closed_form(state: InferredState, q_prime: float) -> float:
    """Mutual entropy of an inferred state without materializing matrices.

    Both marginals of every inferred state are maximally mixed, so the
    reference is I/4 and commutes with the state:

        K = sum_i lambda_i * qexpm1(ln(4*lambda_i), q'-1)

    over the nonzero eigenvalues, the relative entropy to I/4 at q' = 1.
    """
    if not q_prime > 0.0:
        raise QOutOfDomain(f"divergence order must satisfy q' > 0, got {q_prime}")
    return _finite_sum((qexpm1_scaled(x, math.log(4.0 * x), q_prime - 1.0)
                        for x in state.eigenvalues() if x > 0.0), q_prime)
