"""Independent extended-precision reference for the closed form.

Everything here is written from the formulas of the paper in stdlib
``decimal``, without calling the program: the escort weights are linear in
the data,

    w_plus  = (sigma2_q + 2*sqrt(2)*b_q) / 16
    w_minus = (sigma2_q - 2*sqrt(2)*b_q) / 16
    w_zero  = (8 - sigma2_q) / 16        (twice, phi_minus and psi_plus)

and the entropy-maximising spectrum is lambda_i = w_i**(1/q) / sum_j w_j**(1/q)
in slot order (phi_plus, psi_minus, phi_minus, psi_plus).
"""

from __future__ import annotations

from decimal import Decimal, localcontext

#: working precision in significant digits; the benchmark's tolerances are 1e-9
PRECISION = 30


def _d(x) -> Decimal:
    return x if isinstance(x, Decimal) else Decimal(x)


def _power(x: Decimal, p: Decimal) -> Decimal:
    """x**p for x >= 0 and p > 0 as exp(p*ln x); ln and exp round correctly."""
    return (x.ln() * p).exp() if x > 0 else Decimal(0)


def escort_from_data(b, s2):
    """Escort weights (w_plus, w_minus, w_zero, w_zero) of data (b_q, sigma2_q)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        b, s2 = _d(b), _d(s2)
        t = 2 * Decimal(2).sqrt() * b
        w_zero = (8 - s2) / 16
        weights = ((s2 + t) / 16, (s2 - t) / 16, w_zero, w_zero)
    return tuple(+w for w in weights)


def spectrum(weights, q):
    """lambda_i = w_i**(1/q) / sum_j w_j**(1/q), with 0**(1/q) = 0."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        inv_q = 1 / _d(q)
        roots = {}
        for w in weights:  # w_zero is doubly occupied: one root serves both slots
            if w not in roots:
                roots[w] = _power(_d(w), inv_q)
        total = sum(roots[w] for w in weights)
        return tuple(roots[w] / total for w in weights)


def tsallis_entropy(lam, q):
    """(sum_i lambda_i**q - 1) / (1 - q), or -sum lambda ln lambda at q = 1."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        q = _d(q)
        lam = [_d(x) for x in lam if _d(x) > 0]
        if q == 1:
            return -sum(x * x.ln() for x in lam)
        return (sum(_power(x, q) for x in lam) - 1) / (1 - q)


def state(q, b, s2):
    """Reference spectrum of the data (q, b_q, sigma2_q), as floats."""
    return tuple(float(x) for x in spectrum(escort_from_data(b, s2), q))
