"""50-digit reference for the closed form, written from the paper's formulas.

Nothing here calls qmaxent.  The escort weights are linear in the data,

    w_plus  = (sigma2_q + 2*sqrt(2)*b_q) / 16
    w_minus = (sigma2_q - 2*sqrt(2)*b_q) / 16
    w_zero  = (8 - sigma2_q) / 16        (twice: phi_minus and psi_plus)

the optimal spectrum is lambda_i = w_i**(1/q) / Y with Y = sum_i w_i**(1/q),
lambda_max is its largest eigenvalue, c_q = Tr rho**q = Y**(-q) = Z_q**(1-q) and
S_q = (c_q - 1)/(1 - q).  The multipliers are the gradient of S_q in the data; by the
chain rule through c_q = Y**(-q), with e = (1-q)/q,

    lambda_1 = -(c_q/Y) * (2*sqrt(2)/16) * (w_plus**e - w_minus**e) / (1-q)
    lambda_2 = -(c_q/Y) * (1/16) * (w_plus**e + w_minus**e - 2*w_zero**e) / (1-q)

They are evaluated in the equal form (c_q/Y) * w**e = c_q**2 * lambda**(1-q), with
ln lambda_i = (ln w_i - ln w_max)/q - ln sum_j exp((ln w_j - ln w_max)/q), so that
no power w**(1/q) underflows to zero however small q is.
At q = 1 every quotient by (1 - q) is replaced by its limit: S_1 = ln Z_1 is
the Gibbs entropy of the weights and w**e / (1-q) differences become
differences of ln w.  Both marginals of the state are I/2, so its mutual
entropy of order q' is K = (4**(q'-1) * sum_i lambda_i**q' - 1)/(q' - 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

PRECISION = 50


@dataclass(frozen=True)
class Reference:
    ln_Z: Decimal
    S: Decimal
    c: Decimal
    lambda_1: Decimal
    lambda_2: Decimal
    lambda_max: Decimal


def _power(x: Decimal, p: Decimal) -> Decimal:
    return (x.ln() * p).exp()


def closed_form(q: float, b: float, s2: float) -> Reference:
    """Reference values at interior data (all three weights positive)."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        q, b, s2 = Decimal(q), Decimal(b), Decimal(s2)
        slope = 2 * Decimal(2).sqrt()
        w_plus, w_minus, w_zero = (s2 + slope * b) / 16, (s2 - slope * b) / 16, (8 - s2) / 16
        if q == 1:
            s = -sum(w * w.ln() for w in (w_plus, w_minus, w_zero, w_zero))
            lam1 = -slope / 16 * (w_plus.ln() - w_minus.ln())
            lam2 = -(w_plus.ln() + w_minus.ln() - 2 * w_zero.ln()) / 16
            return Reference(ln_Z=+s, S=+s, c=Decimal(1), lambda_1=+lam1, lambda_2=+lam2,
                             lambda_max=max(w_plus, w_zero))
        logs = [w.ln() for w in (w_plus, w_minus, w_zero, w_zero)]
        shifted = [(x - max(logs)) / q for x in logs]
        ln_norm = sum(x.exp() for x in shifted).ln()
        ln_lam = [x - ln_norm for x in shifted]
        c = sum((q * x).exp() for x in ln_lam)
        p_plus, p_minus, p_zero = (((1 - q) * x).exp() for x in ln_lam[:3])
        lam1 = -c * c * slope / 16 * (p_plus - p_minus) / (1 - q)
        lam2 = -c * c / 16 * (p_plus + p_minus - 2 * p_zero) / (1 - q)
        return Reference(ln_Z=c.ln() / (1 - q), S=(c - 1) / (1 - q), c=c,
                         lambda_1=lam1, lambda_2=lam2, lambda_max=max(ln_lam).exp())


def mutual_entropy(q: float, b: float, s2: float, q_prime: float) -> Decimal:
    """K of order q' != 1 at interior data."""
    with localcontext() as ctx:
        ctx.prec = PRECISION
        q, b, s2, q_prime = Decimal(q), Decimal(b), Decimal(s2), Decimal(q_prime)
        slope = 2 * Decimal(2).sqrt()
        weights = ((s2 + slope * b) / 16, (s2 - slope * b) / 16, (8 - s2) / 16, (8 - s2) / 16)
        roots = [_power(w, 1 / q) for w in weights]
        powers = sum(_power(r / sum(roots), q_prime) for r in roots)
        return (_power(Decimal(4), q_prime - 1) * powers - 1) / (q_prime - 1)
