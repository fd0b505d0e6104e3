"""Continuum reference for the entangled fraction of the data domain.

Nothing here calls the closed-form code.  The largest eigenvalue can pass 1/2 only on the
phi_plus slot, so a point is entangled iff

    w_plus**(1/q) > w_minus**(1/q) + 2*w_zero**(1/q)

with the escort weights w_plus, w_minus = (sigma2 +- 2*sqrt(2)*b)/16 and w_zero =
(8 - sigma2)/16.  At fixed sigma2 the left side minus the right grows with b, so the
entangled points are b*(sigma2) < b <= sigma2/(2*sqrt(2)) for a single root b*; they begin
at sigma2_on = 8*2**q/(2 + 2**q).  The entangled fraction is the area above b* divided by
the feasible area, the integral of sigma2/(2*sqrt(2)) over [0, 8], which is 8*sqrt(2).
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from conftest import B_MAX, SCAN_QS
from qmaxent.entangle import MARGIN_TOL, area_fraction, scan_region

#: the raster's entangled fraction lies within this many cell widths of the continuum one;
#: fixed once, never to be raised: the worst case at the six q and n = 100, 400, 1000 was 1.97
C_RASTER = 2.5


def _excess(q, b, s2):
    """w_plus**(1/q) - w_minus**(1/q) - 2*w_zero**(1/q), each root over the largest."""
    w = ((s2 + B_MAX * b) / 16.0, (s2 - B_MAX * b) / 16.0, (8.0 - s2) / 16.0)
    logs = [math.log(x) / q if x > 0.0 else -math.inf for x in w]
    top = max(logs)
    plus, minus, zero = (math.exp(x - top) for x in logs)
    return plus - minus - 2.0 * zero


def boundary_b(q, s2):
    """b*(sigma2): the data are entangled for b > b*; inf where no feasible b is."""
    hi = s2 / B_MAX
    if _excess(q, hi, s2) <= 0.0:  # next to sigma2_on rounding can tie both ends: no gap
        return math.inf
    return brentq(lambda b: _excess(q, b, s2), 0.0, hi, xtol=1e-15)


def entangled_fraction(q):
    """The continuum entangled fraction of the feasible (b_q, sigma2_q) domain."""
    s2_on = 8.0 * 2.0 ** q / (2.0 + 2.0 ** q)
    area, _ = quad(lambda s2: max(s2 / B_MAX - boundary_b(q, s2), 0.0), s2_on, 8.0,
                   epsabs=1e-14, epsrel=1e-13, limit=200)
    return area / (8.0 * math.sqrt(2.0))


def test_reproduces_the_recorded_fractions():
    recorded = (0.8173556093, 0.7044128506, 0.5424842072, 0.3042297139, 0.1622445706,
                0.0008837466)
    for q, want in zip(SCAN_QS, recorded):
        assert abs(entangled_fraction(q) - want) < 5e-11, q


@pytest.mark.parametrize("n", [100, 400, 1000])
def test_raster_fraction_is_within_c_cells_of_the_continuum(n):
    for q in SCAN_QS:
        got = area_fraction(scan_region(q, n))
        assert n * abs(got - entangled_fraction(q)) <= C_RASTER, (q, n, got)


def test_fraction_decreases_strictly_in_q():
    # past q ~ 30 the fraction is below 1e-25 and quad returns exact zeros, so neighbours
    # tie; up to q = 10 they differ by 5.6e-7 or more, against quad error estimates < 1e-13
    fractions = [entangled_fraction(q) for q in np.logspace(-2.0, 1.0, 50)]
    assert all(a > b for a, b in zip(fractions, fractions[1:])), fractions


@pytest.mark.parametrize("q", SCAN_QS)
def test_raster_verdicts_lie_on_their_side_of_the_boundary(q):
    g = scan_region(q, 100)
    margin = g.lambda_max - 0.5
    sure = g.feasible & (np.abs(margin) > MARGIN_TOL)
    for b, s2, entangled in zip(g.b_q[sure], g.sigma2_q[sure], g.entangled[sure]):
        assert (b > boundary_b(q, s2)) == entangled, (q, b, s2)
