"""Tests of the benchmark's own reference; run with ``python3 -m pytest perfbench``."""

import math
from decimal import Decimal

import reference as ref
from workloads import escort_data


def test_regression_point():
    lam = ref.state(2.0, math.sqrt(2.0), 6.0)
    assert abs(lam[0] - 0.4270509831) < 1e-10
    assert lam[1] == lam[2] == lam[3]
    assert abs(sum(lam) - 1.0) < 1e-15


def test_spectrum_of_given_weights():
    # q = 2: lambda_i is proportional to sqrt(w_i)
    lam = ref.spectrum((Decimal("0.625"), Decimal("0.125"), Decimal("0.125"), Decimal("0.125")), 2)
    root5 = Decimal(5).sqrt()
    assert abs(lam[0] - root5 / (root5 + 3)) < Decimal("1e-28")


def test_escort_round_trip_recovers_data():
    for q, b, s2 in ((0.3, 0.4, 3.0), (2.0, math.sqrt(2.0), 6.0), (4.7, 1.9, 7.5)):
        b_back, s2_back = escort_data(ref.state(q, b, s2), q)
        assert abs(b_back - b) < 1e-13
        assert abs(s2_back - s2) < 1e-13


def test_boundary_weights_and_gibbs_entropy():
    # on the uncertainty boundary w_minus = 0 and its eigenvalue vanishes
    b = 1.0
    lam = ref.spectrum(ref.escort_from_data(b, 2.0 * math.sqrt(2.0) * b), 0.5)
    assert abs(lam[1]) < Decimal("1e-15")
    # at q = 1 the spectrum equals the weights and the entropy is von Neumann's
    weights = ref.escort_from_data(0.5, 4.0)
    lam = ref.spectrum(weights, 1.0)
    assert all(abs(x - w) < Decimal("1e-28") for x, w in zip(lam, weights))
    assert abs(ref.tsallis_entropy(lam, 1.0) + sum(x * x.ln() for x in lam)) < Decimal("1e-26")
    assert abs(ref.tsallis_entropy((0.25,) * 4, 2.0) - Decimal("0.75")) < Decimal("1e-28")
