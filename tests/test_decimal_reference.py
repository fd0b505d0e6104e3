import math
import sys

import pytest

from decimal_reference import closed_form
from qmaxent.inference import infer_state, lagrange_multipliers, validate_constraints
from qmaxent.thermo import entropy_of_state

#: q - 1 across the width of the former Gibbs branch, on both sides of q = 1
NEAR_ONE = (0.0, 1e-12, -1e-12, 1e-10, -1e-10, 1e-8, -1e-8, 1e-6, -1e-6, 1e-4, -1e-4, 1e-2, -1e-2)
#: below q ~ 1e-11, e = (1-q)/q once amplified the rounding of ln w + ln Z_q in the multipliers
FAR = (1e-100, 1e-20, 3.12533e-12, 1e-3, 0.2, 3.0, 50.0, 600.0)
QS = tuple(1.0 + d for d in NEAR_ONE) + FAR
POINTS = ((1.0, 5.0), (1.2, 5.5), (0.3, 2.0), (2.0, 7.5))


def _close(got: float, want) -> bool:
    if abs(want) < sys.float_info.min:  # below the normal range: only underflow is right
        return abs(got) < sys.float_info.min
    return abs(got - float(want)) <= 1e-9 * abs(float(want))


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("b, s2", POINTS)
def test_closed_form_matches_decimal_reference(q, b, s2):
    state = infer_state(validate_constraints(q, b, s2))
    mult = lagrange_multipliers(state)
    ref = closed_form(q, b, s2)
    got = {"ln_Z": math.log(state.Z_q), "S": entropy_of_state(state), "c": state.c_q,
           "lambda_1": mult.lambda_1, "lambda_2": mult.lambda_2}
    for name, value in got.items():
        want = getattr(ref, name)
        assert _close(value, want), (name, value, float(want))


def test_reference_reproduces_the_frozen_baseline():
    # the baselines frozen in test_inference at (q=2, b=sqrt(2), sigma2=6)
    ref = closed_form(2.0, math.sqrt(2.0), 6.0)
    assert abs(float(ref.c) - 0.2917960675006310) < 1e-15
    assert abs(float(ref.lambda_1) - -0.0435658818736355) < 1e-15
    assert abs(float(ref.lambda_2) - -0.0154028652506099) < 1e-15
