import math
import random
import sys

import pytest

import qmaxent.cli as cli
from conftest import B_MAX
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


#: an edge point's error may be this many times the reference's own change under one-ulp
#: moves of b_q and sigma2_q.  Fixed once, never to be raised: over 8085 seeded edge points
#: the worst case was 2.33, lambda_1 and lambda_2 at the uncertainty edge
K_SPREAD = 4.0
EDGES = ("sigma2", "uncertainty", "b")


def _edge_points(edge):
    """About 40 seeded points at a distance s in [1e-11, 1e-4] from one edge, plus NEAR_ONE.

    The edges are sigma2_q = 8 (w_zero -> 0), sigma2_q = 2*sqrt(2)*b_q (w_minus -> 0) and
    b_q = 0 (w_plus - w_minus -> 0); q is log-uniform in [1e-3, 1e3].
    """
    rng = random.Random(EDGES.index(edge))
    qs = [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(40)] + [1.0 + d for d in NEAR_ONE]
    for q in qs:
        s = 10.0 ** rng.uniform(-11.0, -4.0)
        if edge == "sigma2":
            yield q, rng.uniform(0.0, 2.8), 8.0 - 16.0 * s
        elif edge == "uncertainty":
            b = rng.uniform(0.0, 2.8)
            yield q, b, B_MAX * b + 16.0 * s
        else:
            yield q, s, rng.uniform(0.01, 7.99)


def _fields(q, b, s2):
    state = infer_state(validate_constraints(q, b, s2))
    mult = lagrange_multipliers(state)
    return {"ln_Z": math.log(state.Z_q), "S": entropy_of_state(state), "c": state.c_q,
            "lambda_1": mult.lambda_1, "lambda_2": mult.lambda_2,
            "lambda_max": state.lambda_max}


@pytest.mark.parametrize("edge", EDGES)
def test_edges_match_decimal_reference_to_its_conditioning(edge):
    misses = []
    for q, b, s2 in _edge_points(edge):
        ref = closed_form(q, b, s2)
        moved = [closed_form(q, bb, ss) for bb, ss in
                 ((math.nextafter(b, 3.0), s2), (math.nextafter(b, -1.0), s2),
                  (b, math.nextafter(s2, 9.0)), (b, math.nextafter(s2, -1.0)))]
        for name, got in _fields(q, b, s2).items():
            want = getattr(ref, name)
            if abs(want) < sys.float_info.min:  # below the normal range: only underflow is right
                ok = abs(got) < sys.float_info.min
            else:
                spread = max(abs(getattr(r, name) - want) for r in moved)
                ok = abs(got - float(want)) <= max(1e-12 * abs(float(want)),
                                                   K_SPREAD * float(spread))
            if not ok:
                misses.append((name, q, b, s2, got, float(want)))
    assert not misses, misses[:5]


@pytest.mark.parametrize("q, b, s2, line", [
    ("0.3", "1.5", "7.9999999984", "lambda_2 = -0.158168733"),
    ("0.0577", "1.03e-11", "6.27", "lambda_1 = -8.90634118e-11"),
], ids=["sigma2-edge", "b-edge"])
def test_cli_prints_the_reference_digits_at_an_edge(capsys, q, b, s2, line):
    name = line.split(" = ")[0]
    want = getattr(closed_form(float(q), float(b), float(s2)), name)
    assert f"{name} = {float(want):.9g}" == line
    assert cli.run(["infer", "--q", q, "--b", b, "--sigma2", s2]) == 0
    assert line in capsys.readouterr().out.splitlines()
