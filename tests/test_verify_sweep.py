"""Split `verify` on correct data across the whole domain.

2000 calls drawn from random.Random(11): q log-uniform in [1e-300, 1e300], and the data
inside the domain, on the uncertainty edge, on sigma2_q = 8, or subnormal at b_q = 0, as
`domain_data` in test_properties draws them.  The closed form is the maximum there, so every
call should exit 0.  The calls are split by a data rule: at q < 1e-12 with w_zero the top
escort weight the split search cannot place the split, and that region is a strict xfail.
"""

import contextlib
import io
import math
import random

import pytest

import qmaxent.cli as cli
from conftest import B_MAX

B = float(B_MAX)


def sweep():
    """The 2000 (q, b_q, sigma2_q) of the sweep, in draw order."""
    rng = random.Random(11)
    points = []
    for _ in range(2000):
        q = math.exp(rng.uniform(math.log(1e-300), math.log(1e300)))
        kind = rng.choice(("interior", "uncertainty edge", "sigma edge", "subnormal"))
        if kind == "subnormal":
            points.append((q, 0.0, rng.uniform(5e-324, 2.2e-308)))
            continue
        b = B * rng.random()
        floor = B * b
        s2 = {"uncertainty edge": floor, "sigma edge": 8.0}.get(kind)
        points.append((q, b, floor + rng.random() * (8.0 - floor) if s2 is None else s2))
    return points


def tiny_q_with_w_zero_on_top(q, b, s2):
    # w_zero = (8 - sigma2_q)/16 against w_plus = (sigma2_q + 2*sqrt(2)*b_q)/16
    return q < 1e-12 and 8.0 - s2 > s2 + B * b


def failing_calls(points):
    failed = []
    for q, b, s2 in points:
        argv = ["verify", "--q", repr(q), "--b", repr(b), "--sigma2", repr(s2)]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
        if code != 0:
            failed.append((code, argv))
    return failed


def test_split_verify_passes_outside_the_tiny_q_region():
    points = [p for p in sweep() if not tiny_q_with_w_zero_on_top(*p)]
    assert len(points) > 1000
    assert failing_calls(points) == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: at q < 1e-12 ln Z_q is flat to double "
                   "precision near the equal split, so the split search misses it")
def test_split_verify_passes_at_tiny_q_with_w_zero_on_top():
    points = [p for p in sweep() if tiny_q_with_w_zero_on_top(*p)]
    assert failing_calls(points) == []
