"""Property tests over the whole data domain, log-uniform q.

The data lie inside the domain and on each of its edges: the uncertainty
line sigma2 = 2*sqrt(2)*b, sigma2 = 8, and subnormal sigma2 at b = 0, whose
subnormal weights would overflow a plain w*expm1(e*d) term at large q.
Everything is checked for q in [1e-300, 1e300]: the closed forms, the
multipliers and the CLI exit codes.  The matrix route of the mutual entropy
is checked on interior data against the first-order bound its conditioning
allows.
"""

import contextlib
import io
import math
import sys

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qmaxent.cli as cli
from conftest import B_MAX
from qmaxent.errors import BoundaryDivergence
from qmaxent.inference import (
    infer_spectra,
    infer_state,
    lagrange_multipliers,
    to_density_matrix,
    validate_constraints,
)
from qmaxent.measures import mutual_entropy, mutual_entropy_closed_form
from qmaxent.thermo import entropy_of_state

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@st.composite
def domain_data(draw):
    kind = draw(st.sampled_from(("interior", "uncertainty edge", "sigma edge", "subnormal")))
    if kind == "subnormal":
        return 0.0, draw(st.floats(5e-324, 2.2e-308, allow_subnormal=True))
    b = B_MAX * draw(st.floats(0.0, 1.0))
    floor = B_MAX * b
    if kind == "uncertainty edge":
        return b, floor
    if kind == "sigma edge":
        return b, 8.0
    return b, floor + draw(st.floats(0.0, 1.0)) * (8.0 - floor)


FULL_QS = log_uniform(1e-300, 1e300)


@PROPERTY
@given(q=FULL_QS, data=domain_data())
def test_scalar_and_array_closed_forms_agree_and_are_finite(q, data):
    b, s2 = data
    state = infer_state(validate_constraints(q, b, s2))
    batch = infer_spectra(q, np.array([b]), np.array([s2]))
    assert batch.feasible[0]
    x, y = state.lambda_max, batch.lambda_max[0]
    assert math.isfinite(x) and math.isfinite(y)
    assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-300), (x, y)
    assert all(math.isfinite(x) for x in (state.Z_q, state.c_q, entropy_of_state(state)))


@PROPERTY
@given(q=FULL_QS, data=domain_data())
def test_entropy_finite_and_multipliers_finite_or_divergent(q, data):
    state = infer_state(validate_constraints(q, *data))
    assert math.isfinite(entropy_of_state(state))
    try:
        mult = lagrange_multipliers(state)
    except BoundaryDivergence:
        return
    assert math.isfinite(mult.lambda_1) and math.isfinite(mult.lambda_2)


@PROPERTY
@given(q=FULL_QS, data=domain_data(), q_prime=log_uniform(1e-6, 500.0))
def test_closed_form_mutual_entropy_finite(q, data, q_prime):
    state = infer_state(validate_constraints(q, *data))
    assert math.isfinite(mutual_entropy_closed_form(state, q_prime))


#: eigh's backward error in units of eps, fixed once; the worst seen on 5000 random points was 3.1
CONDITIONING_C = 8.0


def kl_slope(lam, q_prime):
    """dK/dlambda of K = sum lambda*qexpm1(ln 4*lambda, q'-1): (q'(4 lambda)^(q'-1) - 1)/(q'-1)."""
    if q_prime == 1.0:
        return math.log(4.0 * lam) + 1.0
    return (q_prime * (4.0 * lam) ** (q_prime - 1.0) - 1.0) / (q_prime - 1.0)


@PROPERTY
@given(q=log_uniform(0.05, 5.0), q_prime=log_uniform(0.05, 5.0),
       u=st.floats(0.0, 1.0 - 1e-6), v=st.floats(1e-6, 1.0 - 1e-6))
@example(q=0.2076, q_prime=0.2076,  # b = 2.6825, sigma2 = 7.9678: the gap is 7.2e-8 there
         u=2.6825 / B_MAX, v=(7.9678 - B_MAX * 2.6825) / (8.0 - B_MAX * 2.6825))
def test_matrix_mutual_entropy_within_its_conditioning(q, q_prime, u, v):
    # the matrix holds a tiny eigenvalue only as a difference of entries near 1/2, so eigh can
    # miss it by a few eps absolute; K moves by dK/dlambda times that
    b = B_MAX * u
    floor = B_MAX * b
    state = infer_state(validate_constraints(q, b, floor + v * (8.0 - floor)))
    matrix = mutual_entropy(to_density_matrix(state), q_prime).value
    closed = mutual_entropy_closed_form(state, q_prime)
    slopes = sum(abs(kl_slope(lam, q_prime)) for lam in state.eigenvalues())
    assert abs(matrix - closed) <= slopes * CONDITIONING_C * sys.float_info.epsilon


@PROPERTY
@given(q=FULL_QS, data=domain_data(), q_prime=log_uniform(1e-6, 1e6),
       command=st.sampled_from(("infer", "mutual", "thermo", "verify")))
def test_cli_exits_only_with_documented_codes(q, data, q_prime, command):
    b, s2 = data
    argv = [command, "--q", repr(q), "--b", repr(b), "--sigma2", repr(s2)]
    if command == "mutual":
        argv += ["--qprime", repr(q_prime)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4)
