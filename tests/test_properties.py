"""Property tests over the whole data domain, log-uniform q in [1e-6, 1e6].

The data lie inside the domain and on each of its edges: the uncertainty
line sigma2 = 2*sqrt(2)*b, sigma2 = 8, and subnormal sigma2 at b = 0, whose
subnormal weights would overflow a plain w*expm1(e*d) term at large q.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import qmaxent.cli as cli
from conftest import B_MAX
from qmaxent.errors import BoundaryDivergence
from qmaxent.inference import infer_spectra, infer_state, lagrange_multipliers, validate_constraints
from qmaxent.measures import mutual_entropy_closed_form
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


QS = log_uniform(1e-6, 1e6)


@PROPERTY
@given(q=QS, data=domain_data())
def test_scalar_and_array_closed_forms_agree_and_are_finite(q, data):
    b, s2 = data
    state = infer_state(validate_constraints(q, b, s2))
    batch = infer_spectra(q, np.array([b]), np.array([s2]))
    assert batch.feasible[0]
    scalar = (state.eig_phi_plus, state.eig_psi_minus, state.eig_deg, state.Z_q, state.c_q)
    array = (batch.eig_phi_plus[0], batch.eig_psi_minus[0], batch.eig_deg[0],
             batch.Z_q[0], batch.c_q[0])
    for x, y in zip(scalar, array):
        assert math.isfinite(x) and math.isfinite(y)
        assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-300), (x, y)
    assert math.isclose(entropy_of_state(state), batch.S_q[0], rel_tol=1e-12, abs_tol=1e-300)


@PROPERTY
@given(q=QS, data=domain_data())
def test_entropy_finite_and_multipliers_finite_or_divergent(q, data):
    state = infer_state(validate_constraints(q, *data))
    assert math.isfinite(entropy_of_state(state))
    try:
        mult = lagrange_multipliers(state)
    except BoundaryDivergence:
        return
    assert math.isfinite(mult.lambda_1) and math.isfinite(mult.lambda_2)


@PROPERTY
@given(q=QS, data=domain_data(), q_prime=log_uniform(1e-6, 500.0))
def test_closed_form_mutual_entropy_finite(q, data, q_prime):
    state = infer_state(validate_constraints(q, *data))
    assert math.isfinite(mutual_entropy_closed_form(state, q_prime))


@PROPERTY
@given(q=QS, data=domain_data(), q_prime=log_uniform(1e-6, 1e6),
       command=st.sampled_from(("infer", "mutual", "thermo", "verify")))
def test_cli_exits_only_with_documented_codes(q, data, q_prime, command):
    b, s2 = data
    argv = [command, "--q", repr(q), "--b", repr(b), "--sigma2", repr(s2)]
    if command == "mutual":
        argv += ["--qprime", repr(q_prime)]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    assert code in (0, 2, 3, 4)
