import math

import numpy as np
import pytest

from conftest import B_MAX
from qmaxent.bell import bell_projectors
from qmaxent.errors import BoundaryDivergence, StencilOutOfDomain
import qmaxent.thermo as thermo
from qmaxent.inference import (
    infer_state,
    lagrange_multipliers,
    to_density_matrix,
    validate_constraints,
)
from qmaxent.measures import tsallis_entropy
from qmaxent.thermo import (
    entropy_of_state,
    free_energy,
    legendre_report,
    purification_path_check,
)

# frozen at (q=2, b=sqrt(2), sigma2=6): S = 1 - Tr rho**2 with
# Tr rho**2 = 7 - 3*sqrt(5); F from the analytic multipliers, cross-checked
# against the finite-difference suite below
S_BASELINE_Q2 = 0.7082039324993690
F_BASELINE_Q2 = -0.8622325850048795


def inferred(q, b=math.sqrt(2.0), s2=6.0):
    return infer_state(validate_constraints(q, b, s2))


class TestEntropyOfState:
    def test_pure_boundary_is_exactly_zero(self):
        for q in (0.5, 1.0, 3.0):
            assert entropy_of_state(infer_state(validate_constraints(q, B_MAX, 8.0))) == 0.0

    def test_baseline_point(self):
        assert abs(entropy_of_state(inferred(2.0)) - S_BASELINE_Q2) < 1e-12

    def test_two_level_mixture(self):
        assert abs(entropy_of_state(inferred(2.0, 0.0, 8.0)) - 0.5) < 1e-14

    def test_agrees_with_spectral_entropy(self):
        for q in (0.1, 0.5, 1.0, 1.1, 2.0, 5.0):
            s = inferred(q, 1.2, 5.5)
            direct = tsallis_entropy(to_density_matrix(s), q)
            assert abs(entropy_of_state(s) - direct) < 1e-10


class TestFreeEnergy:
    def test_baseline_point(self):
        point = free_energy(inferred(2.0))
        assert abs(point.S_q - S_BASELINE_Q2) < 1e-12
        assert abs(point.F_q - F_BASELINE_Q2) < 1e-12

    def test_construction_identity(self):
        point = free_energy(inferred(0.5, 1.0, 6.0))
        m = point.multipliers
        rebuilt = m.lambda_1 * 1.0 + m.lambda_2 * 6.0 - point.S_q
        assert abs(point.F_q - rebuilt) < 1e-12

    def test_symmetric_point_drops_lambda1(self):
        point = free_energy(inferred(2.0, 0.0, 6.0))
        assert point.multipliers.lambda_1 == 0.0
        assert abs(point.F_q - (point.multipliers.lambda_2 * 6.0 - point.S_q)) < 1e-12

    def test_boundary_divergence(self):
        with pytest.raises(BoundaryDivergence):
            free_energy(infer_state(validate_constraints(2.0, B_MAX, 8.0)))


class TestLegendreReport:
    def test_multiplier_relations_subadditive(self):
        r = legendre_report(validate_constraints(2.0, math.sqrt(2.0), 6.0), h=1e-5)
        assert r.rel_err_1 < 1e-5
        assert r.rel_err_2 < 1e-5
        assert abs(r.dS_db_fd - r.lambda_1) < 1e-5 * abs(r.lambda_1)

    def test_multiplier_relations_superadditive(self):
        r = legendre_report(validate_constraints(0.5, 1.0, 6.0), h=1e-5)
        assert r.rel_err_1 < 1e-4
        assert r.rel_err_2 < 1e-4

    def test_path_residual(self):
        for q in (0.5, 2.0):
            r = legendre_report(validate_constraints(q, 1.0, 6.0), h=1e-5)
            assert r.path_residual < 1e-6

    def test_stencil_leaves_domain(self):
        with pytest.raises(StencilOutOfDomain):
            legendre_report(validate_constraints(2.0, 0.0, 6.0), h=1e-5)
        with pytest.raises(StencilOutOfDomain):
            legendre_report(validate_constraints(2.0, 1.0, B_MAX + 5e-6), h=1e-5)

    def test_builds_each_state_once(self, monkeypatch):
        # centre (reused as path point 0) + four stencil points + ten more path
        # points; values recorded when the stencil states were built twice agree
        # to FD rounding
        recorded = {"dS_db_fd": -0.04356588188536569, "dS_dsigma2_fd": -0.015402865249924956,
                    "lambda_1": -0.04356588187363552, "lambda_2": -0.01540286525060986}
        q, b, s2, h = 2.0, math.sqrt(2.0), 6.0, 1e-5
        real = thermo.infer_state
        calls = []

        def counting(c):
            calls.append(c)
            return real(c)

        monkeypatch.setattr(thermo, "infer_state", counting)
        r = legendre_report(validate_constraints(q, b, s2), h=h)
        assert len(calls) == 15

        def entropy(db, ds):
            return entropy_of_state(real(validate_constraints(q, b + db, s2 + ds)))

        m = lagrange_multipliers(real(validate_constraints(q, b, s2)))
        assert r.dS_db_fd == (entropy(h, 0.0) - entropy(-h, 0.0)) / (2.0 * h)
        assert r.dS_dsigma2_fd == (entropy(0.0, h) - entropy(0.0, -h)) / (2.0 * h)
        assert (r.lambda_1, r.lambda_2) == (m.lambda_1, m.lambda_2)
        assert r.rel_err_1 == abs(r.dS_db_fd - m.lambda_1) / abs(m.lambda_1)
        assert r.rel_err_2 == abs(r.dS_dsigma2_fd - m.lambda_2) / abs(m.lambda_2)
        for name, value in recorded.items():
            assert abs(getattr(r, name) - value) <= 1e-9 * abs(value), name
        assert r.path_residual < 1e-6

    def test_step_validation(self):
        c = validate_constraints(2.0, 1.0, 6.0)
        for h in (1e-9, 1e-2):
            with pytest.raises(ValueError):
                legendre_report(c, h=h)


class TestPurificationPath:
    def test_endpoint_is_exactly_pure(self):
        for q in (0.5, 2.0):
            path = purification_path_check(q, steps=32)
            assert path.Z_q[-1] == 1.0
            assert path.S_q[-1] == 0.0
            assert path.fidelity[-1] == 1.0
            state = infer_state(validate_constraints(q, B_MAX, 8.0))
            target = bell_projectors()["phi_plus"]
            assert np.max(np.abs(to_density_matrix(state) - target)) == 0.0

    def test_near_pure_overlap(self):
        # overlap with the target at t = 0.99 for q = 2; its square root
        # (the Uhlmann fidelity) passes 0.9
        state = infer_state(validate_constraints(2.0, B_MAX * 0.99, 8.0 * 0.99))
        assert abs(state.eig_phi_plus - 0.8755541517580382) < 1e-12
        assert math.sqrt(state.eig_phi_plus) > 0.9

    def test_fidelity_nondecreasing(self):
        for q in (0.5, 2.0):
            path = purification_path_check(q, steps=64)
            assert np.all(np.diff(path.fidelity) >= 0.0)

    def test_entropy_strictly_decreasing_on_tail(self):
        for q in (0.5, 2.0):
            path = purification_path_check(q, steps=64)
            tail = path.S_q[48:]
            assert np.all(np.diff(tail) < 0.0)

    def test_normalizer_decreases_to_one_on_tail(self):
        path = purification_path_check(2.0, steps=64)
        tail = path.Z_q[48:]
        assert np.all(np.diff(tail) < 0.0)
        assert tail[-1] == 1.0

    def test_no_psi_minus_component(self):
        for t in np.linspace(0.1, 1.0, 10):
            state = infer_state(validate_constraints(2.0, B_MAX * t, 8.0 * t))
            assert state.eig_psi_minus == 0.0

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            purification_path_check(2.0, steps=1)
