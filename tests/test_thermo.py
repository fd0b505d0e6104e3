import math
import random

import numpy as np
import pytest

from conftest import B_MAX
from qmaxent.bell import bell_projectors
from qmaxent.errors import BoundaryDivergence, ConstraintError, StencilOutOfDomain
from qmaxent.inference import (
    infer_state,
    lagrange_multipliers,
    to_density_matrix,
    validate_constraints,
)
from qmaxent.measures import tsallis_entropy
from qmaxent.thermo import (
    LegendreReport,
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

    def test_equals_the_state_based_route_bitwise(self):
        # every field equals the audit written on InferredState and ThermoPoint:
        # entropy_of_state(infer_state(...)) at the stencil points and
        # free_energy(infer_state(...)) along the path
        def state_route(c, h):
            q, b, s2 = c.q, c.b_q, c.sigma2_q

            def state(b, s2):
                return infer_state(validate_constraints(q, b, s2))

            m = lagrange_multipliers(state(b, s2))
            s_bp, s_bm, s_sp, s_sm = [entropy_of_state(state(b + db, s2 + ds))
                                      for db, ds in ((h, 0.0), (-h, 0.0), (0.0, h), (0.0, -h))]
            d_s_db, d_s_ds2 = (s_bp - s_bm) / (2.0 * h), (s_sp - s_sm) / (2.0 * h)
            path = [(b + k * h, s2 + k * h) for k in range(11)]
            points = [free_energy(state(*p)) for p in path]
            residual = 0.0
            for k in range(10):
                t0, t1, (b0, s0), (b1, s1) = points[k], points[k + 1], path[k], path[k + 1]
                df = t1.F_q - t0.F_q
                predicted = (0.5 * (b0 + b1) * (t1.multipliers.lambda_1 - t0.multipliers.lambda_1)
                             + 0.5 * (s0 + s1) * (t1.multipliers.lambda_2 - t0.multipliers.lambda_2))
                residual = max(residual, abs(df - predicted) / (abs(df) + 1e-15))
            return LegendreReport(
                dS_db_fd=d_s_db, dS_dsigma2_fd=d_s_ds2,
                lambda_1=m.lambda_1, lambda_2=m.lambda_2,
                rel_err_1=abs(d_s_db - m.lambda_1) / max(abs(m.lambda_1), 1e-12),
                rel_err_2=abs(d_s_ds2 - m.lambda_2) / max(abs(m.lambda_2), 1e-12),
                path_residual=residual,
            )

        def bits(report):
            return [x.hex() for x in tuple(report)]

        gen = random.Random(20261019)
        checked = 0
        for _ in range(400):
            q = math.exp(gen.uniform(math.log(0.05), math.log(20.0)))
            b = B_MAX * gen.uniform(0.05, 0.95)
            s2 = B_MAX * b + gen.uniform(0.05, 0.95) * (8.0 - B_MAX * b)
            for h in (1e-5, 1e-3):
                c = validate_constraints(q, b, s2)
                try:
                    expected = state_route(c, h)
                except ConstraintError:
                    with pytest.raises(StencilOutOfDomain):
                        legendre_report(c, h=h)
                    continue
                assert bits(legendre_report(c, h=h)) == bits(expected), (q, b, s2, h)
                checked += 1
        assert checked > 700

        # values recorded at the baseline point
        r = legendre_report(validate_constraints(2.0, math.sqrt(2.0), 6.0), h=1e-5)
        recorded = {"dS_db_fd": -0.04356588188536569, "dS_dsigma2_fd": -0.015402865249924956,
                    "lambda_1": -0.04356588187363552, "lambda_2": -0.01540286525060986}
        for name, value in recorded.items():
            assert abs(getattr(r, name) - value) <= 1e-9 * abs(value), name
        assert r.path_residual < 1e-6

    def test_infeasible_stencil_point_is_named(self):
        # the message names the first infeasible point and carries the validation error
        h = 1e-5
        for q, b, s2, (db, ds) in ((2.0, 0.0, 6.0, (-h, 0.0)),
                                   (0.5, 1.0, 8.0 - 5e-6, (0.0, h)),
                                   (3.0, 1.0, B_MAX + 5e-6, (h, 0.0))):
            bad = (b + db, s2 + ds)
            with pytest.raises(ConstraintError) as cause:
                validate_constraints(q, *bad)
            with pytest.raises(StencilOutOfDomain) as info:
                legendre_report(validate_constraints(q, b, s2), h=h)
            assert str(info.value) == (f"stencil point (b={bad[0]}, sigma2={bad[1]}) "
                                       f"infeasible: {cause.value}")
            assert type(info.value.__cause__) is type(cause.value)

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
