import math

import numpy as np
import pytest

from conftest import AGREEMENT_QS, B_MAX, interior_grid
from qmaxent.bell import bell_projectors, chsh_operator
from qmaxent.errors import (
    BoundaryDivergence,
    BOutOfRange,
    FloatRangeExceeded,
    QOutOfDomain,
    SigmaOutOfRange,
    UncertaintyViolated,
)
from qmaxent.inference import (
    InferredState,
    escort_weights,
    fixed_point_residual,
    infer_state,
    lagrange_multipliers,
    mu_factors,
    qexpm1,
    qlog1p,
    to_density_matrix,
    validate_constraints,
)
from qmaxent.measures import q_expectation
from qmaxent.thermo import entropy_of_state

# baselines at (q=2, b=sqrt(2), sigma2=6), frozen from the split-search
# oracle (test_oracle re-derives them); closed forms are (3*sqrt(5)-5)/4
# and (3-sqrt(5))/4
LAM_MAX_Q2 = 0.4270509831248423
LAM_DEG_Q2 = 0.1909830056250526
# at q=0.5 the spectrum is (25/28, 1/28, 1/28, 1/28)
LAM_MAX_QHALF = 0.8928571428571429
LAM_DEG_QHALF = 0.0357142857142857
Z_Q2 = 3.4270509831248415
C_Q2 = 0.2917960675006310
LAMBDA_1_Q2 = -0.0435658818736355
LAMBDA_2_Q2 = -0.0154028652506099


def point(q, b=math.sqrt(2.0), s2=6.0):
    return infer_state(validate_constraints(q, b, s2))


class TestQDeformedPair:
    def test_limit_at_t_zero(self):
        assert qexpm1(-0.7, 0.0) == -0.7
        assert qlog1p(0.3, 0.0) == 0.3
        a = np.array([-np.inf, -2.0, 0.0, 1.5])
        assert qexpm1(a, 0.0) is a

    def test_continuous_through_t_zero(self):
        for t in (1e-300, 1e-12, -1e-12, 1e-6):
            assert abs(qexpm1(-0.7, t) - -0.7) <= abs(t)
            assert abs(qlog1p(0.3, t) - 0.3) <= abs(t)

    def test_floats_and_arrays_agree(self):
        xs = np.array([-1.0, -0.25, 0.0, 0.5, 1.0])
        for t in (0.4, -0.9, 1e-9):
            assert np.allclose(qexpm1(xs, t), [qexpm1(float(x), t) for x in xs], rtol=1e-15)
            assert np.allclose(qlog1p(xs, t), [qlog1p(float(x), t) for x in xs], rtol=1e-15)

    def test_inverse_pair(self):
        for a, t in ((-0.7, 0.3), (1.2, -0.5), (-3.0, 2.0)):
            assert abs(qlog1p(qexpm1(a, t), t) - a) < 1e-13 * max(1.0, abs(a))

    def test_exact_zero_keeps_its_sign(self):
        for t in (0.5, -1.0, 0.0):
            assert math.copysign(1.0, qexpm1(0.0, t)) == 1.0


class TestValidation:
    def test_interior_point_accepted(self):
        c = validate_constraints(2.0, 1.4142136, 6.0)
        assert (c.q, c.b_q, c.sigma2_q) == (2.0, 1.4142136, 6.0)

    def test_uncertainty_violation(self):
        with pytest.raises(UncertaintyViolated, match="uncertainty"):
            validate_constraints(2.0, 1.4142136, 3.0)

    def test_b_out_of_range(self):
        with pytest.raises(BOutOfRange):
            validate_constraints(2.0, 3.0, 8.0)
        with pytest.raises(BOutOfRange):
            validate_constraints(2.0, -0.5, 6.0)

    def test_sigma_out_of_range(self):
        with pytest.raises(SigmaOutOfRange):
            validate_constraints(2.0, 1.0, 9.0)

    def test_q_domain(self):
        for q in (0.0, -1.0, float("nan")):
            with pytest.raises(QOutOfDomain):
                validate_constraints(q, 1.0, 6.0)

    def test_closed_inequalities_have_tolerance(self):
        validate_constraints(2.0, B_MAX + 1e-13, 8.0 + 1e-13)
        validate_constraints(2.0, 1.0, B_MAX * 1.0 - 1e-13)


class TestEscortWeights:
    def test_interior_point(self):
        w = escort_weights(validate_constraints(2.0, math.sqrt(2.0), 6.0))
        assert abs(w.w_plus - 0.625) < 1e-15
        assert abs(w.w_minus - 0.125) < 1e-15
        assert abs(w.w_zero - 0.125) < 1e-15

    def test_symmetric_boundary(self):
        w = escort_weights(validate_constraints(2.0, 0.0, 8.0))
        assert (w.w_plus, w.w_minus, w.w_zero) == (0.5, 0.5, 0.0)

    def test_pure_corner_is_exact(self):
        w = escort_weights(validate_constraints(2.0, B_MAX, 8.0))
        assert (w.w_plus, w.w_minus, w.w_zero) == (1.0, 0.0, 0.0)

    def test_normalization(self):
        for b, s2 in interior_grid():
            w = escort_weights(validate_constraints(1.3, b, s2))
            assert abs(w.w_plus + w.w_minus + 2 * w.w_zero - 1.0) < 1e-14


class TestInferState:
    def test_subadditive_spectrum(self):
        s = point(2.0)
        assert abs(s.eig_phi_plus - LAM_MAX_Q2) < 1e-12
        assert abs(s.eig_psi_minus - LAM_DEG_Q2) < 1e-12
        assert abs(s.eig_deg - LAM_DEG_Q2) < 1e-12

    def test_superadditive_spectrum(self):
        s = point(0.5)
        assert abs(s.eig_phi_plus - LAM_MAX_QHALF) < 1e-12
        assert abs(s.eig_deg - LAM_DEG_QHALF) < 1e-12

    def test_pure_corner(self):
        for q in (0.3, 1.0, 2.0, 7.0):
            s = infer_state(validate_constraints(q, B_MAX, 8.0))
            assert s.eigenvalues() == (1.0, 0.0, 0.0, 0.0)
            assert s.Z_q == 1.0 and s.c_q == 1.0

    def test_normalizer_and_cq(self):
        s = point(2.0)
        assert abs(s.Z_q - Z_Q2) < 1e-12
        assert abs(s.c_q - C_Q2) < 1e-12

    def test_spectrum_sums_to_one(self):
        for q in AGREEMENT_QS:
            for b, s2 in interior_grid(3, 3):
                s = infer_state(validate_constraints(q, b, s2))
                assert abs(sum(s.eigenvalues()) - 1.0) < 1e-12
                assert min(s.eigenvalues()) >= 0.0

    def test_escort_consistency(self):
        # the q-escort of the spectrum must reproduce the weights
        for q in AGREEMENT_QS:
            s = point(q)
            lam = np.asarray(s.eigenvalues())
            escort = lam ** q / (lam ** q).sum()
            target = np.asarray(s.weights.as_tuple())
            assert np.max(np.abs(escort - target)) < 1e-10

    def test_cq_equals_z_power(self):
        for q in AGREEMENT_QS:
            for b, s2 in interior_grid(3, 3):
                s = infer_state(validate_constraints(q, b, s2))
                assert abs(s.c_q - s.Z_q ** (1.0 - q)) <= 1e-10 * abs(s.c_q)

    def test_intelligent_line_kills_psi_minus(self):
        for t in (0.2, 0.5, 0.8):
            s = infer_state(validate_constraints(2.0, B_MAX * t, 8.0 * t))
            assert s.eig_psi_minus == 0.0

    def test_seam_continuity(self):
        # both branch outputs agree at the seam |q-1| = 1e-6
        for q in (1.0 - 1e-6, 1.0 + 1e-6):
            s = infer_state(validate_constraints(q, 1.2, 5.5))
            w = s.weights
            expected = (w.w_plus, w.w_minus, w.w_zero, w.w_zero)
            assert max(abs(a - e) for a, e in zip(s.eigenvalues(), expected)) < 1e-5

    def test_subnormal_weights_at_large_q(self):
        # the roots stay positive while w*expm1(e*(a - a*)) would overflow
        for q in (30.0, 1e3, 1e6):
            s = infer_state(validate_constraints(q, 0.0, 1e-320))
            assert all(math.isfinite(x) and x > 0.0 for x in (s.Z_q, s.eig_psi_minus, s.eig_deg))
            assert abs(sum(s.eigenvalues()) - 1.0) < 1e-12

    def test_large_q_flattens_spectrum(self):
        for b, s2 in interior_grid(3, 3):
            s = infer_state(validate_constraints(1000.0, b, s2))
            assert max(abs(x - 0.25) for x in s.eigenvalues()) < 5e-3

    def test_lambda_max_tracks_largest_slot(self):
        # degenerate slot dominates when sigma2 is small
        s = infer_state(validate_constraints(2.0, 0.1, 1.0))
        assert s.lambda_max == s.eig_deg > s.eig_phi_plus


class TestPartitionIdentities:
    def test_two_normalizer_expressions_agree(self):
        # sum of mu**(1/(1-q)) vs sum of mu**(q/(1-q)), both equal Z
        for q in AGREEMENT_QS:
            for b, s2 in interior_grid(3, 3):
                s = infer_state(validate_constraints(q, b, s2))
                if abs(q - 1.0) < 1e-6:
                    continue
                mu = mu_factors(s)
                e1 = 1.0 / (1.0 - q)
                e2 = q / (1.0 - q)
                z1 = 2 * mu.mu_zero ** e1 + mu.mu_minus ** e1 + mu.mu_plus ** e1
                z2 = 2 * mu.mu_zero ** e2 + mu.mu_minus ** e2 + mu.mu_plus ** e2
                assert abs(z1 - s.Z_q) <= 1e-10 * s.Z_q
                assert abs(z2 - s.Z_q) <= 1e-10 * s.Z_q

    def test_mu_escort_identity(self):
        # mu_pm**(1/(1-q)) = (w_mp * Z)**(1/q), slots swapped
        for q in (0.1, 0.5, 2.0, 5.0):
            s = point(q)
            mu = mu_factors(s)
            w = s.weights
            e = 1.0 / (1.0 - q)
            assert abs(mu.mu_plus ** e - (w.w_minus * s.Z_q) ** (1 / q)) < 1e-10
            assert abs(mu.mu_minus ** e - (w.w_plus * s.Z_q) ** (1 / q)) < 1e-10
            assert abs(mu.mu_zero ** e - (w.w_zero * s.Z_q) ** (1 / q)) < 1e-10


class TestLagrangeMultipliers:
    def test_baseline_values(self):
        m = lagrange_multipliers(point(2.0))
        assert abs(m.lambda_1 - LAMBDA_1_Q2) < 1e-12
        assert abs(m.lambda_2 - LAMBDA_2_Q2) < 1e-12

    def test_finite_difference_oracle(self):
        # central differences of the entropy with step 1e-5
        h = 1e-5
        for q in (0.5, 2.0):
            m = lagrange_multipliers(point(q))

            def entropy(b, s2):
                return entropy_of_state(infer_state(validate_constraints(q, b, s2)))

            fd1 = (entropy(math.sqrt(2) + h, 6.0) - entropy(math.sqrt(2) - h, 6.0)) / (2 * h)
            fd2 = (entropy(math.sqrt(2), 6.0 + h) - entropy(math.sqrt(2), 6.0 - h)) / (2 * h)
            assert abs(m.lambda_1 - fd1) < 1e-4 * max(abs(fd1), 1.0)
            assert abs(m.lambda_2 - fd2) < 1e-4 * max(abs(fd2), 1.0)

    def test_symmetric_data_zero_lambda1(self):
        m = lagrange_multipliers(infer_state(validate_constraints(2.0, 0.0, 6.0)))
        assert m.lambda_1 == 0.0

    def test_boundary_divergence(self):
        for b, s2 in ((0.0, 8.0), (B_MAX, 8.0), (1.0, B_MAX * 1.0)):
            with pytest.raises(BoundaryDivergence):
                lagrange_multipliers(infer_state(validate_constraints(2.0, b, s2)))

    def test_seam_continuity(self):
        below = lagrange_multipliers(infer_state(validate_constraints(1 - 1e-6, 1.2, 5.5)))
        above = lagrange_multipliers(infer_state(validate_constraints(1 + 1e-6, 1.2, 5.5)))
        assert abs(below.lambda_1 - above.lambda_1) < 1e-5 * abs(below.lambda_1)
        assert abs(below.lambda_2 - above.lambda_2) < 1e-5 * abs(below.lambda_2)


class TestFixedPoint:
    def test_residual_tiny_at_interior_points(self):
        for q in AGREEMENT_QS:
            s = point(q)
            assert fixed_point_residual(s, lagrange_multipliers(s)) < 1e-10

    def test_detects_perturbed_spectrum(self):
        s = point(2.0)
        m = lagrange_multipliers(s)
        bumped = s.eig_phi_plus + 1e-3
        norm = bumped + s.eig_psi_minus + 2 * s.eig_deg
        fake = InferredState(
            constraints=s.constraints, weights=s.weights,
            eig_phi_plus=bumped / norm, eig_psi_minus=s.eig_psi_minus / norm,
            eig_deg=s.eig_deg / norm, Z_q=s.Z_q, c_q=s.c_q,
        )
        assert fixed_point_residual(fake, m) > 1e-4

    def test_large_q_residual(self):
        s = point(400.0, 1.0, 5.0)
        assert fixed_point_residual(s, lagrange_multipliers(s)) < 1e-10

    def test_small_q_cut_off_bracket_is_a_zero_eigenvalue(self):
        # the rebuilt bracket here is -2.3e-12, the Tsallis cut-off [1+(1-q)x]_+
        s = infer_state(validate_constraints(
            0.049244387320629336, 2.3002016583677594, 7.995533236625258))
        assert fixed_point_residual(s, lagrange_multipliers(s)) < 1e-8

    def test_residual_tiny_at_small_q_interior_points(self):
        rng = np.random.default_rng(3000)
        worst = 0.0
        for _ in range(3000):
            q = math.exp(rng.uniform(math.log(1e-3), math.log(0.3)))
            b = B_MAX * rng.uniform(0.05, 0.95)
            s2 = B_MAX * b + rng.uniform(0.05, 0.95) * (8.0 - B_MAX * b)
            s = infer_state(validate_constraints(q, b, s2))
            worst = max(worst, fixed_point_residual(s, lagrange_multipliers(s)))
        assert worst < 1e-8

    def test_underflowed_cq_is_typed_error(self):
        # c_q = Tr rho**q is about 4**-599 here, below the float range, and
        # the multipliers scale with it
        s = point(600.0, 1.0, 5.0)
        with pytest.raises(FloatRangeExceeded):
            fixed_point_residual(s, lagrange_multipliers(s))

    def test_boundary_state_has_no_multipliers(self):
        s = infer_state(validate_constraints(2.0, B_MAX, 8.0))
        with pytest.raises(BoundaryDivergence):
            lagrange_multipliers(s)


class TestDensityMatrix:
    def test_pure_corner_matrix(self):
        rho = to_density_matrix(infer_state(validate_constraints(2.0, B_MAX, 8.0)))
        expected = np.zeros((4, 4))
        expected[np.ix_([0, 3], [0, 3])] = 0.5
        assert np.max(np.abs(rho - expected)) < 1e-15

    def test_two_level_mixture(self):
        rho = to_density_matrix(infer_state(validate_constraints(3.0, 0.0, 8.0)))
        projs = bell_projectors()
        assert np.max(np.abs(rho - 0.5 * (projs["phi_plus"] + projs["psi_minus"]))) < 1e-14

    def test_always_valid_density_matrix(self):
        for q in AGREEMENT_QS:
            rho = to_density_matrix(point(q))
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0
            assert abs(np.trace(rho).real - 1.0) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-15

    def test_data_recovery_matrix_route(self):
        # escort expectations of the materialized state reproduce the inputs;
        # q = 0.1 is excluded here because the materialized eigenvalues
        # (weights to the power 1/q) sink below the absolute noise floor of
        # any double-precision eigensolver, see test_data_recovery_spectrum
        ops = chsh_operator()
        for q in (0.5, 0.9, 1.1, 2.0, 5.0):
            for b, s2 in interior_grid(3, 3):
                rho = to_density_matrix(infer_state(validate_constraints(q, b, s2)))
                assert abs(q_expectation(rho, ops.b_op, q) - b) < 1e-10
                assert abs(q_expectation(rho, ops.b_squared, q) - s2) < 1e-10

    def test_data_recovery_spectrum(self):
        # the spectrum itself carries full relative precision at any q
        for q in AGREEMENT_QS:
            for b, s2 in interior_grid(3, 3):
                s = infer_state(validate_constraints(q, b, s2))
                lam = np.asarray(s.eigenvalues())
                escort = lam ** q / (lam ** q).sum()
                assert abs(B_MAX * (escort[0] - escort[1]) - b) < 1e-10
                assert abs(8.0 * (escort[0] + escort[1]) - s2) < 1e-10
