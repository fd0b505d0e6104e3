import decimal
import math
import sys

import numpy as np
import pytest

from conftest import AGREEMENT_QS, B_MAX, interior_grid
from qmaxent.bell import bell_projectors, chsh_operator
from qmaxent.errors import (
    BoundaryDivergence,
    BOutOfRange,
    FloatRangeExceeded,
    NegativeBracket,
    QOutOfDomain,
    SigmaOutOfRange,
    UncertaintyViolated,
)
from qmaxent.inference import (
    ConstraintSet,
    InferredState,
    Multipliers,
    escort_weights,
    fixed_point_residual,
    infer_state,
    lagrange_multipliers,
    mu_factors,
    qexpm1,
    qexpm1_scaled,
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

    def test_inverse_pair(self):
        for a, t in ((-0.7, 0.3), (1.2, -0.5), (-3.0, 2.0)):
            assert abs(qlog1p(qexpm1(a, t), t) - a) < 1e-13 * max(1.0, abs(a))

    def test_exact_zero_keeps_its_sign(self):
        for t in (0.5, -1.0, 0.0):
            assert math.copysign(1.0, qexpm1(0.0, t)) == 1.0

    def test_scaled_term_is_the_plain_product_where_a_t_is_not_positive(self):
        for w, a, t in ((0.3, -1.2, 0.5), (0.7, 2.0, -0.3), (1e-300, -5.0, 3.0),
                        (5e-324, -700.0, 1.0), (0.25, 0.0, 2.0), (0.6, -0.4, 1e-12)):
            assert qexpm1_scaled(w, a, t) == w * qexpm1(a, t)

    def test_scaled_term_matches_decimal_where_a_t_is_positive(self):
        # at w = 5e-324 and a*t = 700 with t = 1e-5, qexpm1(a, t) alone is past the float range;
        # exp(ln w + a*t) has condition number |ln w + a*t|, so the rounding of ln w and a*t
        # allows a relative error of eps*(|ln w| + |a*t|): 1.6e-13 at w = 5e-324, a*t = 700
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            for w, a, t in ((0.3, 1.2, 0.5), (0.3, -2.0, -0.7), (1e-300, 3.0, 200.0),
                            (5e-324, 70.0, 10.0), (5e-324, -700.0, -1.0), (5e-324, 7e7, 1e-5),
                            (5e-324, 7.09e7, 1e-5), (0.9, 1e-9, 1e-9)):
                dw, da, dt = decimal.Decimal(w), decimal.Decimal(a), decimal.Decimal(t)
                want = float(dw * ((da * dt).exp() - 1) / dt)
                got = qexpm1_scaled(w, a, t)
                tol = 2.0 * sys.float_info.epsilon * (1.0 + abs(math.log(w)) + abs(a * t))
                assert math.isfinite(got) and abs(got - want) <= tol * abs(want), (w, a, t, got)
        assert math.isinf(5e-324 * (math.exp(700.0) / 1e-5))

    def test_scaled_term_at_t_zero(self):
        for w, a in ((0.3, -1.7), (5e-324, 2.5), (1.0, 0.0)):
            assert qexpm1_scaled(w, a, 0.0) == w * a


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
        # at subnormal q, 1/q overflows and the closed form came out all nan
        for q in (0.0, -1.0, float("nan"), 1e-310, 5e-324):
            with pytest.raises(QOutOfDomain):
                validate_constraints(q, 1.0, 6.0)
        validate_constraints(sys.float_info.min, 1.0, 6.0)

    def test_closed_inequalities_have_tolerance(self):
        validate_constraints(2.0, B_MAX + 1e-13, 8.0 + 1e-13)
        validate_constraints(2.0, 1.0, B_MAX * 1.0 - 1e-13)

    @pytest.mark.parametrize("data, error", [
        ((0.0, 1.0, 6.0), QOutOfDomain),
        ((2.0, 3.0, 8.0), BOutOfRange),
        ((2.0, 1.0, 9.0), SigmaOutOfRange),
        ((2.0, 1.4142136, 3.0), UncertaintyViolated),
    ], ids=["q", "b", "sigma2", "uncertainty"])
    def test_every_way_of_building_a_set_validates(self, data, error):
        """Direct construction, _make and _replace raise what validate_constraints raises."""
        with pytest.raises(error) as expected:
            validate_constraints(*data)
        valid = validate_constraints(2.0, 1.0, 6.0)
        for build in (lambda: ConstraintSet(*data),
                      lambda: ConstraintSet._make(data),
                      lambda: valid._replace(**dict(zip(valid._fields, data)))):
            with pytest.raises(error) as raised:
                build()
            assert type(raised.value) is error
            assert str(raised.value) == str(expected.value)
        with pytest.raises(BOutOfRange):
            valid._replace(b_q=99.0)


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

    def test_mu_finite_at_tiny_q(self):
        # e*(ln w + ln Z_q) with e = (1-q)/q ~ 2.5e19 overflowed on the rounding of the sum
        s = infer_state(validate_constraints(4.0791560137447976e-20, 1.006362305139997,
                                             4.687347012544155))
        mu, e1 = mu_factors(s), 1.0 / (1.0 - s.q)
        z1 = 2 * mu.mu_zero ** e1 + mu.mu_minus ** e1 + mu.mu_plus ** e1
        assert abs(z1 - s.Z_q) <= 1e-10 * s.Z_q

    def test_mu_past_the_float_range_raises_typed_error(self):
        # subnormal weights at large q: e*ln(w*Z_q) ~ 714 and 738, past exp's range
        for q in (30.0, 1e3):
            with pytest.raises(FloatRangeExceeded):
                mu_factors(infer_state(validate_constraints(q, 0.0, 1e-320)))

    def test_mu_at_a_zero_weight(self):
        assert mu_factors(point(2.0, 0.0, 8.0)).mu_zero == math.inf
        assert mu_factors(point(0.5, 0.0, 8.0)).mu_zero == 0.0


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
            eig_deg=s.eig_deg / norm, Z_q=s.Z_q, c_q=s.c_q, ln_wz=s.ln_wz,
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

    def test_non_finite_multipliers(self):
        s = point(2.0)
        for bad in (Multipliers(math.inf, 0.0), Multipliers(0.0, math.nan)):
            with pytest.raises(BoundaryDivergence):
                fixed_point_residual(s, bad)

    def test_negative_bracket_above_q_one(self):
        # at q = 2 the bracket is 1 - x, and lambda_2 = -1e3 makes x far above 1
        s = point(2.0)
        with pytest.raises(NegativeBracket):
            fixed_point_residual(s, Multipliers(0.0, -1e3))

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

    def test_exactly_hermitian_without_symmetrising(self, rng):
        # real weights on real symmetric projectors: no symmetrising step needed
        for _ in range(200):
            q = math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
            u, v = rng.uniform(0.02, 0.98, size=2)
            b = B_MAX * u
            s2 = B_MAX * b + v * (8.0 - B_MAX * b)
            rho = to_density_matrix(infer_state(validate_constraints(q, b, s2)))
            assert np.array_equal(rho, rho.conj().T)

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
