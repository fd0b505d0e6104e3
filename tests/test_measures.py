import math
import random
import warnings

import numpy as np
import pytest

from conftest import random_density, random_unitary
from decimal_reference import mutual_entropy as reference_mutual_entropy
from qmaxent.bell import B_MAX, bell_projectors, bell_state, chsh_operator
from qmaxent.entangle import ppt_verdict
from qmaxent.errors import (
    DimensionError,
    FloatRangeExceeded,
    NotHermitian,
    QOutOfDomain,
    SingularReference,
    SupportMismatch,
)
from qmaxent.inference import infer_state, to_density_matrix, validate_constraints
from qmaxent.measures import (
    generalized_kl,
    marginals,
    mutual_entropy,
    mutual_entropy_closed_form,
    mutual_entropy_of_state,
    q_expectation,
    tsallis_entropy,
)

I4 = np.eye(4, dtype=complex)
PHI_PLUS = bell_projectors()["phi_plus"]
# mutual entropy of the inferred state at (q=2, b=sqrt(2), sigma2=6) with
# divergence order 2; closed form 27 - 12*sqrt(5), rederived below from the
# commuting-case formula
K_BASELINE_Q2 = 0.1671842700025223


def inferred(q=2.0, b=math.sqrt(2.0), s2=6.0):
    return infer_state(validate_constraints(q, b, s2))


class TestTsallisEntropy:
    def test_pure_state_vanishes(self):
        for q in (0.3, 1.0, 2.0, 5.0):
            assert abs(tsallis_entropy(PHI_PLUS, q)) < 1e-14

    def test_maximally_mixed(self):
        assert abs(tsallis_entropy(I4 / 4, 2.0) - 0.75) < 1e-14

    def test_von_neumann_limit(self):
        assert abs(tsallis_entropy(I4 / 4, 1.0) - math.log(4.0)) < 1e-12
        assert abs(tsallis_entropy(I4 / 4, 1.0 + 1e-7) - math.log(4.0)) < 1e-6

    def test_rejects_bad_q(self):
        with pytest.raises(QOutOfDomain):
            tsallis_entropy(I4 / 4, 0.0)

    def test_continuous_through_q_one(self):
        for d in (1e-12, 1e-9, 1e-6):
            for q in (1.0 - d, 1.0 + d):
                # (4**(1-q) - 1)/(1-q) = ln 4 * (1 + (1-q) ln 4 / 2 + ...)
                assert abs(tsallis_entropy(I4 / 4, q) - math.log(4.0)) < 2.0 * d

    def test_subnormal_eigenvalue_at_small_q(self):
        # lam**q is about 0.5 here, while expm1((q-1)*ln lam) alone overflows
        lam = 1e-310
        rho = np.diag([1.0 - lam, lam, 0.0, 0.0]).astype(complex)
        expected = (lam ** 1e-3 + (1.0 - lam) ** 1e-3 - 1.0) / (1.0 - 1e-3)
        assert abs(tsallis_entropy(rho, 1e-3) - expected) < 1e-12

    def test_pseudo_additivity(self, rng):
        # S(rho1 x rho2) = S1 + S2 + (1-q) S1 S2 on random product states
        for q in (0.5, 2.0):
            for _ in range(100):
                r1 = random_density(rng, 2)
                r2 = random_density(rng, 2)
                s1 = tsallis_entropy(r1, q)
                s2 = tsallis_entropy(r2, q)
                joint = tsallis_entropy(np.kron(r1, r2), q)
                assert abs(joint - (s1 + s2 + (1 - q) * s1 * s2)) < 1e-10

    def test_concavity(self, rng):
        for _ in range(1000):
            r1 = random_density(rng, 4)
            r2 = random_density(rng, 4)
            for q in (0.1, 0.5, 2.0, 5.0):
                s1 = tsallis_entropy(r1, q)
                s2 = tsallis_entropy(r2, q)
                for t in (0.25, 0.5, 0.75):
                    mixed = tsallis_entropy(t * r1 + (1 - t) * r2, q)
                    assert mixed >= t * s1 + (1 - t) * s2 - 1e-12


class TestQExpectation:
    def test_recovers_input_datum(self):
        rho = to_density_matrix(inferred())
        assert abs(q_expectation(rho, chsh_operator().b_op, 2.0) - math.sqrt(2)) < 1e-10

    def test_traceless_observable_on_mixed_state(self):
        for q in (0.5, 1.0, 3.0):
            assert abs(q_expectation(I4 / 4, chsh_operator().b_op, q)) < 1e-14

    def test_normalization(self, rng):
        rho = random_density(rng, 4)
        assert abs(q_expectation(rho, I4, 1.7) - 1.0) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            q_expectation(I4 / 4, np.triu(np.ones((4, 4))), 2.0)

    def test_large_order_concentrates_on_the_top_eigenvector(self):
        # the top eigenvalue sits alone on phi_plus, where B takes its largest value B_MAX
        rho = to_density_matrix(inferred(2.0, 2.6, 7.5))
        for q in (1e300, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                value = q_expectation(rho, chsh_operator().b_op, q)
            assert abs(value - B_MAX) < 1e-12


@pytest.mark.parametrize("order", [0.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda order: q_expectation(I4 / 4, I4, order),
    lambda order: generalized_kl(I4 / 4, I4 / 4, order),
    lambda order: mutual_entropy_closed_form(inferred(), order),
    lambda order: mutual_entropy_of_state(inferred(), order),
], ids=["q_expectation", "generalized_kl", "mutual_entropy_closed_form",
        "mutual_entropy_of_state"])
def test_order_zero_or_nan_is_out_of_domain(call, order):
    with pytest.raises(QOutOfDomain):
        call(order)


class TestGeneralizedKL:
    def test_identical_states(self, rng):
        for qp in (0.5, 1.0, 2.0):
            rho = random_density(rng, 4)
            assert abs(generalized_kl(rho, rho, qp)) < 1e-12

    def test_pure_vs_maximally_mixed_order_two(self):
        assert abs(generalized_kl(PHI_PLUS, I4 / 4, 2.0) - 3.0) < 1e-12

    def test_kl_limit(self):
        target = 2.0 * math.log(2.0)
        for qp in (1.0 - 1e-7, 1.0 + 1e-7):
            assert abs(generalized_kl(PHI_PLUS, I4 / 4, qp) - target) < 1e-6

    def test_singular_reference(self):
        with pytest.raises(SingularReference):
            generalized_kl(I4 / 4, PHI_PLUS, 2.0)

    def test_support_mismatch(self):
        with pytest.raises(SupportMismatch):
            generalized_kl(I4 / 4, PHI_PLUS, 0.5)

    def test_support_leak_threshold(self, rng):
        # rho puts mass eps on a direction the reference does not hold
        u = random_unitary(rng, 4)
        ref = u @ np.diag([0.5, 0.5, 0.0, 0.0]) @ u.conj().T
        for eps, leaks in ((1e-9, True), (1e-14, False)):
            rho = u @ np.diag([0.6, 0.4 - eps, eps, 0.0]) @ u.conj().T
            for qp in (0.2, 0.5, 1.0):
                if leaks:
                    with pytest.raises(SupportMismatch):
                        generalized_kl(rho, ref, qp)
                else:
                    assert math.isfinite(generalized_kl(rho, ref, qp))

    def test_nonnegative_on_random_pairs(self, rng):
        for _ in range(50):
            rho = random_density(rng, 4)
            ref = random_density(rng, 4)
            for qp in (0.5, 1.0, 2.0, 3.0):
                assert generalized_kl(rho, ref, qp) >= -1e-12


def _non_hermitian():
    m = I4 / 4
    m[0, 1] = 1e-6
    return m


#: one defect each, with the error generalized_kl raises for it in either argument
DEFECTS = {
    "non_hermitian": (_non_hermitian(), NotHermitian),
    "bad_trace": (I4, ValueError),
    "negative_eigenvalue": (np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex), ValueError),
    "nan": (np.full((4, 4), np.nan), NotHermitian),
    "wrong_shape": (np.eye(3) / 3, DimensionError),
}


class TestDivergenceErrors:
    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    @pytest.mark.parametrize("side", ["rho", "ref"])
    def test_each_defect_in_each_argument(self, defect, side):
        bad, error = DEFECTS[defect]
        args = (bad, I4 / 4) if side == "rho" else (I4 / 4, bad)
        with pytest.raises(error) as info:
            generalized_kl(*args, 2.0)
        assert type(info.value) is error

    @pytest.mark.parametrize("defect", sorted(DEFECTS))
    def test_each_defect_in_the_mutual_entropy_state(self, defect):
        bad, error = DEFECTS[defect]
        with pytest.raises(error) as info:
            mutual_entropy(bad, 2.0)
        assert type(info.value) is error

    def test_states_of_different_dimension(self):
        for rho, ref in ((I4 / 4, np.eye(2) / 2), (np.eye(2) / 2, I4 / 4)):
            with pytest.raises(DimensionError):
                generalized_kl(rho, ref, 2.0)
            with pytest.raises(DimensionError):
                q_expectation(rho, ref, 2.0)

    def test_hermiticity_is_checked_on_both_states_first(self):
        # the two states are checked as one stack: Hermiticity, then trace, then PSD
        with pytest.raises(NotHermitian):
            generalized_kl(I4, _non_hermitian(), 2.0)


class TestMarginals:
    def test_inferred_states_maximally_mixed(self):
        for q in (0.1, 1.0, 2.0):
            rho = to_density_matrix(inferred(q))
            for side in marginals(rho):
                assert np.max(np.abs(side - np.eye(2) / 2)) < 1e-12

    def test_product_state_factorizes(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        ma, mb = marginals(np.kron(a, b))
        assert np.max(np.abs(ma - a)) < 1e-12
        assert np.max(np.abs(mb - b)) < 1e-12

    def test_psi_plus(self):
        proj = np.outer(bell_state("psi_plus"), bell_state("psi_plus").conj())
        for side in marginals(proj):
            assert np.max(np.abs(side - np.eye(2) / 2)) < 1e-12


class TestMutualEntropy:
    def test_uncorrelated_state(self):
        for qp in (0.5, 1.0, 2.0):
            assert abs(mutual_entropy(I4 / 4, qp).value) < 1e-12

    def test_pure_state_order_two(self):
        assert abs(mutual_entropy(PHI_PLUS, 2.0).value - 3.0) < 1e-12

    def test_baseline_point(self):
        state = inferred()
        # commuting-case rederivation: K = (1/(1-q'))(1 - 4**(q'-1) Tr rho**q')
        trace_sq = sum(x * x for x in state.eigenvalues())
        rederived = 4.0 * trace_sq - 1.0
        assert abs(rederived - K_BASELINE_Q2) < 1e-12
        assert abs(mutual_entropy(to_density_matrix(state), 2.0).value - K_BASELINE_Q2) < 1e-10

    def test_closed_form_matches_generic(self):
        for q in (0.1, 0.5, 1.0, 2.0, 5.0):
            for b, s2 in ((0.5, 4.0), (1.2, 5.5), (2.0, 7.0)):
                state = inferred(q, b, s2)
                rho = to_density_matrix(state)
                for qp in (0.5, 0.9, 1.0, 2.0, 3.0):
                    closed = mutual_entropy_closed_form(state, qp)
                    generic = mutual_entropy(rho, qp).value
                    assert abs(closed - generic) < 1e-10

    def test_matrix_route_keeps_eigenvalues_below_the_support_tolerance(self):
        # the degenerate pair sits near 1e-13 here, yet adds about 2e-3 to K at q' = 0.21
        q = 0.2076
        state = inferred(q, 2.6825, 7.9678)
        assert state.eig_deg < 1e-12
        generic = mutual_entropy(to_density_matrix(state), q).value
        assert abs(generic - mutual_entropy_closed_form(state, q)) < 1e-6

    def test_large_divergence_order(self):
        # both routes stay finite where 4**(q'-1) alone overflows
        state = inferred(2.0, 1.0, 5.0)
        closed = mutual_entropy_closed_form(state, 600.0)
        matrix = mutual_entropy(to_density_matrix(state), 600.0).value
        assert abs(matrix - closed) <= 1e-9 * closed
        assert abs(closed - float(reference_mutual_entropy(2.0, 1.0, 5.0, 600.0))) <= 1e-9 * closed

    def test_beyond_the_float_range_raises_typed_error(self):
        state = inferred(2.0, 2.8, 7.99)
        with pytest.raises(FloatRangeExceeded):
            mutual_entropy_closed_form(state, 600.0)
        with pytest.raises(FloatRangeExceeded):
            mutual_entropy(to_density_matrix(state), 600.0)

    def test_closed_form_matches_reference_across_orders(self):
        for q, qp in ((2.0, 2.0), (0.5, 0.3), (1.0, 3.0), (3.0, 1.0 + 1e-9), (0.2, 0.2)):
            closed = mutual_entropy_closed_form(inferred(q, 1.0, 5.0), qp)
            assert abs(closed - float(reference_mutual_entropy(q, 1.0, 5.0, qp))) <= 1e-12

    def test_local_unitary_invariance(self, rng):
        state = inferred(0.7, 1.0, 5.0)
        rho = to_density_matrix(state)
        base = mutual_entropy(rho, 2.0).value
        for _ in range(100):
            u = np.kron(random_unitary(rng, 2), random_unitary(rng, 2))
            rotated = u @ rho @ u.conj().T
            assert abs(mutual_entropy(rotated, 2.0).value - base) < 1e-10


def seeded_points(seed, n, q_lo, q_hi):
    """n feasible (q, b, sigma2) drawn uniformly, q in [q_lo, q_hi]."""
    r = random.Random(seed)
    points = []
    while len(points) < n:
        b, s2 = r.uniform(0.0, B_MAX), r.uniform(0.0, 8.0)
        if s2 >= B_MAX * b:
            points.append((r.uniform(q_lo, q_hi), b, s2))
    return points


class TestMutualEntropyOfState:
    """The Python-float route against the matrix route and the closed form."""

    @pytest.mark.parametrize("q_lo, q_hi", [(0.3, 5.0), (5.0, 20.0)])
    def test_matches_the_matrix_route_and_the_closed_form(self, q_lo, q_hi):
        for q, b, s2 in seeded_points(21, 1000, q_lo, q_hi):
            state = inferred(q, b, s2)
            floats = mutual_entropy_of_state(state, q)
            matrix = mutual_entropy(to_density_matrix(state), q).value
            closed = mutual_entropy_closed_form(state, q)
            assert f"{floats:.9g}" == f"{matrix:.9g}", (q, b, s2)
            assert abs(floats - closed) <= 1e-9 and abs(matrix - closed) <= 1e-9, (q, b, s2)

    def test_explicit_orders(self):
        for q, b, s2 in seeded_points(7, 50, 0.3, 20.0):
            state = inferred(q, b, s2)
            for qp in (0.3, 1.0, 2.5, 40.0):
                closed = mutual_entropy_closed_form(state, qp)
                assert abs(mutual_entropy_of_state(state, qp) - closed) <= 1e-9 * max(1.0, closed)

    def test_pure_state_is_exact(self):
        # the matrix entries and the rotated overlaps of a pure Bell state are exact
        state = inferred(4.0791560137447976e-20, 1.006362305139997, 4.687347012544155)
        assert state.eig_phi_plus == 1.0
        assert mutual_entropy_of_state(state, state.constraints.q) == 0.75
        assert mutual_entropy_of_state(state, 2.0) == 3.0

    def test_large_divergence_order(self):
        state = inferred(2.0, 1.0, 5.0)
        closed = mutual_entropy_closed_form(state, 600.0)
        assert abs(mutual_entropy_of_state(state, 600.0) - closed) <= 1e-9 * closed
        with pytest.raises(FloatRangeExceeded):
            mutual_entropy_of_state(inferred(2.0, 2.8, 7.99), 600.0)


#: mutual_entropy(to_density_matrix(state), q').value at (q, b, sigma2, q'), pinned by repr
MUTUAL_PINS = [
    ((2.0, math.sqrt(2.0), 6.0, 2.0), "0.16718427000252395"),
    ((0.5, 1.0, 5.0, 0.3), "0.1539788136087183"),
    ((1.0, 2.0, 7.0, 1.0), "0.6463219515106311"),
    ((7.5, 0.4, 3.0, 12.0), "0.014312842102489065"),
    ((0.35, 2.6, 7.9, 0.8), "1.2089829257694453"),
]
#: generalized_kl of four seeded random pairs at q' = 0.5, 1, 2, 3, then of a state
#: against a singular reference holding its support, at q' = 0.5
KL_PINS = ["0.6877512278143184", "1.2265626104097205", "1.684954026584353",
           "8699.378886476386", "0.21173455576058572"]


class TestLibraryValuesPinned:
    """The library route's values, bit for bit, at seeded points."""

    @pytest.mark.parametrize("point, pinned", MUTUAL_PINS)
    def test_mutual_entropy(self, point, pinned):
        q, b, s2, qp = point
        assert repr(mutual_entropy(to_density_matrix(inferred(q, b, s2)), qp).value) == pinned

    def test_generalized_kl(self):
        rng = np.random.default_rng(21)
        got = [generalized_kl(random_density(rng), random_density(rng), qp)
               for qp in (0.5, 1.0, 2.0, 3.0)]
        u = random_unitary(rng, 4)
        ref = u @ np.diag([0.5, 0.3, 0.2, 0.0]) @ u.conj().T
        rho = u @ np.diag([0.6, 0.4, 0.0, 0.0]) @ u.conj().T
        got.append(generalized_kl(rho, ref, 0.5))
        assert [repr(k) for k in got] == KL_PINS


class TestOneDiagonalisationPerMatrix:
    @pytest.fixture
    def count(self, monkeypatch):
        calls = []  # (function name, shape of the array diagonalised)
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, *r, _real=real, _name=name, **k:
                                calls.append((_name, np.shape(a))) or _real(a, *r, **k))
        return calls

    def test_mutual_entropy_diagonalises_state_and_product_once_each(self, count):
        # both in one eigh of the stack [rho, product of marginals]
        mutual_entropy(to_density_matrix(inferred()), 2.0)
        assert count == [("eigh", (2, 4, 4))]

    def test_ppt_verdict_diagonalises_the_partial_transpose_once(self, count):
        ppt_verdict(to_density_matrix(inferred()))
        assert count == [("eigh", (4, 4))]

    def test_entropy_and_expectation_diagonalise_once(self, count):
        rho = to_density_matrix(inferred())
        tsallis_entropy(rho, 2.0)
        assert len(count) == 1
        q_expectation(rho, chsh_operator().b_op, 2.0)
        assert len(count) == 2
