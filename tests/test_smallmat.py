import numpy as np
import pytest

from conftest import random_density, random_hermitian
from qmaxent.bell import chsh_operator, chsh_squared, pauli
from qmaxent.errors import DimensionError, NotHermitian
from qmaxent.inference import infer_state, to_density_matrix, validate_constraints
from qmaxent.smallmat import (
    hermitian_eigen,
    kron,
    partial_trace,
    partial_transpose,
    validate_density_matrix,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
PHI_PLUS = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_pauli_products(self):
        assert np.allclose(kron(pauli("x"), pauli("x")), np.fliplr(I4))
        assert np.allclose(kron(pauli("z"), pauli("z")), np.diag([1, -1, -1, 1]))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionError):
            kron(I4, I2)
        with pytest.raises(DimensionError):
            kron(np.ones((2, 3)), I2)

    def test_bilinear_and_mixed_product(self, rng):
        for _ in range(50):
            a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                          for _ in range(4))
            assert np.max(np.abs(kron(a + c, b) - kron(a, b) - kron(c, b))) < 1e-12
            assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) < 1e-12

    def test_equals_numpy_kron_bitwise(self, rng):
        for _ in range(50):
            a, b = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                    for _ in range(2))
            assert np.array_equal(kron(a, b), np.kron(a, b))


class TestPartialTrace:
    def test_bell_projector_reduces_to_maximally_mixed(self):
        assert np.max(np.abs(partial_trace(PHI_PLUS, "B") - I2 / 2)) < 1e-12

    def test_product_state_factorizes(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert np.max(np.abs(partial_trace(np.kron(a, b), "B") - a * np.trace(b))) < 1e-12
        assert np.max(np.abs(partial_trace(np.kron(a, b), "A") - b * np.trace(a))) < 1e-12

    def test_identity_case(self):
        assert np.max(np.abs(partial_trace(I4 / 4, "A") - I2 / 2)) < 1e-15

    def test_trace_preserved_both_ways(self, rng):
        for _ in range(20):
            m = random_density(rng, 4)
            for sub in ("A", "B"):
                assert abs(np.trace(partial_trace(m, sub)) - np.trace(m)) < 1e-12

    def test_rejects_2x2(self):
        with pytest.raises(DimensionError):
            partial_trace(I2, "B")

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(ValueError, match="subsystem must be 'A' or 'B'"):
            partial_trace(I4, "C")


class TestPartialTranspose:
    def test_product_case(self, rng):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        assert np.max(np.abs(partial_transpose(np.kron(a, b), "B") - np.kron(a, b.T))) < 1e-14
        assert np.max(np.abs(partial_transpose(np.kron(a, b), "A") - np.kron(a.T, b))) < 1e-14

    def test_involution(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        assert np.array_equal(partial_transpose(partial_transpose(m, "B"), "B"), m)

    def test_rejects_unknown_subsystem(self):
        with pytest.raises(ValueError, match="subsystem must be 'A' or 'B'"):
            partial_transpose(I4, "C")

    def test_bell_projector_spectrum(self):
        # eigendecomposition of the partially transposed projector
        spec = hermitian_eigen(partial_transpose(PHI_PLUS, "B"))
        assert np.allclose(spec.eigenvalues, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_rejects_2x2(self):
        with pytest.raises(DimensionError):
            partial_transpose(I2, "B")


class TestHermitianEigen:
    def test_identity(self):
        spec = hermitian_eigen(I4)
        assert np.allclose(spec.eigenvalues, np.ones(4), atol=1e-15)

    def test_observable_spectrum(self):
        spec = hermitian_eigen(chsh_operator().b_op)
        r = 2 * np.sqrt(2)
        assert np.allclose(spec.eigenvalues, [-r, 0, 0, r], atol=1e-12)

    def test_pauli_spectrum(self):
        assert np.allclose(hermitian_eigen(pauli("x")).eigenvalues, [-1, 1], atol=1e-14)

    def test_reconstruction_on_random_matrices(self, rng):
        # random spectra are distinct; the extra inputs are degenerate, and the
        # partial transposes of inferred states have a doubly degenerate pair
        degenerate = [I4, chsh_squared(), partial_transpose(PHI_PLUS, "B")] + [
            partial_transpose(to_density_matrix(infer_state(validate_constraints(q, b, s2))), "B")
            for q, b, s2 in ((0.5, 1.0, 6.0), (2.0, np.sqrt(2.0), 6.0), (5.0, 2.0, 7.0))
        ]
        worst = 0.0
        for m in [random_hermitian(rng, 4 if k % 2 else 2) for k in range(1000)] + degenerate:
            spec = hermitian_eigen(m)
            v = spec.eigenvectors
            worst = max(worst, np.max(np.abs(v @ np.diag(spec.eigenvalues) @ v.conj().T - m)))
            assert np.max(np.abs(v.conj().T @ v - np.eye(v.shape[0]))) < 1e-10
            assert np.all(np.diff(spec.eigenvalues) >= -1e-15)
        assert worst <= 1e-10

    def test_deterministic(self, rng):
        m = random_hermitian(rng, 4)
        a = hermitian_eigen(m)
        b = hermitian_eigen(m.copy())
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eigen(np.array([[0, 1], [0, 0]], dtype=complex))


class TestValidateDensityMatrix:
    def test_accepts_random_states(self, rng):
        validate_density_matrix(random_density(rng, 4))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(I4)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = 1e-6
        with pytest.raises(NotHermitian):
            validate_density_matrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex))

    def test_rejects_non_finite_entries(self):
        # NaN and inf fail the Hermiticity check instead of reaching eigh
        for bad in (np.nan, np.inf):
            m = np.eye(4, dtype=complex) / 4
            m[1, 2] = bad
            with pytest.raises(NotHermitian):
                validate_density_matrix(m)
            with pytest.raises(NotHermitian):
                hermitian_eigen(m)
