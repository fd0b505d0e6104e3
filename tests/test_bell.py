import numpy as np
import pytest

from qmaxent.bell import (
    B_MAX,
    bell_projectors,
    bell_state,
    chsh_operator,
    chsh_squared,
    pauli,
)
from qmaxent.smallmat import hermitian_eigen, partial_trace

I4 = np.eye(4)


class TestPauli:
    def test_matrices(self):
        assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
        assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])
        assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])

    def test_involutions_traceless_hermitian(self):
        for m in (pauli("x"), pauli("y"), pauli("z")):
            assert np.allclose(m @ m, np.eye(2))
            assert abs(np.trace(m)) == 0
            assert np.array_equal(m, m.conj().T)

    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            pauli("w")


class TestBellStates:
    def test_vectors(self):
        s = 1 / np.sqrt(2)
        assert np.allclose(bell_state("phi_plus"), [s, 0, 0, s])
        assert np.allclose(bell_state("psi_minus"), [0, s, -s, 0])

    def test_orthonormal(self):
        mat = np.column_stack(
            [bell_state(lab) for lab in ("phi_plus", "phi_minus", "psi_plus", "psi_minus")]
        )
        assert np.max(np.abs(mat.conj().T @ mat - I4)) < 1e-12

    def test_completeness(self):
        total = sum(bell_projectors().values())
        assert np.max(np.abs(total - I4)) < 1e-12

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            bell_state("phi")

    def test_projector_marginals_maximally_mixed(self):
        for proj in bell_projectors().values():
            for sub in ("A", "B"):
                assert np.max(np.abs(partial_trace(proj, sub) - np.eye(2) / 2)) < 1e-12


class TestObservable:
    def test_pauli_route_equals_spectral_route(self):
        projs = bell_projectors()
        spectral = B_MAX * (projs["phi_plus"] - projs["psi_minus"])
        assert np.max(np.abs(chsh_operator().b_op - spectral)) < 1e-12

    def test_extremal_expectation(self):
        v = bell_state("phi_plus")
        assert abs(v.conj() @ chsh_operator().b_op @ v - B_MAX) < 1e-12

    def test_traceless(self):
        assert abs(np.trace(chsh_operator().b_op)) < 1e-12

    def test_kernel_state(self):
        v = bell_state("phi_minus")
        assert np.max(np.abs(chsh_operator().b_op @ v)) < 1e-12


class TestObservableSquared:
    def test_matches_square(self):
        ops = chsh_operator()
        assert np.max(np.abs(ops.b_squared - ops.b_op @ ops.b_op)) < 1e-12
        assert np.max(np.abs(chsh_squared() - ops.b_squared)) < 1e-12

    def test_spectrum(self):
        spec = hermitian_eigen(chsh_squared())
        assert np.allclose(spec.eigenvalues, [0, 0, 8, 8], atol=1e-12)

    def test_commutes_with_observable(self):
        ops = chsh_operator()
        comm = ops.b_op @ ops.b_squared - ops.b_squared @ ops.b_op
        assert np.max(np.abs(comm)) < 1e-12

    def test_vanishes_on_psi_plus(self):
        v = bell_state("psi_plus")
        assert abs(v.conj() @ chsh_squared() @ v) < 1e-12


SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S = 1.0 / np.sqrt(2.0)
VECTORS = {
    "phi_plus": np.array([S, 0, 0, S], dtype=complex),
    "phi_minus": np.array([S, 0, 0, -S], dtype=complex),
    "psi_plus": np.array([0, S, S, 0], dtype=complex),
    "psi_minus": np.array([0, S, -S, 0], dtype=complex),
}
PROJECTORS = {lab: np.outer(v, v.conj()) for lab, v in VECTORS.items()}
B_OP = np.sqrt(2.0) * (np.kron(SX, SX) + np.kron(SZ, SZ))


def assert_exact_constant(value, expected):
    """Same dtype, shape and bytes (so signed zeros too), and not writeable."""
    assert value.dtype == expected.dtype == np.complex128
    assert value.shape == expected.shape
    assert value.tobytes() == expected.tobytes()
    assert not value.flags.writeable


class TestConstantsBitForBit:
    def test_pauli(self):
        for axis, expected in zip("xyz", (SX, SY, SZ)):
            assert_exact_constant(pauli(axis), expected)

    def test_bell_states(self):
        for label, expected in VECTORS.items():
            assert_exact_constant(bell_state(label), expected)

    def test_projectors(self):
        projs = bell_projectors()
        assert list(projs) == list(PROJECTORS)
        for label, expected in PROJECTORS.items():
            assert_exact_constant(projs[label], expected)

    def test_observable_and_square(self):
        ops = chsh_operator()
        assert_exact_constant(ops.b_op, B_OP)
        assert_exact_constant(ops.b_squared, B_OP @ B_OP)
        spectral = 8.0 * (PROJECTORS["phi_plus"] + PROJECTORS["psi_minus"])
        assert_exact_constant(chsh_squared(), spectral)

    def test_error_texts(self):
        with pytest.raises(ValueError) as axis_error:
            pauli("w")
        assert str(axis_error.value) == "axis must be one of 'x', 'y', 'z', got 'w'"
        with pytest.raises(ValueError) as label_error:
            bell_state("phi")
        assert str(label_error.value) == ("unknown Bell label 'phi'; expected one of "
                                          "('phi_plus', 'phi_minus', 'psi_plus', 'psi_minus')")
