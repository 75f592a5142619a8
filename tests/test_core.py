import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsearch.core import (
    IDENTITY_2,
    SIGMA_X,
    apply_single_qubit,
    apply_unitary,
    basis_state,
    density_from_state,
    fidelity,
    is_unitary,
)
from spinsearch.grover import pseudo_hadamard
from state_checks import (
    SIGMA_Z,
    check_density_matrix,
    check_state_vector,
    coherence_order,
    equal_up_to_global_phase,
)


def small_complex_matrix(dim):
    """Strategy: dim x dim complex matrices with entries in the unit box."""
    entry = st.tuples(
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
    ).map(lambda p: complex(*p))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(
        np.array
    )


class TestKron:
    def test_identity(self):
        assert np.array_equal(np.kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sigma_z_pair(self):
        assert np.array_equal(np.kron(SIGMA_Z, SIGMA_Z), np.diag([1, -1, -1, 1]).astype(complex))

    def test_h_pair_on_00(self):
        h = pseudo_hadamard()
        psi = np.kron(h, h) @ basis_state(2, 0)
        assert np.allclose(psi, np.full(4, 0.5), atol=1e-15)

    @given(small_complex_matrix(2), small_complex_matrix(2), small_complex_matrix(2))
    def test_associativity(self, a, b, c):
        left = np.kron(np.kron(a, b), c)
        right = np.kron(a, np.kron(b, c))
        assert np.max(np.abs(left - right)) <= 1e-12

    @given(
        small_complex_matrix(2),
        small_complex_matrix(2),
        small_complex_matrix(2),
        small_complex_matrix(2),
    )
    def test_mixed_product(self, a, b, c, d):
        left = np.kron(a, b) @ np.kron(c, d)
        right = np.kron(a @ c, b @ d)
        assert np.max(np.abs(left - right)) <= 1e-12


class TestApplyUnitary:
    def test_identity_leaves_state(self):
        psi = np.array([0.5, 0.5j, -0.5, 0.5], dtype=complex)
        assert np.array_equal(apply_unitary(np.eye(4), psi), psi)

    def test_sign_flip_on_00(self):
        u = np.diag([-1, 1, 1, 1]).astype(complex)
        out = apply_unitary(u, basis_state(2, 0))
        assert np.array_equal(out, -basis_state(2, 0))

    def test_bit_flip_most_significant(self):
        out = apply_unitary(np.kron(SIGMA_X, IDENTITY_2), basis_state(2, 0))
        assert np.array_equal(out, basis_state(2, 2))

    def test_density_matrix_conjugation(self):
        h2 = np.kron(pseudo_hadamard(), pseudo_hadamard())
        rho = apply_unitary(h2, density_from_state(basis_state(2, 0)))
        check_density_matrix(rho)
        assert np.allclose(np.diag(rho), 0.25)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            apply_unitary(np.ones((4, 4)), basis_state(2, 0))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            apply_unitary(np.eye(2), basis_state(2, 0))

    @given(st.integers(0, 3), st.floats(0, 2 * np.pi, allow_nan=False))
    def test_norm_preserved(self, index, angle):
        u = np.kron(pseudo_hadamard(), np.diag([1, np.exp(1j * angle)]))
        psi = apply_unitary(u, basis_state(2, index))
        assert abs(np.sum(np.abs(psi) ** 2) - 1.0) <= 1e-12


class TestApplySingleQubit:
    @pytest.mark.parametrize("qubit", [1, 2, 3])
    def test_matches_dense_kron(self, qubit):
        rng = np.random.default_rng(7)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        h = pseudo_hadamard()
        factors = [h if q == qubit else IDENTITY_2 for q in (1, 2, 3)]
        dense = np.kron(np.kron(factors[0], factors[1]), factors[2])
        assert np.allclose(apply_single_qubit(h, psi, qubit), dense @ psi, atol=1e-14)

    def test_bad_qubit_index(self):
        with pytest.raises(ValueError):
            apply_single_qubit(IDENTITY_2, basis_state(2, 0), 3)


class TestGlobalPhase:
    def test_sign_flip_equal(self):
        psi = basis_state(2, 1)
        assert equal_up_to_global_phase(psi, -psi, 1e-12)

    def test_different_states_not_equal(self):
        assert not equal_up_to_global_phase(basis_state(2, 1), basis_state(2, 2), 1e-12)

    def test_zero_reference_raises(self):
        with pytest.raises(ValueError, match="zero"):
            equal_up_to_global_phase(basis_state(2, 0), np.zeros(4))

    @given(st.floats(0, 2 * np.pi, allow_nan=False), st.integers(0, 3))
    def test_reflexive_symmetric_phase_invariant(self, angle, index):
        h2 = np.kron(pseudo_hadamard(), pseudo_hadamard())
        psi = h2 @ basis_state(2, index)
        rotated = np.exp(1j * angle) * psi
        assert equal_up_to_global_phase(psi, psi, 1e-12)
        assert equal_up_to_global_phase(psi, rotated, 1e-12)
        assert equal_up_to_global_phase(rotated, psi, 1e-12)


class TestCoherenceOrder:
    @pytest.mark.parametrize(
        "i,j,n,expected",
        [(0, 0, 2, 0), (0, 3, 2, 2), (1, 2, 2, 0), (0, 1, 2, 1), (3, 0, 2, -2)],
    )
    def test_examples(self, i, j, n, expected):
        assert coherence_order(i, j, n) == expected

    def test_antisymmetry(self):
        for i in range(8):
            for j in range(8):
                assert coherence_order(i, j, 3) == -coherence_order(j, i, 3)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            coherence_order(0, 4, 2)


class TestFidelity:
    def test_pure_match(self):
        psi = basis_state(2, 0)
        assert fidelity(psi, density_from_state(psi)) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed(self):
        assert fidelity(basis_state(2, 0), np.eye(4) / 4) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state(1, 0), np.eye(4) / 4)


class TestValidators:
    def test_state_vector_norm(self):
        with pytest.raises(ValueError, match="norm"):
            check_state_vector(np.array([1.0, 1.0]))

    def test_density_matrix_trace(self):
        with pytest.raises(ValueError, match="trace"):
            check_density_matrix(np.eye(4))

    def test_density_matrix_hermitian(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[0, 1] = 1j
        with pytest.raises(ValueError, match="Hermitian"):
            check_density_matrix(rho)

    def test_is_unitary_rejects_rectangular(self):
        assert not is_unitary(np.ones((2, 3)))
