import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsearch.core import (
    apply_single_qubit,
    apply_unitary,
    basis_state,
    fidelity,
    is_unitary,
)
from state_checks import (
    IDENTITY_2,
    SIGMA_X,
    SIGMA_Z,
    check_density_matrix,
    check_state_vector,
    coherence_order,
    density_from_state,
    equal_up_to_global_phase,
    pseudo_hadamard,
    reference_is_unitary,
)


def small_complex_matrix(dim):
    """Strategy: dim x dim complex matrices with entries in the unit box."""
    entry = st.tuples(
        st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)
    ).map(lambda p: complex(*p))
    return st.lists(st.lists(entry, min_size=dim, max_size=dim), min_size=dim, max_size=dim).map(
        np.array
    )


# one entry of a matrix may be set to one of these: each makes U†U
# non-finite or overflow, and the verdict False
SPECIAL_ENTRIES = [np.nan, np.inf, -np.inf, complex(0, np.nan), 1e200]


@st.composite
def near_unitary_matrices(draw, dim, wild=True):
    """A dim x dim unitary (QR of a Gaussian matrix) perturbed by up to 1e-6
    of an entry (1e-10 unless ``wild``), so that max|U†U - I| falls on both
    sides of a tolerance near 1e-10; if ``wild``, also a Gaussian matrix,
    with a nan, an inf or 1e200 set in one entry of either."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gaussian = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    u = gaussian
    if not wild or draw(st.booleans()):
        u, _ = np.linalg.qr(gaussian)
        scale = 10 ** draw(st.floats(-17.0, -6.0 if wild else -10.0))
        u = u + scale * rng.normal(size=(dim, dim))
    if wild and draw(st.booleans()):
        special = draw(st.sampled_from(SPECIAL_ENTRIES))
        u[draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))] = special
    return u


unitarity_dims = st.one_of(st.just(4), st.integers(1, 5).map(lambda n: 2**n))
unitarity_tols = st.floats(-12.0, -8.0).map(lambda e: 10**e)


@st.composite
def unitarity_inputs(draw):
    """A 4x4 or 2^n x 2^n near-unitary matrix (n = 1 .. 5) and a tolerance
    near 1e-10."""
    return draw(near_unitary_matrices(draw(unitarity_dims))), draw(unitarity_tols)


@st.composite
def unitarity_stacks(draw):
    """A stack of 1 to 20 near-unitary matrices of one size and a tolerance
    near 1e-10.  Half the stacks hold perturbed unitaries only, so that
    both verdicts are drawn."""
    dim = draw(unitarity_dims)
    wild = draw(st.booleans())
    matrices = draw(st.lists(near_unitary_matrices(dim, wild), min_size=1, max_size=20))
    return np.stack(matrices), draw(unitarity_tols)


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

    @pytest.mark.parametrize(
        "u",
        [np.stack([np.eye(4)] * 4), np.ones(4), np.eye(4)[:, :2], np.eye(4)[None]],
        ids=["stack", "vector", "rectangular", "stack-of-one"],
    )
    def test_rejects_operator_that_is_not_a_square_matrix(self, u):
        # is_unitary passes a stack of unitaries, which is no operator
        for state in (basis_state(2, 0), np.eye(4) / 4):
            with pytest.raises(ValueError):
                apply_unitary(u, state)

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

    @given(unitarity_inputs())
    def test_is_unitary_matches_reference(self, inputs):
        u, tol = inputs
        # a nan or inf makes the reference's matmul warn; is_unitary must not
        with np.errstate(invalid="ignore", over="ignore"):
            expected = reference_is_unitary(u, tol)
        assert is_unitary(u, tol) is expected

    @given(unitarity_stacks())
    def test_stack_verdict_is_every_matrix_verdict(self, inputs):
        stack, tol = inputs
        with np.errstate(invalid="ignore", over="ignore"):
            expected = all(reference_is_unitary(u, tol) for u in stack)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_unitary(stack, tol) is expected

    @given(
        st.integers(1, 20),
        st.sampled_from([2, 4, 8]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_one_bad_matrix_fails_a_stack_of_unitaries(self, count, dim, seed, data):
        rng = np.random.default_rng(seed)
        gaussian = rng.normal(size=(count, dim, dim)) + 1j * rng.normal(size=(count, dim, dim))
        stack, _ = np.linalg.qr(gaussian)
        assert is_unitary(stack)
        # each matrix keeps its own bound: a stack is not judged by a sum
        bad = stack.copy()
        index = data.draw(st.integers(0, count - 1), label="index")
        bad[index] *= data.draw(st.sampled_from([1 + 1e-9, *SPECIAL_ENTRIES]), label="scale")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_unitary(bad) is False
        # the verdict does not depend on the stack's memory layout
        assert is_unitary(np.asfortranarray(stack))
        assert is_unitary(np.moveaxis(np.moveaxis(stack, 0, -1).copy(), -1, 0))

    @pytest.mark.parametrize(
        "shape,verdict",
        [((0, 4, 4), True), ((0, 0), True), ((4,), False), ((2, 3), False), ((5, 2, 3), False),
         ((0, 2, 3), False), ((), False)],
        ids=str,
    )
    def test_any_shape_is_a_verdict(self, shape, verdict):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_unitary(np.zeros(shape)) is verdict

    @pytest.mark.parametrize(
        "value", [np.inf, -np.inf, np.nan, complex(0, np.inf), 1e200], ids=str
    )
    def test_non_finite_matrix_is_a_verdict_not_a_warning(self, value):
        u = np.eye(4, dtype=complex)
        u[0, 0] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert is_unitary(u) is False
            with pytest.raises(ValueError, match="not unitary"):
                apply_unitary(u, np.eye(4) / 4)
