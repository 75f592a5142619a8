import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spinsearch.core import apply_single_qubit, basis_state, is_unitary
from spinsearch.grover import (
    ALL_LABELS,
    OracleLabel,
    SearchProblem,
    classical_approx_evaluations,
    classical_expected_evaluations,
    grover2_circuit,
    grover_general,
    grover_iterate,
    grover_start,
    monte_carlo_evaluations,
    optimal_iterations,
    oracle_matrix,
    pseudo_hadamard,
    pseudo_hadamard_inverse,
    read_bits,
    success_probability,
)
from state_checks import (
    equal_up_to_global_phase,
    global_phase_factor,
    predicted_success_probability,
    ry,
)

SQRT2 = math.sqrt(2.0)


class TestPseudoHadamard:
    def test_matrix_value(self):
        expected = np.array([[1, -1], [1, 1]]) / SQRT2
        assert np.allclose(pseudo_hadamard(), expected, atol=1e-15)
        assert np.allclose(pseudo_hadamard(), ry(90.0), atol=1e-15)

    def test_maps_zero_to_uniform(self):
        psi = pseudo_hadamard() @ np.array([1, 0], dtype=complex)
        assert np.allclose(psi, np.array([1, 1]) / SQRT2, atol=1e-15)

    def test_maps_one_to_signed_uniform(self):
        psi = pseudo_hadamard() @ np.array([0, 1], dtype=complex)
        assert np.allclose(psi, np.array([-1, 1]) / SQRT2, atol=1e-15)

    def test_inverse_exact(self):
        # h is a real rotation, so its inverse is exactly its transpose
        assert np.array_equal(pseudo_hadamard().T, pseudo_hadamard_inverse())
        product = pseudo_hadamard() @ pseudo_hadamard_inverse()
        assert np.max(np.abs(product - np.eye(2))) <= 1e-15
        one = np.array([0, 1], dtype=complex)
        assert np.allclose(pseudo_hadamard_inverse() @ (pseudo_hadamard() @ one), one, atol=1e-15)


class TestOracleMatrix:
    def test_f01(self):
        assert np.array_equal(
            oracle_matrix(OracleLabel(0, 1)), np.diag([1, -1, 1, 1]).astype(complex)
        )

    def test_f00(self):
        assert np.array_equal(
            oracle_matrix(OracleLabel(0, 0)), np.diag([-1, 1, 1, 1]).astype(complex)
        )

    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
    def test_unitary_hermitian_involutive(self, label):
        u = oracle_matrix(label)
        assert is_unitary(u, 1e-12)
        assert np.max(np.abs(u - u.conj().T)) <= 1e-12
        assert np.max(np.abs(u @ u - np.eye(4))) <= 1e-12

    def test_label_parsing(self):
        assert OracleLabel.from_name("f10") == OracleLabel(1, 0)
        with pytest.raises(ValueError):
            OracleLabel.from_name("f2x")
        with pytest.raises(ValueError):
            OracleLabel(2, 0)


class TestTwoQubitCircuit:
    def test_f01_exact_plus_phase(self):
        psi = grover2_circuit(OracleLabel(0, 1))
        assert np.max(np.abs(psi - basis_state(2, 1))) <= 1e-12

    def test_f00_minus_phase(self):
        psi = grover2_circuit(OracleLabel(0, 0))
        assert np.max(np.abs(psi + basis_state(2, 0))) <= 1e-12

    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
    def test_single_evaluation_identifies_label(self, label):
        psi = grover2_circuit(label)
        assert abs(np.abs(psi[label.index]) ** 2 - 1.0) <= 1e-12
        assert read_bits(psi) == (label.a, label.b)

    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
    def test_matches_general_iterate(self, label):
        problem = SearchProblem(2, frozenset({label.index}))
        general = grover_general(problem, 1)
        assert equal_up_to_global_phase(grover2_circuit(label), general, 1e-12)


def _reference_start(n_qubits):
    """(h^-1)^(x n) |0...0>, one single-qubit gate at a time."""
    psi = basis_state(n_qubits, 0)
    for q in range(1, n_qubits + 1):
        psi = apply_single_qubit(pseudo_hadamard_inverse(), psi, q)
    return psi


def _reference_iterate(n_qubits, marked, psi):
    """Marked sign flip, then the diffusion as the circuit builds it: h on
    every qubit, a |0...0> sign flip, h^-1 on every qubit."""
    psi = psi.copy()
    psi[list(marked)] *= -1
    for q in range(1, n_qubits + 1):
        psi = apply_single_qubit(pseudo_hadamard(), psi, q)
    psi[0] = -psi[0]
    for q in range(1, n_qubits + 1):
        psi = apply_single_qubit(pseudo_hadamard_inverse(), psi, q)
    return psi


def _assert_matches_reference(problem, iterations):
    """grover_start, every grover_iterate step and grover_general equal the
    gate-by-gate reference elementwise, global phase included."""
    n_qubits = problem.n_qubits
    reference = _reference_start(n_qubits)
    assert np.max(np.abs(grover_start(problem) - reference)) <= 1e-12
    for _ in range(iterations):
        step = grover_iterate(problem, reference)
        reference = _reference_iterate(n_qubits, problem.marked, reference)
        assert np.max(np.abs(step - reference)) <= 1e-12
    assert np.max(np.abs(grover_general(problem, iterations) - reference)) <= 1e-12


class TestReflectionMatchesCircuit:
    @given(st.integers(1, 12), st.data())
    def test_matches_gate_by_gate_reference(self, n_qubits, data):
        size = 2**n_qubits
        k = data.draw(st.integers(1, size), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        marked = np.random.default_rng(seed).choice(size, size=k, replace=False)
        problem = SearchProblem(n_qubits, frozenset(marked.tolist()))
        m = data.draw(st.integers(0, optimal_iterations(problem) + 2), label="m")
        _assert_matches_reference(problem, m)

    def test_sixteen_qubits_quarter_marked(self):
        size = 2**16
        marked = np.random.default_rng(16).choice(size, size=size // 4, replace=False)
        problem = SearchProblem(16, frozenset(marked.tolist()))
        _assert_matches_reference(problem, 2)
        assert success_probability(problem, grover_general(problem, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n_qubits", [1, 2, 5, 12])
    def test_start_entries_are_popcount_signs(self, n_qubits):
        size = 2**n_qubits
        start = grover_start(SearchProblem(n_qubits, frozenset({0})))
        assert start.dtype == complex
        expected = [(-1) ** bin(x).count("1") / math.sqrt(size) for x in range(size)]
        assert start.real.tolist() == expected
        assert not start.imag.any()

    def test_iterate_leaves_input_unchanged(self):
        problem = SearchProblem(3, frozenset({5}))
        psi = grover_start(problem)
        before = psi.copy()
        grover_iterate(problem, psi)
        assert np.array_equal(psi, before)


def _dense_reflection_iterate(n_qubits, marked, iterations):
    """Independent oracle: dense 2|s><s| - I diffusion, explicit matrices."""
    size = 2**n_qubits
    start = grover_start(SearchProblem(n_qubits, frozenset(marked)))
    diffusion = 2.0 * np.outer(start, start.conj()) - np.eye(size)
    flip = np.ones(size)
    flip[list(marked)] = -1.0
    psi = start
    for _ in range(iterations):
        psi = diffusion @ (flip * psi)
    return psi


class TestGeneralSearch:
    def test_one_of_four_in_one_step(self):
        problem = SearchProblem(2, frozenset({3}))
        assert success_probability(problem, grover_general(problem, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_quarter_marked_in_one_step(self):
        problem = SearchProblem(4, frozenset(range(4)))
        assert success_probability(problem, grover_general(problem, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_eight_items_two_steps_frozen_value(self):
        # brute-force reflection iterate gives 121/128 = 0.9453125 exactly
        problem = SearchProblem(3, frozenset({5}))
        psi = grover_general(problem, 2)
        brute = _dense_reflection_iterate(3, {5}, 2)
        assert success_probability(problem, psi) == pytest.approx(0.9453125, abs=1e-12)
        assert abs(success_probability(problem, brute)) == pytest.approx(
            success_probability(problem, psi), abs=1e-12
        )
        assert success_probability(problem, psi) == pytest.approx(
            math.sin(5 * math.asin(1 / math.sqrt(8))) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("n_qubits", range(1, 7))
    def test_success_probability_formula(self, n_qubits):
        size = 2**n_qubits
        for k in sorted({1, size // 4, size // 2} - {0}):
            problem = SearchProblem(n_qubits, frozenset(range(k)))
            limit = 3 * optimal_iterations(problem)
            psi = grover_start(problem)
            for m in range(limit + 1):
                got = success_probability(problem, psi)
                assert got == pytest.approx(
                    predicted_success_probability(size, k, m), abs=1e-10
                )
                psi = grover_iterate(problem, psi)

    def test_matches_hadamard_built_diffusion(self):
        # same success probabilities when built from true Hadamards
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
        for n_qubits, marked in ((3, {1}), (4, {2, 7, 9})):
            problem = SearchProblem(n_qubits, frozenset(marked))
            psi = np.zeros(2**n_qubits, dtype=complex)
            psi[0] = 1.0
            for q in range(1, n_qubits + 1):
                psi = apply_single_qubit(hadamard, psi, q)
            for m in range(1, 4):
                psi_flip = psi.copy()
                psi_flip[list(marked)] = -psi_flip[list(marked)]
                for q in range(1, n_qubits + 1):
                    psi_flip = apply_single_qubit(hadamard, psi_flip, q)
                psi_flip[0] = -psi_flip[0]
                for q in range(1, n_qubits + 1):
                    psi_flip = apply_single_qubit(hadamard, psi_flip, q)
                psi = psi_flip
                mine = success_probability(problem, grover_general(problem, m))
                theirs = float(np.sum(np.abs(psi[list(marked)]) ** 2))
                assert mine == pytest.approx(theirs, abs=1e-12)

    def test_rejects_empty_marked_set(self):
        with pytest.raises(ValueError):
            SearchProblem(2, frozenset())

    def test_rejects_oversized_problem(self):
        with pytest.raises(ValueError):
            SearchProblem(21, frozenset({0}))

    @pytest.mark.parametrize("marked", [{1.5}, {2.0}, {0, 0.5}, {"1"}, {None}])
    def test_rejects_non_integer_index(self, marked):
        with pytest.raises(ValueError, match="integers"):
            SearchProblem(2, frozenset(marked))

    @pytest.mark.parametrize(
        "marked",
        [{-1}, {0, -3}, {4}, {1, 4}, {2**70}, np.array([1, 2**63, 2**64 - 1], dtype=np.uint64)],
    )
    def test_rejects_out_of_range_index(self, marked):
        with pytest.raises(ValueError):
            SearchProblem(2, frozenset(marked))

    def test_equality_and_hash_come_from_marked_set(self):
        a = SearchProblem(3, frozenset({1, 6, 2}))
        b = SearchProblem(3, (6, 2, 1))
        c = SearchProblem(3, frozenset({np.int64(2), 1, 6}))
        assert a == b == c
        assert hash(a) == hash(b) == hash(c)
        assert {a: "first", b: "second"} == {c: "second"}
        assert a != SearchProblem(3, frozenset({1, 6}))
        assert sorted(a.marked.tolist()) == [1, 2, 6]
        assert a.marked.dtype == np.intp
        assert "marked_indices" not in repr(a)

    @pytest.mark.parametrize("n_qubits", [2.0, 2.5, "2"])
    def test_rejects_non_integer_qubit_count(self, n_qubits):
        with pytest.raises(ValueError, match="n_qubits must be an integer"):
            SearchProblem(n_qubits, {1})

    def test_accepts_numpy_integer_qubit_count(self):
        problem = SearchProblem(np.int64(2), {1})
        assert type(problem.n_qubits) is int
        assert problem == SearchProblem(2, {1})
        assert hash(problem) == hash(SearchProblem(2, {1}))
        assert success_probability(problem, grover_general(problem, 1)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_repeated_index(self):
        with pytest.raises(ValueError, match="distinct"):
            SearchProblem(3, [1, 1, 2])

    def test_marked_does_not_alias_the_input(self):
        indices = np.array([5, 1], dtype=np.intp)
        problem = SearchProblem(3, indices)
        indices[:] = 0
        assert problem.marked.tolist() == [1, 5]


class TestMarkedArray:
    @given(st.integers(1, 12), st.data())
    def test_every_input_form_gives_the_same_problem(self, n_qubits, data):
        size = 2**n_qubits
        k = data.draw(st.integers(1, size), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        marked = rng.choice(size, size=k, replace=False).tolist()
        forms = [
            set(marked),
            tuple(marked),
            list(marked),
            rng.permutation(marked).astype(np.int32),
            rng.permutation(marked).astype(np.int64),
        ]
        problems = [SearchProblem(n_qubits, form) for form in forms]
        assert all(p == problems[0] for p in problems)
        assert len({hash(p) for p in problems}) == 1
        for p in problems:
            assert p.marked.dtype == np.intp
            assert p.marked.tolist() == sorted(marked)
            assert p.k == len(marked)
            assert not p.marked.flags.writeable
            with pytest.raises(ValueError):
                p.marked[0] = 0
        repeated = marked + [marked[data.draw(st.integers(0, k - 1), label="repeat")]]
        for form in (tuple, list, lambda m: np.array(m, np.int32), np.array):
            with pytest.raises(ValueError, match="distinct"):
                SearchProblem(n_qubits, form(repeated))


class TestOptimalIterations:
    @pytest.mark.parametrize(
        "n_qubits,k,expected", [(2, 1, 1), (2, 4, 0), (10, 1, 25), (4, 4, 1), (8, 64, 1)]
    )
    def test_values(self, n_qubits, k, expected):
        problem = SearchProblem(n_qubits, frozenset(range(k)))
        assert optimal_iterations(problem) == expected

    def test_quarter_marked_always_one(self):
        for n_qubits in (2, 4, 6, 8):
            size = 2**n_qubits
            problem = SearchProblem(n_qubits, frozenset(range(size // 4)))
            assert optimal_iterations(problem) == 1

    def test_n1024_neighbourhood(self):
        problem = SearchProblem(10, frozenset({17}))
        best = optimal_iterations(problem)
        assert best == 25
        p = {
            m: success_probability(problem, grover_general(problem, m))
            for m in (best - 1, best, best + 1)
        }
        assert p[best] > p[best - 1]
        assert p[best] > p[best + 1]


class TestClassicalComparator:
    def test_two_bit_case(self):
        value = classical_expected_evaluations(4, 1)
        assert value == pytest.approx(2.5, abs=1e-15)
        assert 1.0 <= value <= 3.0

    def test_all_marked(self):
        assert classical_expected_evaluations(7, 7) == pytest.approx(1.0, abs=1e-15)

    def test_exact_vs_approximation(self):
        assert classical_expected_evaluations(100, 10) == pytest.approx(101 / 11, abs=1e-12)
        assert classical_approx_evaluations(100, 10) == pytest.approx(5.0, abs=1e-15)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(1234)
        mean, stderr = monte_carlo_evaluations(100, 10, 1_000_000, rng)
        assert abs(mean - 101 / 11) <= 3 * stderr

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, trials):
        with pytest.raises(ValueError, match="trials"):
            monte_carlo_evaluations(8, 1, trials, np.random.default_rng(0))

    @pytest.mark.parametrize(
        "n,k,trials,seed,expected",
        [
            (8, 1, 5, 0, (3.2, 0.9695359714832658)),
            (8, 1, 1, 0, (3.0, 0.0)),
            (1024, 3, 7, 11, (313.85714285714283, 82.79447548036056)),
        ],
    )
    def test_random_stream_frozen(self, n, k, trials, seed, expected):
        # values of the draw-by-draw sampler at these seeds; a change to how
        # it consumes the generator changes them
        got = monte_carlo_evaluations(n, k, trials, np.random.default_rng(seed))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rejects_zero_marked(self):
        with pytest.raises(ValueError):
            classical_expected_evaluations(8, 0)
        with pytest.raises(ValueError):
            monte_carlo_evaluations(8, 0, 10, np.random.default_rng(0))

    @given(st.integers(1, 6), st.data())
    def test_monte_carlo_tracks_exact_small(self, n_qubits, data):
        size = 2**n_qubits
        k = data.draw(st.integers(1, size))
        rng = np.random.default_rng(42 + size + k)
        mean, stderr = monte_carlo_evaluations(size, k, 20_000, rng)
        expected = classical_expected_evaluations(size, k)
        assert abs(mean - expected) <= max(4 * stderr, 1e-9)


class TestGlobalPhaseOfCircuit:
    def test_circuit_phase_factor_is_real(self):
        # the full-circuit output phases under this rotation convention
        for label, phase in zip(ALL_LABELS, (-1.0, 1.0, 1.0, -1.0)):
            psi = grover2_circuit(label)
            c = global_phase_factor(psi, basis_state(2, label.index))
            assert c == pytest.approx(phase, abs=1e-12)
