import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spinsearch.core import apply_single_qubit, basis_state, is_unitary
from spinsearch.grover import (
    ALL_LABELS,
    MC_CHUNK,
    OracleLabel,
    SearchProblem,
    classical_approx_evaluations,
    classical_expected_evaluations,
    grover_general,
    grover_iterate,
    monte_carlo_evaluations,
    optimal_iterations,
    read_bits,
    success_probability,
)
from state_checks import (
    abs_success_probability,
    equal_up_to_global_phase,
    float_frame_general,
    full_vector_general,
    global_phase_factor,
    grover2_circuit,
    monte_carlo_by_draw,
    monte_carlo_one_shot,
    oracle_matrix,
    popcount_signs,
    predicted_success_probability,
    pseudo_hadamard,
    pseudo_hadamard_inverse,
    reference_marked,
    ry,
)

SQRT2 = math.sqrt(2.0)


class _FixedUniforms:
    """Stands in for a Generator: successive random(size) calls return
    successive slices of the chosen uniforms, which must all be drawn."""

    def __init__(self, uniforms):
        self.uniforms = np.array(uniforms, dtype=float)
        self.drawn = 0

    def random(self, size):
        assert self.drawn + size <= self.uniforms.size
        self.drawn += size
        return self.uniforms[self.drawn - size : self.drawn].copy()


def _stderr_rounding_bound(trials, mean, stderr):
    """Bound on |stderr - reference stderr| / stderr for the same counts, to
    first order in u = 2**-53; higher orders are a factor of about 1e-14
    smaller, which the 1 + 1e-9 covers.

    The chunked stderr is sqrt(fl(q)) for the exact quotient q of integers:
    one rounded division and one rounded sqrt, at most 1.5 u.  The reference
    is np.std(counts, ddof=1) / math.sqrt(n):
    - its mean m' = fl(s1 / n) is off by at most m u; as sum(c - m) = 0,
      sum((c - m')**2) = sum((c - m)**2) (1 + rho), with
      rho = (m - m')**2 / var <= (m u)**2 / var and var = (n - 1) stderr**2
      the population variance;
    - each term fl(fl(c - m')**2) carries at most 3 u;
    - numpy's pairwise sum adds at most D = 26 + ceil(log2(n / 128)) rounded
      additions to a term: 15 into one of 8 accumulators, 3 combining them
      and 7 for a block's last n % 8 terms, in blocks of at most 128, then
      one a halving (one more for the halves' uneven split);
    - dividing by n - 1, the sqrt (which halves all of the above), the
      sqrt of n and the last division add u each.
    Total: ((4 + D) u + rho) / 2 + 3 u + 1.5 u = ((D + 13) u + rho) / 2."""
    u = 2.0**-53
    depth = 26 + max(0, math.ceil(math.log2(trials / 128)))
    rho = (mean * u) ** 2 / ((trials - 1) * stderr**2)
    return ((depth + 13) * u + rho) / 2 * (1 + 1e-9)


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
        # the literal h-gate circuit against the package's gate path
        problem = SearchProblem(2, (label.index,))
        assert optimal_iterations(problem) == 1
        general = grover_general(problem, optimal_iterations(problem))
        assert equal_up_to_global_phase(grover2_circuit(label), general, 1e-12)


def _reference_start(n_qubits):
    """(h^-1)^(x n) |0...0>, one single-qubit gate at a time."""
    psi = basis_state(n_qubits, 0)
    for q in range(1, n_qubits + 1):
        psi = apply_single_qubit(pseudo_hadamard_inverse(), psi, q)
    return psi


def _uniform_frame(n_qubits):
    """Frame amplitudes D.s of the start state: the uniform 1/sqrt(N)."""
    return np.full(2**n_qubits, 1 / math.sqrt(2**n_qubits))


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


def _plane_frame(problem, a, b):
    """Frame amplitudes with a on the marked set and b elsewhere."""
    phi = np.full(problem.size, b)
    phi[problem.marked] = a
    return phi


def _assert_matches_reference(problem, iterations):
    """The uniform start and every grover_iterate plane step, as
    D.(a on the marked set, b elsewhere), and grover_general equal the
    gate-by-gate reference elementwise, global phase included."""
    n_qubits = problem.n_qubits
    signs = popcount_signs(n_qubits)
    reference = _reference_start(n_qubits)
    a = b = 1 / math.sqrt(problem.size)
    assert np.max(np.abs(signs * _plane_frame(problem, a, b) - reference)) <= 1e-12
    for _ in range(iterations):
        assert not reference.imag.any()
        a, b = grover_iterate(problem.k, problem.size, a, b)
        reference = _reference_iterate(n_qubits, problem.marked, reference)
        assert np.max(np.abs(signs * _plane_frame(problem, a, b) - reference)) <= 1e-12
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
        # zero iterates return the start state s = D.(1/sqrt(N)) itself
        size = 2**n_qubits
        start = grover_general(SearchProblem(n_qubits, frozenset({0})), 0)
        assert start.dtype == np.float64
        expected = [(-1) ** bin(x).count("1") / math.sqrt(size) for x in range(size)]
        assert start.tolist() == expected
        assert (popcount_signs(n_qubits) * _uniform_frame(n_qubits)).tolist() == expected
        assert np.max(np.abs(_reference_start(n_qubits) - start)) <= 1e-12

    @given(st.integers(1, 14), st.data())
    def test_plane_matches_full_vector_reference(self, n_qubits, data):
        # the plane recurrence against m full-vector iterates, and the
        # success probability against the rotation law sin^2((2m+1) theta)
        size = 2**n_qubits
        k = data.draw(st.integers(1, size), label="k")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        marked = np.random.default_rng(seed).choice(size, size=k, replace=False)
        problem = SearchProblem(n_qubits, marked)
        m = data.draw(st.integers(0, 2 * optimal_iterations(problem) + 3), label="m")
        psi = grover_general(problem, m)
        assert np.max(np.abs(psi - full_vector_general(problem, m))) <= 1e-12
        assert success_probability(problem, psi) == pytest.approx(
            predicted_success_probability(size, k, m), abs=1e-10
        )

    @pytest.mark.parametrize("n_qubits,iterations", [(1, 0), (3, 2), (10, 25)])
    def test_general_returns_real_state(self, n_qubits, iterations):
        problem = SearchProblem(n_qubits, frozenset({1}))
        psi = grover_general(problem, iterations)
        assert psi.dtype == np.float64
        assert psi.shape == (2**n_qubits,)
        assert np.sum(psi**2) == pytest.approx(1.0, abs=1e-12)


def _dense_reflection_iterate(n_qubits, marked, iterations):
    """Independent oracle: dense 2|s><s| - I diffusion, explicit matrices."""
    size = 2**n_qubits
    start = _reference_start(n_qubits)
    diffusion = 2.0 * np.outer(start, start.conj()) - np.eye(size)
    flip = np.ones(size)
    flip[list(marked)] = -1.0
    psi = start
    for _ in range(iterations):
        psi = diffusion @ (flip * psi)
    return psi


@st.composite
def _search_requests(draw):
    """A search problem over n in [1, 14] qubits with any k, and an iterate
    count in [0, 3 * optimal]."""
    n_qubits = draw(st.integers(1, 14), label="n_qubits")
    size = 2**n_qubits
    k = draw(st.integers(1, size), label="k")
    seed = draw(st.integers(0, 2**32 - 1), label="seed")
    problem = SearchProblem(n_qubits, np.random.default_rng(seed).choice(size, k, replace=False))
    return problem, draw(st.integers(0, 3 * optimal_iterations(problem)), label="m")


class TestStateBits:
    @given(_search_requests())
    @example((SearchProblem(2, (0,)), 1))
    def test_int8_frame_matches_float_frame_bit_for_bit(self, request):
        # +-1 * a and +-1 * b are exact, so the int8 frame gives the float
        # frame's bytes, signed zeros included: at N = 4, k = 1 one iterate
        # leaves b = 0.0, which the frame turns into 0.0 and -0.0
        problem, m = request
        psi = grover_general(problem, m)
        assert psi.dtype == np.float64
        assert psi.tobytes() == float_frame_general(problem, m).tobytes()

    def test_one_of_four_leaves_signed_zeros(self):
        psi = grover_general(SearchProblem(2, (0,)), 1)
        assert psi.tolist() == [-1.0, 0.0, 0.0, 0.0]
        assert np.signbit(psi).tolist() == [True, True, True, False]

    @given(_search_requests(), st.floats(0, 2 * math.pi))
    def test_success_probability_matches_abs_form(self, request, phase):
        # the in-place square of the gather against a separate magnitude
        # array, for the real state and a complex multiple of it
        problem, m = request
        psi = grover_general(problem, m)
        assert success_probability(problem, psi) == abs_success_probability(problem, psi)
        rotated = psi * complex(math.cos(phase), math.sin(phase))
        assert success_probability(problem, rotated) == abs_success_probability(problem, rotated)

    @pytest.mark.parametrize("n_qubits,marked,iterations", [(3, {5}, 2), (4, {2, 7, 9}, 3)])
    def test_success_probability_of_dense_state_matches_abs_form(self, n_qubits, marked, iterations):
        problem = SearchProblem(n_qubits, marked)
        psi = _dense_reflection_iterate(n_qubits, marked, iterations)
        assert psi.dtype == np.complex128
        assert success_probability(problem, psi) == abs_success_probability(problem, psi)


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
            for m in range(limit + 1):
                got = success_probability(problem, grover_general(problem, m))
                assert got == pytest.approx(
                    predicted_success_probability(size, k, m), abs=1e-10
                )

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


def _marked_forms(marked, rng):
    """The same marked set as every input form ``SearchProblem`` takes."""
    forms = [
        set(marked),
        frozenset(marked),
        tuple(marked),
        list(marked),
        (index for index in marked),
        tuple(np.int64(index) for index in marked),
        rng.permutation(marked).astype(np.int32),
        rng.permutation(marked).astype(np.int64),
        rng.permutation(marked).astype(np.uint64),
    ]
    if max(marked) < 256:
        forms.append(bytes(marked))  # an iterable of ints, not raw machine words
    return forms


def _assert_same_as_reference(n_qubits, marked, rng):
    expected = reference_marked(n_qubits, list(marked))
    problems = []
    for form in _marked_forms(marked, rng):
        problem = SearchProblem(n_qubits, form)
        assert problem.marked.dtype == np.intp
        assert np.array_equal(problem.marked, expected)
        assert problem.k == len(marked)
        assert not problem.marked.flags.writeable
        with pytest.raises(ValueError):
            problem.marked[0] = 0
        if isinstance(form, np.ndarray):
            assert not np.shares_memory(problem.marked, form)
        problems.append(problem)
    assert all(p == problems[0] for p in problems)
    assert len({hash(p) for p in problems}) == 1


class TestMarkedArray:
    @given(st.integers(1, 12), st.data())
    def test_every_input_form_gives_the_same_problem(self, n_qubits, data):
        size = 2**n_qubits
        k = data.draw(st.integers(1, size), label="k")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        marked = rng.choice(size, size=k, replace=False).tolist()
        _assert_same_as_reference(n_qubits, marked, rng)
        repeated = marked + [marked[data.draw(st.integers(0, k - 1), label="repeat")]]
        for form in (tuple, list, lambda m: np.array(m, np.int32), np.array):
            with pytest.raises(ValueError, match="distinct"):
                SearchProblem(n_qubits, form(repeated))

    def test_half_of_twenty_qubits_marked(self):
        rng = np.random.default_rng(20)
        marked = rng.choice(2**20, size=2**19, replace=False).tolist()
        _assert_same_as_reference(20, marked, rng)

    # one bad element after 2**16 - 1 good ones, so a check that only looks
    # at the first few elements, or a scatter that wraps -1, lets it through
    @pytest.mark.parametrize(
        "bad,message",
        [
            (1.5, "integers"),
            (np.float64(2.0), "integers"),
            ("1", "integers"),
            (None, "integers"),
            (np.True_, "integers"),
            (-1, "distinct and in"),
            (2**16, "distinct and in"),
            (2**63, "distinct and in"),
            (2**70, "distinct and in"),
            (np.uint64(2**63), "distinct and in"),
            (0, "distinct"),
        ],
        ids=repr,
    )
    def test_bad_last_element_of_a_large_set_rejected(self, bad, message):
        marked = tuple(range(2**16 - 1)) + (bad,)
        with pytest.raises(ValueError, match=message):
            SearchProblem(16, marked)

    def test_python_bools_are_integers(self):
        # elements follow operator.index, as n_qubits does: True is 1
        assert SearchProblem(2, {True}) == SearchProblem(2, {1})
        assert SearchProblem(2, (True, 2)).marked.tolist() == [1, 2]
        with pytest.raises(ValueError, match="distinct"):
            SearchProblem(2, [True, 1])

    @pytest.mark.parametrize(
        "marked", [(np.True_,), (np.False_, 1), np.array([True, False])], ids=repr
    )
    def test_numpy_bools_rejected(self, marked):
        with pytest.raises(ValueError, match="integers"):
            SearchProblem(2, marked)


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
        # values of the draw-by-draw reference sampler at these seeds; a
        # change to how it consumes the generator changes them
        got = monte_carlo_by_draw(n, k, trials, np.random.default_rng(seed))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize(
        "n,k,trials,seed,expected",
        [
            (8, 1, 5, 0, (5.4, 1.2489995996796794)),
            (8, 1, 1, 0, (3.0, 0.0)),
            (1024, 3, 7, 11, (385.42857142857144, 95.86792927744699)),
        ],
    )
    def test_survival_stream_frozen(self, n, k, trials, seed, expected):
        # one uniform per trial, inverted through the survival function; a
        # change to how it consumes the generator changes these values
        got = monte_carlo_evaluations(n, k, trials, np.random.default_rng(seed))
        assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n,k", [(16, 1), (64, 16), (100, 10)])
    def test_matches_draw_by_draw_reference(self, n, k):
        # the two samplers consume the generator differently, so they agree
        # in distribution only: means within 4 combined standard errors
        mean, stderr = monte_carlo_evaluations(n, k, 50_000, np.random.default_rng(5))
        ref_mean, ref_stderr = monte_carlo_by_draw(n, k, 50_000, np.random.default_rng(6))
        assert abs(mean - ref_mean) <= 4 * math.hypot(stderr, ref_stderr)

    @staticmethod
    def _check_exact_counts(n, k, xs):
        # S(x) = prod_{i<x} (N-k-i)/(N-i) in exact arithmetic, with
        # S(N-k+1) = 0; a trial with uniform u counts the x with S(x) > u.
        # cumprod rounds each product, so "just below" and "just above"
        # S(x) keep a 1e-12 relative margin.
        survival = [Fraction(1)]
        for i in range(n - k + 1):
            survival.append(survival[-1] * Fraction(n - k - i, n - i))
        cases = [(0.0, n - k + 1)]
        for x in xs:
            cases.append((float(survival[x]) * (1 - 1e-12), x + 1))
            if x > 0:
                cases.append((float(survival[x]) * (1 + 1e-12), x))
        for u, count in cases:
            assert survival[count] <= Fraction(u) < survival[count - 1]
            mean, _ = monte_carlo_evaluations(n, k, 1, _FixedUniforms([u]))
            assert mean == count, (n, k, u)
        # the same cases in one run that crosses a chunk edge: the first
        # chunk repeats the largest uniform and holds the larger half of the
        # cases, so the second chunk needs a longer table; the counts sum
        # exactly
        cases.sort(reverse=True)
        filler = MC_CHUNK - len(cases) // 2
        uniforms = np.concatenate((np.full(filler, cases[0][0]), [u for u, _ in cases]))
        stream = _FixedUniforms(uniforms)
        mean, _ = monte_carlo_evaluations(n, k, len(uniforms), stream)
        assert stream.drawn == len(uniforms)
        assert mean == (filler * cases[0][1] + sum(c for _, c in cases)) / len(uniforms), (n, k)

    def test_counts_invert_exact_survival(self):
        for n in range(1, 33):
            for k in range(1, n + 1):
                self._check_exact_counts(n, k, range(n - k + 1))

    @pytest.mark.parametrize("n,k", [(4096, 1), (2000, 3)])
    def test_counts_exact_where_table_grows(self, n, k):
        # the table starts at 64 entries and grows x4; check both sides of
        # each boundary and the last entry
        xs = [63, 64, 65, 255, 256, 257, 1023, 1024, 1025, n - k]
        self._check_exact_counts(n, k, xs)

    @given(st.integers(1, 2**20), st.data())
    def test_counts_within_pool(self, n, data):
        k = data.draw(st.integers(1, n))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        count, _ = monte_carlo_evaluations(n, k, 1, _FixedUniforms([u]))
        assert 1 <= count <= n - k + 1
        assert count == int(count)
        assert monte_carlo_evaluations(n, n, 50, np.random.default_rng(n)) == (1.0, 0.0)

    @given(
        st.integers(1, 2**20),
        st.data(),
        st.sampled_from([1, 2, MC_CHUNK - 1, MC_CHUNK, MC_CHUNK + 1, 3 * MC_CHUNK + 1]),
        st.integers(0, 2**32 - 1),
    )
    def test_chunks_match_one_shot_reference(self, n, data, trials, seed):
        # the same uniforms, so the same counts: equal means, and std errors
        # within the rounding of the reference's np.std
        k = data.draw(st.integers(1, n))
        mean, stderr = monte_carlo_evaluations(n, k, trials, np.random.default_rng(seed))
        ref_mean, ref_stderr = monte_carlo_one_shot(n, k, trials, np.random.default_rng(seed))
        assert mean == ref_mean
        if stderr == 0.0:
            assert ref_stderr == 0.0
        else:
            bound = _stderr_rounding_bound(trials, mean, stderr)
            assert abs(stderr - ref_stderr) <= bound * stderr, (n, k, trials, seed)

    def test_memory_bounded_by_chunk_and_table(self):
        """4e6 trials at N = 2**14, k = 1 stay within what one chunk of C
        uniforms and the table of L <= N - k + 1 entries need, whatever the
        trial count.  At most these are alive at once, all 8 bytes an entry:
        - three chunk arrays, 24 C bytes: the previous chunk's keys and
          counts while the next keys are drawn, or the keys and both chunks'
          counts during a searchsorted;
        - while the table grows from L to L': both tables and the
          extension's index, numerator, denominator and quotient
          (L' - L each), under 40 L' bytes, with one chunk's keys and the
          previous counts (16 C bytes).
        So the peak is under 24 C + 40 (N - k + 1) bytes, 2.125 MiB here,
        plus 64 KiB for Python objects.  The one-shot reference held
        24 bytes a trial, about 92 MiB at this size."""
        n, k, trials = 2**14, 1, 4_000_000
        bound = 24 * MC_CHUNK + 40 * (n - k + 1) + 64 * 1024
        rng = np.random.default_rng(7)
        tracemalloc.start()
        try:
            mean, stderr = monte_carlo_evaluations(n, k, trials, rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound, peak
        assert abs(mean - classical_expected_evaluations(n, k)) <= 5 * stderr

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


class TestMemoryBounds:
    """Traced peaks of one n = 20, k = 2**19 request, each under what its
    arrays need plus 64 KiB for Python objects and numpy's bookkeeping.  The
    marked set, the state and the generator are made before tracing."""

    n_qubits, k = 20, 2**19
    size = 2**n_qubits
    slack = 64 * 1024

    @staticmethod
    def _peak(call):
        tracemalloc.start()
        try:
            result = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, result

    def _problem(self):
        return SearchProblem(self.n_qubits, np.random.default_rng(20).choice(self.size, self.k, replace=False))

    def test_general_holds_state_and_int8_frame(self):
        """The 8 N-byte float64 state and D's N-byte int8 frame, and the
        multiply's cast buffer of np.getbufsize() float64 entries (the frame
        is cast to float64 a buffer at a time): 9 N + 8 * bufsize bytes,
        9.06 MiB here.  A float64 frame would hold 16 N."""
        problem = self._problem()
        bound = 9 * self.size + 8 * np.getbufsize() + self.slack
        peak, psi = self._peak(lambda: grover_general(problem, optimal_iterations(problem)))
        assert peak < bound, (peak, bound)
        assert psi.nbytes == 8 * self.size

    def test_success_probability_holds_one_gather(self):
        """The gather of the k marked amplitudes, squared in place: 8 k bytes
        for a real state, 4 MiB here.  For a complex state, 16 k bytes and
        the cast buffer of np.getbufsize() float64 magnitudes that abs writes
        back into the gather, 8.06 MiB here.  A separate magnitude array
        would add 8 k."""
        problem = self._problem()
        psi = grover_general(problem, 1)
        peak, _ = self._peak(lambda: success_probability(problem, psi))
        assert peak < 8 * self.k + self.slack, peak
        rotated = psi * 1j
        peak, _ = self._peak(lambda: success_probability(problem, rotated))
        assert peak < 16 * self.k + 8 * np.getbufsize() + self.slack, peak

    def test_search_problem_holds_mask_and_sorted_set(self):
        """The N-byte scatter mask and the 8 k-byte sorted set that nonzero
        returns: N + 8 k bytes, 5 MiB here.  A tuple is first read into an
        8 k-byte int64 copy, which is dropped before nonzero allocates; an
        int64 array is scattered from directly."""
        marked = np.random.default_rng(20).choice(self.size, self.k, replace=False)
        bound = self.size + 8 * self.k + self.slack
        for form in (tuple(marked.tolist()), marked):
            peak, problem = self._peak(lambda: SearchProblem(self.n_qubits, form))
            assert peak < bound, (type(form), peak)
            assert problem.k == self.k

    def test_table_growth_holds_tables_and_denominators(self):
        """200000 trials at N = 2**20, k = 1 grow the table to all
        N - k + 1 entries.  While it grows from L to L' entries, the old and
        new tables and the int64 denominators of the L' - L new factors are
        alive, 8 (L + L' + L' - L) = 16 L' bytes, with one chunk's keys and
        the previous chunk's counts (16 C bytes); otherwise at most three
        chunk arrays and the table (24 C + 8 L').  So the peak is under
        24 C + 16 (N - k + 1) bytes, 17.5 MiB here.  Forming the factors as
        index, numerator, denominator and quotient arrays held 40 L'."""
        n, k = self.size, 1
        rng = np.random.default_rng(1)
        bound = 24 * MC_CHUNK + 16 * (n - k + 1) + self.slack
        peak, (mean, stderr) = self._peak(lambda: monte_carlo_evaluations(n, k, 200_000, rng))
        assert peak < bound, (peak, bound)
        assert abs(mean - classical_expected_evaluations(n, k)) <= 5 * stderr
