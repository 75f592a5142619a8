"""Gate-level two-qubit search circuit and the generalized N/k amplitude
amplification, plus the classical sampling comparator.

The search diffusion h^-1(x n) . U_00 . h(x n) equals I - 2|s><s| because
h^-1 = h^T, with the start state s_x = (-1)^popcount(x)/sqrt(N): Grover's
inversion about the mean, one dot product and one axpy per iterate, O(N).

Conventions (fixed package-wide): Ry(beta) = exp(-i*beta*sigma_y/2), so the
pseudo-Hadamard h = Ry(90 deg) = (1/sqrt(2)) [[1, -1], [1, 1]] and h maps
|0> to (|0>+|1>)/sqrt(2); the first qubit is the most significant bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import apply_unitary, as_integer, basis_state

_SQRT2 = math.sqrt(2.0)

ORACLE_LABELS = ("f00", "f01", "f10", "f11")


@dataclass(frozen=True)
class OracleLabel:
    """One of the four two-bit search functions, labelled by its satisfying
    bit pattern (a = first qubit, b = second qubit)."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a not in (0, 1) or self.b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got ({self.a}, {self.b})")

    @classmethod
    def from_name(cls, name: str) -> "OracleLabel":
        """Parse 'f01'-style names."""
        if len(name) != 3 or name[0] != "f" or name[1] not in "01" or name[2] not in "01":
            raise ValueError(f"invalid oracle label {name!r}; expected one of {ORACLE_LABELS}")
        return cls(int(name[1]), int(name[2]))

    @property
    def name(self) -> str:
        return f"f{self.a}{self.b}"

    @property
    def index(self) -> int:
        """Marked basis index 2a + b."""
        return 2 * self.a + self.b

    def swapped(self) -> "OracleLabel":
        return OracleLabel(self.b, self.a)


ALL_LABELS = tuple(OracleLabel.from_name(n) for n in ORACLE_LABELS)


@dataclass(frozen=True, eq=False)
class SearchProblem:
    """Search over N = 2**n_qubits items.  ``marked`` takes any iterable of
    distinct integers in [0, N) and is held as a sorted, read-only intp
    array, so equality and hashing come from (n_qubits, marked bytes)."""

    n_qubits: int
    marked: np.ndarray

    def __post_init__(self) -> None:
        n_qubits = as_integer("n_qubits", self.n_qubits)
        if not 1 <= n_qubits <= 20:
            raise ValueError("n_qubits must be between 1 and 20 (desk scale)")
        marked = np.asarray(self.marked if isinstance(self.marked, np.ndarray) else list(self.marked))
        if marked.ndim != 1 or marked.size == 0 or marked.dtype.kind not in "iu":
            raise ValueError("marked indices must be one or more integers (k >= 1)")
        marked = np.sort(marked.astype(np.intp, copy=False))  # uint64 >= 2**63 turns negative
        if marked[0] < 0 or marked[-1] >= 2**n_qubits or np.any(marked[1:] == marked[:-1]):
            raise ValueError(f"marked indices must be distinct and in [0, {2**n_qubits})")
        marked.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "marked", marked)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SearchProblem) and self.n_qubits == other.n_qubits
                and np.array_equal(self.marked, other.marked))

    def __hash__(self) -> int:
        return hash((self.n_qubits, self.marked.tobytes()))

    @property
    def size(self) -> int:
        return 2**self.n_qubits

    @property
    def k(self) -> int:
        return self.marked.size


def pseudo_hadamard() -> np.ndarray:
    """h = Ry(90 deg): maps each eigenstate to a signed uniform superposition."""
    return np.array([[1, -1], [1, 1]], dtype=complex) / _SQRT2


def pseudo_hadamard_inverse() -> np.ndarray:
    """h^-1 = Ry(-90 deg): exactly the transpose of h (a real rotation)."""
    return np.array([[1, 1], [-1, 1]], dtype=complex) / _SQRT2


def oracle_matrix(label: OracleLabel) -> np.ndarray:
    """Diagonal oracle flipping the sign of |ab>; the diffusion gate U_00 is
    oracle_matrix(OracleLabel(0, 0))."""
    diag = np.ones(4, dtype=complex)
    diag[label.index] = -1.0
    return np.diag(diag)


# The label-independent gates of the two-qubit circuit.
_H2 = np.kron(pseudo_hadamard(), pseudo_hadamard())
_HINV2 = np.kron(pseudo_hadamard_inverse(), pseudo_hadamard_inverse())
_U_00 = oracle_matrix(OracleLabel(0, 0))


def grover2_circuit(label: OracleLabel) -> np.ndarray:
    """Run the two-qubit search circuit from |00> for the given function.

    Circuit order (leftmost applied first):
    (h^-1 x h^-1) . U_fab . (h x h) . U_00 . (h^-1 x h^-1).
    The output equals |ab> up to a convention-fixed global phase.
    """
    psi = basis_state(2, 0)
    for gate in (_HINV2, oracle_matrix(label), _H2, _U_00, _HINV2):
        psi = apply_unitary(gate, psi)
    return psi


def read_bits(psi: np.ndarray) -> tuple[int, int]:
    """Identify the two-qubit output by its dominant basis state."""
    index = int(np.argmax(np.abs(psi) ** 2))
    return index >> 1, index & 1


def _start_amplitudes(n_qubits: int) -> np.ndarray:
    """(h^-1)^(x n) |0...0> as a real vector: entry x is (-1)^popcount(x)/sqrt(N),
    built by doubling (entries [w, 2w) are entries [0, w) with one more bit set)."""
    size = 2**n_qubits
    s = np.empty(size)
    s[0] = 1.0 / math.sqrt(size)
    width = 1
    while width < size:
        np.negative(s[:width], out=s[width : 2 * width])
        width *= 2
    return s


def grover_start(problem: SearchProblem) -> np.ndarray:
    """The complex start state s = (h^-1)^(x n) |0...0> of the search iteration."""
    return _start_amplitudes(problem.n_qubits).astype(complex)


def grover_iterate(problem: SearchProblem, psi: np.ndarray) -> np.ndarray:
    """One search iterate: marked-set sign flip, then the inversion about the
    start state, psi <- psi - 2<s|psi> s (O(N))."""
    s = _start_amplitudes(problem.n_qubits)
    psi = np.array(psi, dtype=complex)
    psi[problem.marked] *= -1
    psi -= (2 * (s @ psi)) * s
    return psi


def grover_general(problem: SearchProblem, iterations: int) -> np.ndarray:
    """State after ``iterations`` applications of the search iterate to the
    uniform start state.  Matrix-free; fine up to 20 qubits."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    psi = grover_start(problem)
    for _ in range(iterations):
        psi = grover_iterate(problem, psi)
    return psi


def success_probability(problem: SearchProblem, psi: np.ndarray) -> float:
    """Total probability of measuring a marked index."""
    return float(np.sum(np.abs(psi[problem.marked]) ** 2))


def optimal_iterations(problem: SearchProblem) -> int:
    """round(pi/(4*theta) - 1/2) with theta = asin(sqrt(k/N)), clamped to >= 0.

    Rounds half away from zero (floor(x + 1/2), which collapses to
    floor(pi/(4*theta))); equals exactly 1 for k = N/4.  The 1e-12 nudge
    absorbs ulp jitter from asin at exact-integer boundaries such as k = N/2,
    where neighbouring counts give identical success probability anyway.
    """
    theta = math.asin(math.sqrt(problem.k / problem.size))
    return max(0, int(math.floor(math.pi / (4 * theta) + 1e-12)))


def classical_expected_evaluations(n: int, k: int) -> float:
    """Exact expected number of evaluations, (N+1)/(k+1), for uniform
    sampling without replacement until a marked element is found."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    return (n + 1) / (k + 1)


def classical_approx_evaluations(n: int, k: int) -> float:
    """The coarse N/(2k) estimate, exposed for comparison tables."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    return n / (2 * k)


def monte_carlo_evaluations(
    n: int, k: int, trials: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Simulate sampling without replacement; returns (mean, std error).

    Each trial draws items uniformly from the remaining pool until a marked
    one comes up; with no marked item drawn yet, draw i is marked with
    probability k / (N - i + 1).  This simulates the process directly rather
    than using the closed form, so it is an independent check of it.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    if trials < 1:
        raise ValueError("need trials >= 1")
    counts = np.zeros(trials, dtype=np.int64)
    active = np.arange(trials)
    for draw in range(1, n - k + 2):  # the last draw, from the k marked alone, always hits
        hits = rng.random(active.size) < k / (n - draw + 1)
        counts[active[hits]] = draw
        active = active[~hits]
        if active.size == 0:
            break
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(counts)), stderr
