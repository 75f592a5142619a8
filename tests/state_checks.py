"""State validators, phase helpers and the direct reference computations that
only the tests use."""

import cmath
import math

import numpy as np

from spinsearch.core import apply_unitary, basis_state
from spinsearch.grover import OracleLabel, SearchProblem, grover_iterate
from spinsearch.sequence import (
    Gradient,
    PropagatorTable,
    PulseSequence,
    compile_oracle,
    grover_program,
    hadamard_pair,
)
from spinsearch.spins import IDEAL

NORM_TOL = 1e-12

# The Pauli matrices and spin operators (hbar = 1).
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IX = SIGMA_X / 2
IY = SIGMA_Y / 2
IZ = SIGMA_Z / 2

IZ1 = np.kron(IZ, IDENTITY_2)
IZ2 = np.kron(IDENTITY_2, IZ)
IZZ = np.kron(IZ, IZ)

# The detected observable I1+ + I2+, I+ = Ix + i Iy = |0><1| on one spin: the
# reference for the coherences of ``readout._LINES``
RAISING = IX + 1j * IY
OBSERVE_1 = np.kron(RAISING, IDENTITY_2)
OBSERVE_2 = np.kron(IDENTITY_2, RAISING)


_SQRT2 = math.sqrt(2.0)


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
    The output equals |ab> up to a convention-fixed global phase.  The
    literal gate product: the reference for ``spinsearch gate``, which runs
    one ``grover_general`` iterate at N = 4, k = 1.
    """
    psi = basis_state(2, 0)
    for gate in (_HINV2, oracle_matrix(label), _H2, _U_00, _HINV2):
        psi = apply_unitary(gate, psi)
    return psi


def density_from_state(psi: np.ndarray) -> np.ndarray:
    """Rank-one density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return np.outer(psi, psi.conj())


def state_00() -> np.ndarray:
    """|00><00| built from the ket: the reference for ``pseudo_pure_00(1.0)``."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0
    return density_from_state(psi)


def check_state_vector(psi: np.ndarray, tol: float = NORM_TOL) -> None:
    """Raise ValueError unless psi is a unit-norm state vector of 2^n entries."""
    psi = np.asarray(psi)
    n = psi.shape[0]
    if psi.ndim != 1 or n & (n - 1):
        raise ValueError(f"state vector length {psi.shape} is not a power of two")
    norm_err = abs(float(np.sum(np.abs(psi) ** 2)) - 1.0)
    if norm_err > tol:
        raise ValueError(f"state vector norm deviates from 1 by {norm_err:.3e}")


def check_density_matrix(rho: np.ndarray, tol: float = NORM_TOL) -> None:
    """Raise ValueError unless rho is Hermitian, unit trace, and PSD to 1e-10."""
    rho = np.asarray(rho)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if float(np.max(np.abs(rho - rho.conj().T))) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(complex(np.trace(rho)).real - 1.0) > tol:
        raise ValueError("density matrix trace deviates from 1")
    if float(np.min(np.linalg.eigvalsh(rho))) < -1e-10:
        raise ValueError("density matrix has a significantly negative eigenvalue")


def temporal_average_00(populations) -> np.ndarray:
    """Temporal averaging toward |00>: average the diagonal state over the two
    cyclic permutations of the non-|00> populations.

    diag(p0, p1, p2, p3) averages to diag(p0, pbar, pbar, pbar) with
    pbar = (p1+p2+p3)/3, whose traceless part is proportional to the
    traceless part of |00><00|.
    """
    p = np.asarray(populations, dtype=float)
    if p.shape != (4,):
        raise ValueError("expected four diagonal populations")
    if abs(float(np.sum(p)) - 1.0) > 1e-12:
        raise ValueError("populations must sum to 1")
    cycles = [
        [p[0], p[1], p[2], p[3]],
        [p[0], p[2], p[3], p[1]],
        [p[0], p[3], p[1], p[2]],
    ]
    avg = np.mean(np.asarray(cycles), axis=0)
    return np.diag(avg).astype(complex)


def reference_is_unitary(u: np.ndarray, tol: float = 1e-10) -> bool:
    """max|U†U - I| <= tol, with I subtracted through the flat iterator: the
    reference for ``core.is_unitary``."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    delta = u.conj().T @ u
    delta.flat[:: u.shape[0] + 1] -= 1.0
    return float(np.abs(delta).max()) <= tol


def global_phase_factor(a: np.ndarray, b: np.ndarray) -> complex:
    """Unit-modulus c minimising a - c*b, read off b's largest entry."""
    b = np.asarray(b, dtype=complex).ravel()
    k = int(np.argmax(np.abs(b)))
    ratio = np.asarray(a, dtype=complex).ravel()[k] / b[k]
    if abs(ratio) == 0.0:
        raise ValueError("arrays are not phase-related (zero overlap entry)")
    return ratio / abs(ratio)


def equal_up_to_global_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """True iff a == c*b for some unit-modulus c, within max-norm tol.

    The candidate c is read off the largest-magnitude entry of b.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    flat_b = b.ravel()
    k = int(np.argmax(np.abs(flat_b)))
    if abs(flat_b[k]) == 0.0:
        raise ValueError("reference array is identically zero")
    ratio = a.ravel()[k] / flat_b[k]
    if abs(ratio) < tol:
        return False
    c = ratio / abs(ratio)
    return float(np.max(np.abs(a - c * b))) <= tol


def coherence_order(i: int, j: int, n_qubits: int) -> int:
    """Coherence order popcount(j) - popcount(i) of the element rho_ij."""
    dim = 2**n_qubits
    if not (0 <= i < dim and 0 <= j < dim):
        raise ValueError(f"indices ({i}, {j}) out of range for {n_qubits} qubits")
    return bin(j).count("1") - bin(i).count("1")


def hamiltonian(nu1: float, nu2: float, j: float) -> np.ndarray:
    """Weak-coupling Hamiltonian nu1*Iz1 + nu2*Iz2 + J*Iz1Iz2 in Hz, as a 4x4
    matrix: the reference for ``energies``."""
    return nu1 * IZ1 + nu2 * IZ2 + j * IZZ


def energies(sys) -> np.ndarray:
    """The four product-basis energies nu1 m1 + nu2 m2 + J m1 m2 in Hz, the
    diagonal of the weak-coupling Hamiltonian nu1 Iz1 + nu2 Iz2 + J Iz1 Iz2
    (m = +1/2 for |0>, -1/2 for |1>): the levels whose differences E_j - E_i
    place the readout's lines."""
    return np.array(
        [sys.nu1 * m1 + sys.nu2 * m2 + sys.j * m1 * m2 for m1 in (0.5, -0.5) for m2 in (0.5, -0.5)]
    )


def factored_free_evolution(sys, t: float) -> np.ndarray:
    """exp(-i 2 pi t H) as the product of the diagonal factors of the three
    commuting terms nu1 Iz1, nu2 Iz2 and J Iz1 Iz2, level by level: each
    factor's phase is m nu t turns, with m read off the diagonal of Iz1, Iz2
    or Iz1 Iz2, reduced modulo one by math.fmod (0 once the product
    overflows) and exponentiated on its own.  The reference for
    ``spins.free_evolution``, which takes the m < 0 phases as conjugates."""

    def factor(m: float, frequency: float) -> complex:
        turns = m * frequency * t
        turns = math.fmod(turns, 1.0) if math.isfinite(turns) else 0.0
        return cmath.exp(-2j * math.pi * turns)

    diagonal = []
    for level in range(4):
        f1, f2, fj = (
            factor(float(iz[level, level].real), frequency)
            for iz, frequency in ((IZ1, sys.nu1), (IZ2, sys.nu2), (IZZ, sys.j))
        )
        diagonal.append(f1 * f2 * fj)
    return np.diag(diagonal)


def ry(beta_deg: float) -> np.ndarray:
    """Ry(beta) = exp(-i*beta*sigma_y/2)."""
    half = math.radians(beta_deg) / 2
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -s], [s, c]], dtype=complex)


def predicted_success_probability(n: int, k: int, iterations: int) -> float:
    """sin^2((2m+1) * asin(sqrt(k/N))): the exact rotation-picture value."""
    theta = math.asin(math.sqrt(k / n))
    return math.sin((2 * iterations + 1) * theta) ** 2


def popcount_signs(n_qubits: int) -> np.ndarray:
    """The diagonal of the sign frame D = diag((-1)^popcount(x))."""
    bits = (np.arange(2**n_qubits)[:, None] >> np.arange(n_qubits)) & 1
    return 1.0 - 2.0 * (bits.sum(axis=1) % 2)


def full_vector_iterate(problem: SearchProblem, phi: np.ndarray) -> np.ndarray:
    """One search iterate on all 2^n real frame amplitudes phi = D.psi: the
    marked-set sign flip, then the inversion about the mean,
    phi <- phi - 2 mean(phi).  Returns a new float64 array.  The reference
    for ``grover.grover_iterate``, which keeps only the two amplitudes the
    iterate leaves."""
    phi = np.asarray(phi, dtype=float).copy()
    phi[problem.marked] *= -1
    phi -= 2 * phi.mean()
    return phi


def full_vector_general(problem: SearchProblem, iterations: int) -> np.ndarray:
    """``iterations`` full-vector iterates from the uniform frame amplitudes
    1/sqrt(N), mapped back by D: the reference for ``grover.grover_general``."""
    phi = np.full(problem.size, 1.0 / math.sqrt(problem.size))
    for _ in range(iterations):
        phi = full_vector_iterate(problem, phi)
    return popcount_signs(problem.n_qubits) * phi


def float_frame_general(problem: SearchProblem, iterations: int) -> np.ndarray:
    """The plane recurrence's state, b everywhere and a on the marked set,
    times D's +-1 diagonal as a second float64 array: the bit-for-bit
    reference for ``grover.grover_general``, which builds the frame by
    doubling as int8 and multiplies it in place."""
    size, k = problem.size, problem.k
    a = b = 1.0 / math.sqrt(size)
    for _ in range(iterations):
        a, b = grover_iterate(k, size, a, b)
    phi = np.full(size, b)
    phi[problem.marked] = a
    return popcount_signs(problem.n_qubits) * phi


def abs_success_probability(problem: SearchProblem, psi: np.ndarray) -> float:
    """The sum of |psi|**2 over the marked set from a separate magnitude
    array: the bit-for-bit reference for ``grover.success_probability``,
    which squares its gather in place."""
    v = np.abs(psi[problem.marked])
    np.square(v, out=v)
    return float(v.sum())


def reference_marked(n_qubits: int, marked) -> np.ndarray:
    """The marked set built by numpy's dtype inference over the elements and
    a sort: the reference for ``SearchProblem``'s typed conversion and
    scatter mask.  Unlike the package, it rejects Python bools."""
    marked = np.asarray(marked if isinstance(marked, np.ndarray) else list(marked))
    if marked.ndim != 1 or marked.size == 0 or marked.dtype.kind not in "iu":
        raise ValueError("marked indices must be one or more integers (k >= 1)")
    marked = np.sort(marked.astype(np.intp, copy=False))  # uint64 >= 2**63 turns negative
    if marked[0] < 0 or marked[-1] >= 2**n_qubits or np.any(marked[1:] == marked[:-1]):
        raise ValueError(f"marked indices must be distinct and in [0, {2**n_qubits})")
    return marked


def monte_carlo_by_draw(n: int, k: int, trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Sampling without replacement drawn draw by draw, one uniform per trial
    per draw: the reference for ``grover.monte_carlo_evaluations``.  With no
    marked item drawn yet, draw i is marked with probability k / (N - i + 1)."""
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


def monte_carlo_one_shot(n: int, k: int, trials: int, rng: np.random.Generator) -> tuple[float, float]:
    """Simulate sampling without replacement; returns (mean, std error).

    Each trial draws items uniformly from the remaining pool until a marked
    one comes up.  Its first x draws all miss with probability
    S(x) = prod_{i<x} (N - k - i) / (N - i), the survival function, so one
    uniform u per trial fixes its count as the number of x >= 0 with
    S(x) > u.  S is tabulated by cumprod from 64 entries, growing x4 until it
    falls to or below the smallest u or reaches its full N - k + 1 entries,
    and inverted by one searchsorted.  This simulates the process directly
    rather than using the closed form, so it is an independent check of it.

    The reference for ``grover.monte_carlo_evaluations``: all ``trials``
    uniforms in one draw, a table rebuilt on each x4 step, and numpy's
    mean and standard deviation of the counts.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= N")
    if trials < 1:
        raise ValueError("need trials >= 1")
    u = rng.random(trials)
    lowest = u.min()
    full, size = n - k + 1, 64  # S(N - k + 1) = 0: the last draw always hits
    while True:
        i = np.arange(min(size, full) - 1)
        survival = np.cumprod(np.concatenate(([1.0], (n - k - i) / (n - i))))
        if survival.size == full or survival[-1] <= lowest:
            break
        size *= 4
    counts = np.searchsorted(-survival, -u)
    stderr = float(np.std(counts, ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
    return float(np.mean(counts)), stderr


def search_program(label: OracleLabel, sys) -> PulseSequence:
    """The package's search program for ``label`` on ``sys``, assembled by
    ``grover_program`` from freshly compiled oracles."""
    oracles = {lab: compile_oracle(lab, sys) for lab in (label, OracleLabel(0, 0))}
    return grover_program(label, oracles)


def reference_grover_program(label: OracleLabel, sys) -> PulseSequence:
    """The per-label build that compiles the label's oracle and the |00>
    reflection afresh for each program: the reference for the programs that
    ``run_experiments`` assembles from oracles compiled once per set."""
    u_fab = compile_oracle(label, sys)
    u_00 = compile_oracle(OracleLabel(0, 0), sys)
    events = (
        (hadamard_pair(inverse=True),)
        + u_fab.events
        + (hadamard_pair(),)
        + u_00.events
        + (hadamard_pair(inverse=True),)
    )
    notes = (f"two-qubit search program for {label.name}",) + u_fab.notes[1:]
    return PulseSequence(events, notes)


def sequence_unitary(sys, seq, err=IDEAL) -> np.ndarray:
    """Product of the event propagators (earliest applied first), as a new
    array, from one ``PropagatorTable``: the unitary that ``run_sequence``
    conjugates a gradient-free sequence by.

    Raises on gradient events, which have no unitary representation.
    """
    table = PropagatorTable(sys, err)
    u = np.eye(4, dtype=complex)
    for ev in seq:
        if isinstance(ev, Gradient):
            raise ValueError("gradient events have no unitary; use run_sequence")
        u = table.propagator(ev) @ u
    return u
