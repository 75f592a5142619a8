"""Dense complex linear algebra and quantum-state primitives.

States live in the Zeeman product basis |00>, |01>, |10>, |11>, ... with the
first spin (qubit 1) as the most significant bit.  State vectors and density
matrices are plain complex numpy arrays, not wrapped in classes.  Everything
is pure: no function mutates its input.
"""

from __future__ import annotations

import operator

import numpy as np

# Tolerance of the unitarity checks throughout the package.
UNITARY_TOL = 1e-10

# The transverse Pauli matrices and spin operators (hbar = 1).
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
IX = SIGMA_X / 2
IY = SIGMA_Y / 2


def as_integer(name: str, value: object) -> int:
    """``value`` as an int through ``operator.index``: integer types such as
    np.int64 pass, while 2.0, "2" or None raise ValueError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    """True iff max|U†U - I| <= tol (False if U holds a nan or an inf)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        return False
    # U†U through einsum, which, unlike matmul, raises no RuntimeWarning when
    # a nan, an inf or an overflow enters the product (the max is then nan or
    # inf and the verdict False); subtract I in place through a ravel view of
    # the new contiguous product
    delta = np.einsum("ji,jk->ik", u.conj(), u)
    delta.ravel()[:: u.shape[0] + 1] -= 1.0
    return float(np.abs(delta).max()) <= tol


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis ket |index> on n_qubits (first spin = MSB)."""
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    psi = np.zeros(2**n_qubits, dtype=complex)
    psi[index] = 1.0
    return psi


def ket_label(index: int, n_qubits: int) -> str:
    """Bit-pattern label of a basis index, e.g. ``ket_label(2, 2) == '10'``."""
    return format(index, f"0{n_qubits}b")


def apply_unitary(u: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Apply U to a state vector (U s) or density matrix (U s U†).

    Validates unitarity of ``u`` at 1e-10 and the dimension match; preserves
    norm/trace by construction.
    """
    u = np.asarray(u, dtype=complex)
    state = np.asarray(state, dtype=complex)
    if not is_unitary(u):
        raise ValueError("operator is not unitary at tolerance 1e-10")
    if state.shape[0] != u.shape[0]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {state.shape}")
    if state.ndim == 1:
        return u @ state
    if state.ndim == 2:
        return u @ state @ u.conj().T
    raise ValueError("state must be a vector or a square matrix")


def apply_single_qubit(u2: np.ndarray, psi: np.ndarray, qubit: int) -> np.ndarray:
    """Apply a 2x2 unitary to one qubit of a state vector.

    ``qubit`` counts from 1 (= most significant bit).  No package code path
    calls it: the search iterate is a closed-form reflection.  It stays as the
    tests' reference primitive for per-qubit gate products, and because the
    benchmark tracer resolves it by name.
    """
    psi = np.asarray(psi, dtype=complex)
    n = psi.shape[0].bit_length() - 1
    if not 1 <= qubit <= n:
        raise ValueError(f"qubit {qubit} out of range for {n} qubits")
    left = 2 ** (qubit - 1)
    right = 2 ** (n - qubit)
    t = psi.reshape(left, 2, right)
    out = np.einsum("ab,ibj->iaj", np.asarray(u2, dtype=complex), t)
    return out.reshape(-1)


def coherence_order_matrix(n_qubits: int) -> np.ndarray:
    """Matrix of coherence orders for all (i, j) pairs.

    The order of rho_ij is popcount(j) - popcount(i): the difference in the
    number of spins in |1> between the bra and ket side.  Field-gradient
    pulses dephase every element with nonzero order.
    """
    pops = np.array([bin(i).count("1") for i in range(2**n_qubits)])
    return pops[None, :] - pops[:, None]


def fidelity(psi: np.ndarray, rho: np.ndarray) -> float:
    """<psi|rho|psi> for a pure target state; real in [0, 1]."""
    psi = np.asarray(psi, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (psi.shape[0], psi.shape[0]):
        raise ValueError(f"dimension mismatch: {psi.shape} vs {rho.shape}")
    value = complex(psi.conj() @ rho @ psi)
    if abs(value.imag) > 1e-12:
        raise ValueError(f"fidelity has non-negligible imaginary part {value.imag:.3e}")
    return float(value.real)
