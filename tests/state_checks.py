"""State validators, phase helpers and the direct reference computations that
only the tests use."""

import math

import numpy as np

from spinsearch.core import IDENTITY_2

NORM_TOL = 1e-12

SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IZ = SIGMA_Z / 2

IZ1 = np.kron(IZ, IDENTITY_2)
IZ2 = np.kron(IDENTITY_2, IZ)
IZZ = np.kron(IZ, IZ)


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
    matrix: the reference for ``spins.energies``."""
    return nu1 * IZ1 + nu2 * IZ2 + j * IZZ


def ry(beta_deg: float) -> np.ndarray:
    """Ry(beta) = exp(-i*beta*sigma_y/2)."""
    half = math.radians(beta_deg) / 2
    c, s = math.cos(half), math.sin(half)
    return np.array([[c, -s], [s, c]], dtype=complex)


def predicted_success_probability(n: int, k: int, iterations: int) -> float:
    """sin^2((2m+1) * asin(sqrt(k/N))): the exact rotation-picture value."""
    theta = math.asin(math.sqrt(k / n))
    return math.sin((2 * iterations + 1) * theta) ** 2
