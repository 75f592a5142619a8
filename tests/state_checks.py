"""State validators and the global-phase helper that only the tests use."""

import numpy as np

NORM_TOL = 1e-12


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
