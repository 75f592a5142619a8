"""Two-spin dynamics: free evolution, RF pulse propagators, gradient
crushers and effective pure states.  ``pseudo_pure_00(1.0)`` is the
package's one |00><00| density matrix.

All frequencies are rotating-frame offsets in Hz; propagators are
U = exp(-i 2*pi*t H) with H in Hz.  Pulse phases map +x=0, +y=90, -x=180,
-y=270 degrees, and a pulse of flip angle beta about the phase-phi axis is
exp(-i beta (cos(phi) Ix + sin(phi) Iy)).

Every propagator is built in closed form, without a matrix exponential.  A
rotation by theta about the unit axis n is the SU(2) matrix
cos(theta/2) I - i sin(theta/2) n.sigma.  During a soft pulse the
carrier-frame Hamiltonian commutes with the spectator spin's Iz, so it splits
into two 2x2 blocks, one per spectator eigenvalue m = +-1/2: each block is a
rotation about (omega1 cos(phi), omega1 sin(phi), J m) times the scalar phase
of the spectator's offset from the carrier.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import coherence_order_matrix

TARGET_SPIN1 = 1
TARGET_SPIN2 = 2
TARGET_BOTH = "both"


@dataclass(frozen=True)
class SpinSystem:
    """Two weakly coupled spins: offsets nu1, nu2 (Hz), scalar coupling
    J (Hz), transverse relaxation time T2 (s).

    T2 only shapes the detected line widths; coherent evolution ignores it.
    """

    nu1: float = 80.0
    nu2: float = -80.0
    j: float = 7.0
    t2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("nu1", "nu2", "j", "t2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.j <= 0:
            raise ValueError("J must be positive")
        if self.t2 <= 0:
            raise ValueError("T2 must be positive")
        if abs(self.nu1 - self.nu2) <= 10 * self.j:
            raise ValueError("weak coupling requires |nu1 - nu2| > 10 J")

    @property
    def tau(self) -> float:
        """The 1/(4J) delay used by the compiled two-qubit gates."""
        return 1.0 / (4.0 * self.j)


@dataclass(frozen=True)
class ErrorModel:
    """Pulse imperfection model.

    mode 'none' treats every pulse as an instantaneous rotation and takes
    no t_p (it must be 0, so every such model equals ``IDEAL``).  mode
    'soft-pulse' gives single-spin pulses a finite duration t_p with RF
    amplitude flip/(360 * t_p) Hz, so the spectator spin evolves (and the
    coupling acts) during the pulse; pulses addressed to both spins model
    short hard pulses and stay ideal.
    """

    mode: str = "none"
    t_p: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("none", "soft-pulse"):
            raise ValueError(f"unknown error mode {self.mode!r}")
        if not math.isfinite(self.t_p):
            raise ValueError("t_p must be finite")
        if self.mode == "soft-pulse" and self.t_p <= 0:
            raise ValueError("soft-pulse mode requires t_p > 0")
        if self.mode == "none" and self.t_p != 0:
            raise ValueError("mode 'none' takes no t_p")


IDEAL = ErrorModel()


def _turn_phase(turns: float) -> complex:
    """exp(-i 2*pi*turns), with the turns reduced modulo one by math.fmod.  A
    product that overflowed is, like every float at or above 2**53, a whole
    number of turns: its phase is 0."""
    if not math.isfinite(turns):
        return 1.0 + 0.0j
    return cmath.exp(-2j * math.pi * math.fmod(turns, 1.0))


def free_evolution(sys: SpinSystem, t: float) -> np.ndarray:
    """Propagator exp(-i 2*pi*t H) of free precession for duration t >= 0.

    The three terms of H commute, so the propagator is the product of three
    diagonal factors, one each for nu1 m1, nu2 m2 and J m1 m2, each phase
    taken in turns.  J keeps its own phase however far the offsets exceed
    it, and the 180-degree echo, which conjugates each offset's factor,
    cancels any offset, as summed level energies would not once J falls
    below their rounding.
    """
    if t < 0:
        raise ValueError("evolution time must be >= 0")
    # phases of |0> (m = +1/2) on each spin and of m1 m2 = +1/4; |1> and
    # m1 m2 = -1/4 take the conjugates
    spin1 = _turn_phase(0.5 * sys.nu1 * t)
    spin2 = _turn_phase(0.5 * sys.nu2 * t)
    coupling = _turn_phase(0.25 * sys.j * t)
    return np.diag(
        [
            spin1 * spin2 * coupling,
            spin1 * spin2.conjugate() * coupling.conjugate(),
            spin1.conjugate() * spin2 * coupling.conjugate(),
            spin1.conjugate() * spin2.conjugate() * coupling,
        ]
    )


def _su2(theta: float, nx: float, ny: float, nz: float) -> tuple:
    """Rows of exp(-i theta/2 n.sigma) for a unit axis n, as Python complex
    numbers."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return (
        (complex(c, -s * nz), complex(-s * ny, -s * nx)),
        (complex(s * ny, -s * nx), complex(c, s * nz)),
    )


# Basis indices (target |0>, target |1>) for the spectator in |0> (Iz = +1/2)
# and in |1> (Iz = -1/2); the first spin is the most significant bit.
_BLOCK_INDICES = {
    TARGET_SPIN1: ((0, 2), (1, 3)),
    TARGET_SPIN2: ((0, 1), (2, 3)),
}


def _embed(target: int, blocks) -> np.ndarray:
    """4x4 operator acting as blocks[k] on the target spin while the
    spectator is in |k>."""
    u = np.zeros((4, 4), dtype=complex)
    for (i, j), ((a, b), (c, d)) in zip(_BLOCK_INDICES[target], blocks):
        u[i, i], u[i, j], u[j, i], u[j, j] = a, b, c, d
    return u


def ideal_pulse(target: int | str, flip_deg: float, phase_deg: float) -> np.ndarray:
    """Instantaneous rotation on one spin (identity on the other) or on both."""
    phi = math.radians(phase_deg)
    u2 = _su2(math.radians(flip_deg), math.cos(phi), math.sin(phi), 0.0)
    if target in (TARGET_SPIN1, TARGET_SPIN2):
        return _embed(target, (u2, u2))
    if target == TARGET_BOTH:
        return _embed(TARGET_SPIN1, (u2, u2)) @ _embed(TARGET_SPIN2, (u2, u2))
    raise ValueError(f"unknown pulse target {target!r}")


def soft_pulse(
    sys: SpinSystem, target: int, flip_deg: float, phase_deg: float, t_p: float
) -> np.ndarray:
    """Finite-duration selective pulse on one spin.

    The propagator is computed in the frame of the pulse carrier (placed on
    the target spin's offset), where the Hamiltonian is time-independent:
    shifted offsets + coupling + the RF term on the target spin with
    amplitude flip/(360*t_p) Hz.  The result is rotated back into the shared
    rotating frame, so during t_p the spectator precesses at its own offset
    and the coupling keeps running -- the finite-duration errors of a real
    selective pulse.  Each block's rotation is taken in degrees over the
    whole pulse, flip_deg from the RF term and 360 J m t_p from the
    coupling, so t_p is never a divisor: any positive t_p down to the
    smallest subnormal runs, and as t_p -> 0 the pulse becomes
    ``ideal_pulse`` with its exact rotation angle.  The spectator's
    precession and the frame's phase are taken in turns through
    ``_turn_phase``, as ``free_evolution`` takes its phases, so a phase far
    above 1/t_p keeps its digits and one that overflows is whole turns.  A
    t_p so long that the coupling rotation overflows raises ValueError.
    """
    if t_p <= 0:
        raise ValueError("soft pulse duration must be positive")
    if target == TARGET_SPIN1:
        carrier, spectator = sys.nu1, sys.nu2
    elif target == TARGET_SPIN2:
        carrier, spectator = sys.nu2, sys.nu1
    else:
        raise ValueError("soft pulses address a single spin")
    phi = math.radians(phase_deg)
    blocks = []
    for m in (0.5, -0.5):
        # H_m t_p = ((spectator - carrier) m + J m Iz + omega1 (cos(phi) Ix + sin(phi) Iy)) t_p
        # with omega1 t_p = flip/360: a rotation by hypot(flip, 360 J m t_p) degrees
        coupling_deg = 360.0 * sys.j * m * t_p
        angle_deg = math.hypot(flip_deg, coupling_deg)
        if not math.isfinite(angle_deg):
            raise ValueError(
                f"soft pulse t_p = {t_p!r} s is too long: the pulse's rotation overflows"
            )
        # a 0-degree pulse whose coupling term underflows to 0 is the identity
        norm = angle_deg or 1.0
        (a, b), (c, d) = _su2(
            math.radians(angle_deg),
            flip_deg * math.cos(phi) / norm,
            flip_deg * math.sin(phi) / norm,
            coupling_deg / norm,
        )
        phase = _turn_phase(t_p * (spectator - carrier) * m)
        blocks.append(((phase * a, phase * b), (phase * c, phase * d)))
    # back to the shared frame: exp(-i 2 pi carrier t_p Fz), Fz = diag(1, 0, 0, -1)
    frame = _turn_phase(carrier * t_p)
    u = _embed(target, blocks)
    u[0] *= frame
    u[3] *= frame.conjugate()
    return u


def gradient_crush(rho: np.ndarray) -> np.ndarray:
    """Zero every density-matrix element with nonzero coherence order.

    ``rho`` is one 2^n x 2^n density matrix or a stack of them, shape
    (..., 2^n, 2^n), each crushed alone.  Populations and zero-quantum
    coherences survive; the result stays Hermitian with unit trace.
    Idempotent.
    """
    rho = np.asarray(rho, dtype=complex)
    n = rho.shape[-1].bit_length() - 1
    orders = coherence_order_matrix(n)
    return np.where(orders == 0, rho, 0.0)


def pseudo_pure_00(epsilon: float) -> np.ndarray:
    """Effective pure state (1 - eps) I/4 + eps |00><00| for 0 < eps <= 1."""
    if not 0 < epsilon <= 1:
        raise ValueError("purity parameter must satisfy 0 < epsilon <= 1")
    rho00 = np.zeros((4, 4), dtype=complex)
    rho00[0, 0] = 1.0
    return (1 - epsilon) * np.eye(4, dtype=complex) / 4 + epsilon * rho00
