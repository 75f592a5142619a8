"""Simulated NMR detection: gradient crush + observe pulse, FID synthesis,
Fourier transform, reference phasing, line integration and qubit readout.

The detected signal is s(t) = Tr(rho(t) (I1+ + I2+)) * exp(-t/T2) under free
evolution, sampled at dwell 1/spectral_width.  Each spin contributes a
doublet at nu_i +/- J/2; after phasing against a reference, a positive
absorption pair reads as qubit value 0 and a negative pair as 1.

The signal is linear in rho and has four known lines, so the waveforms of
those lines, the decay envelope and the frequency grid (the line basis, built
by ``synthesize_fid``) depend only on the spin system and the acquisition.
An experiment set builds the basis once; each detection is a 4-term sum, one
decay multiply and one FFT, and reads each line's exact integral off its term.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

import numpy as np

from .core import IDENTITY_2, IX, IY, as_integer
from .spins import SpinSystem, energies, gradient_crush, ideal_pulse

RAISING = IX + 1j * IY  # |0><1| on one spin
OBSERVE_1 = np.kron(RAISING, IDENTITY_2)
OBSERVE_2 = np.kron(IDENTITY_2, RAISING)

# Line integrals at or below these magnitudes count as no signal: in the
# reference (reference_phase) and in a doublet being read (classify).
MIN_REFERENCE_MAGNITUDE = 1e-10
MIN_DOUBLET_SIGNAL = 1e-10


class AmbiguousReadoutError(RuntimeError):
    """Raised when line signs within a spin's doublet disagree or the
    spectrum carries no usable signal."""


@dataclass(frozen=True)
class AcquisitionParams:
    """Sampling grid for the synthesized spectrum.

    Apodization is exponential at rate 1/T2 (taken from the spin system), so
    lines come out Lorentzian with FWHM 1/(pi*T2).
    """

    spectral_width: float = 512.0
    n_points: int = 4096
    observe_phase: float = 0.0

    def __post_init__(self) -> None:
        for name in ("spectral_width", "observe_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.spectral_width <= 0:
            raise ValueError("spectral width must be positive")
        n_points = as_integer("n_points", self.n_points)
        if n_points < 1024 or n_points & (n_points - 1):
            raise ValueError("n_points must be a power of two >= 1024")
        object.__setattr__(self, "n_points", n_points)

    @property
    def dwell(self) -> float:
        return 1.0 / self.spectral_width

    @property
    def resolution(self) -> float:
        return self.spectral_width / self.n_points


@dataclass(frozen=True)
class Peak:
    """One expected line: predicted centre, exact integral over the
    spectrum (complex before phasing, real after) and owner spin."""

    center_hz: float
    integral: complex
    assigned_spin: int


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitude on a uniform frequency grid plus the expected-line
    list (integrals still unphased as returned by detect)."""

    freq_hz: np.ndarray
    values: np.ndarray
    peaks: tuple[Peak, ...] = field(default_factory=tuple)


@dataclass(frozen=True)
class ReadoutResult:
    qubit1: int
    qubit2: int
    line_heights: tuple[float, float, float, float]
    peaks: tuple[Peak, ...]

    @property
    def qubits(self) -> tuple[int, int]:
        return self.qubit1, self.qubit2


def line_centers(sys: SpinSystem) -> tuple[tuple[float, int], ...]:
    """The four predicted line positions, ascending, with the owning spin."""
    lines = [
        (sys.nu1 - sys.j / 2, 1),
        (sys.nu1 + sys.j / 2, 1),
        (sys.nu2 - sys.j / 2, 2),
        (sys.nu2 + sys.j / 2, 2),
    ]
    return tuple(sorted(lines))


@dataclass(frozen=True, eq=False)
class LineBasis:
    """The rho-independent part of detection for one spin system and
    acquisition, shared by every detection of an experiment set.

    ``couplings`` lists the (i, j, O_ji) coherences the observable picks up,
    in detection order; ``waves`` holds their undamped waveforms
    exp(-i 2 pi (E_i - E_j) t), and ``decay`` the envelope exp(-t/T2).
    ``line_couplings`` gives, for each line in ``line_centers`` order, the
    index of its coherence in ``couplings``.  Every array is read-only.
    """

    system: SpinSystem
    acquisition: AcquisitionParams
    couplings: tuple[tuple[int, int, np.complex128], ...]
    waves: tuple[np.ndarray, ...]
    decay: np.ndarray
    freq_hz: np.ndarray
    line_couplings: tuple[int, ...]


def synthesize_fid(sys: SpinSystem, acq: AcquisitionParams) -> LineBasis:
    """Build the line basis the detected FID of any rho is a combination of.

    The FID is linear in rho: each of the four observable coherences rho_ij
    evolves as exp(-i 2 pi (E_i - E_j) t), couples to O_ji and decays at
    rate 1/T2.  Those waveforms and the frequency grid depend only on
    (sys, acq), so an experiment set builds them once and each detection
    only combines them.  Raises ValueError if the spectral width would alias
    the doublets.
    """
    limit = 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j)
    if acq.spectral_width <= limit:
        raise ValueError(f"spectral width too small: lines would alias (need > {limit} Hz)")
    t = np.arange(acq.n_points) * acq.dwell
    levels = energies(sys)
    observe = OBSERVE_1 + OBSERVE_2
    rows, cols = np.nonzero(observe.T)
    couplings = tuple((int(i), int(j), observe[j, i]) for i, j in zip(rows, cols))
    waves = []
    for i, j, _ in couplings:
        wave = -2j * math.pi * (levels[i] - levels[j]) * t
        waves.append(_read_only(np.exp(wave, out=wave)))
    decay = -t / sys.t2
    np.exp(decay, out=decay)
    freq = np.fft.fftshift(np.fft.fftfreq(acq.n_points, d=acq.dwell))
    # coherence (i, j) sits at E_j - E_i; line_centers ascends in frequency too
    line_couplings = tuple(np.argsort([levels[j] - levels[i] for i, j, _ in couplings]).tolist())
    return LineBasis(
        sys, acq, couplings, tuple(waves), _read_only(decay), _read_only(freq), line_couplings
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def detect(
    sys: SpinSystem, rho: np.ndarray, acq: AcquisitionParams, lines: LineBasis | None = None
) -> Spectrum:
    """Crush gradients, fire the observe pulse, transform the FID.

    The FID is the 4-term combination of the line basis ``lines`` with
    coefficients c = O_ji * rho_ij, times the decay envelope; without
    ``lines`` the basis is built for this one detection.  The returned
    spectrum shares the basis's read-only frequency grid.  Each peak's
    integral is exactly c * spectral_width / 2, for any line offset, T2 and
    grid.  Raises ValueError if the spectral width would alias the doublets or
    ``lines`` was built for another system or acquisition.
    """
    if lines is None:
        lines = synthesize_fid(sys, acq)
    elif lines.system != sys or lines.acquisition != acq:
        raise ValueError("line basis was built for a different system or acquisition")
    rho = gradient_crush(np.asarray(rho, dtype=complex))
    u_obs = ideal_pulse("both", 90.0, acq.observe_phase)
    rho = u_obs @ rho @ u_obs.conj().T
    coefficients = [o_ji * rho[i, j] for i, j, o_ji in lines.couplings]
    fid = np.zeros(acq.n_points, dtype=complex)
    for c, wave in zip(coefficients, lines.waves):
        fid += c * wave
    fid *= lines.decay
    fid[0] *= 0.5  # half-first-point convention keeps the baseline flat
    spectrum = np.fft.fft(fid)
    del fid  # release the FID before fftshift copies the spectrum
    values = np.fft.fftshift(spectrum)
    # a line's DFT sums to N times its halved first point (N/2); a point weighs sw/N
    peaks = tuple(
        Peak(center, complex(coefficients[k] * acq.spectral_width / 2), spin)
        for (center, spin), k in zip(line_centers(sys), lines.line_couplings)
    )
    return Spectrum(lines.freq_hz, values, peaks)


def reference_phase(ref: Spectrum) -> float:
    """Zero-order phase correction (degrees) that turns the detected lines of
    the reference into positive absorption.

    The phase is that of the summed line integrals.  The integrals are exact,
    so every line of a common-phase reference lies on it to rounding.  Raises
    AmbiguousReadoutError when no line rises above ``MIN_REFERENCE_MAGNITUDE``
    or when some line lies more than 15 degrees off that phase (a sign the
    input is not a valid reference); the message quotes the largest residue.
    """
    integrals = np.array([p.integral for p in ref.peaks])
    significant = integrals[np.abs(integrals) > MIN_REFERENCE_MAGNITUDE]
    if significant.size == 0:
        raise AmbiguousReadoutError("reference spectrum has no detectable peaks")
    phase = math.degrees(np.angle(np.sum(significant)))
    rotated = significant * np.exp(-1j * math.radians(phase))
    residue = float(np.max(np.degrees(np.abs(np.angle(rotated)))))
    if residue > 15.0:
        raise AmbiguousReadoutError(
            f"reference lines do not share a common phase (largest residue {residue:.1f}° > 15°)"
        )
    return phase


def classify(
    spec: Spectrum, phase_corr: float, ref_integrals: tuple[float, ...] | None = None
) -> ReadoutResult:
    """Phase the spectrum, integrate the four expected lines, and read each
    qubit off the sign of its doublet.

    ``phase_corr`` must come from a reference spectrum of the same
    configuration.  ``ref_integrals`` (the reference's phased line integrals,
    same line order) normalises the returned heights; without them heights
    are relative to this spectrum's own mean line magnitude.  Raises
    AmbiguousReadoutError when a doublet has no line above
    ``MIN_DOUBLET_SIGNAL`` or its two lines disagree in sign.
    """
    rot = np.exp(-1j * math.radians(phase_corr))
    integrals = np.array([(p.integral * rot).real for p in spec.peaks])
    if ref_integrals is not None:
        scale = np.asarray(ref_integrals, dtype=float)
        if scale.shape != integrals.shape or float(np.min(np.abs(scale))) <= 0:
            raise ValueError("reference integrals must be four nonzero reals")
        heights = integrals / scale
    else:
        mean_mag = float(np.mean(np.abs(integrals)))
        heights = integrals / mean_mag if mean_mag > 0 else integrals
    values: dict[int, int] = {}
    for spin in (1, 2):
        pair = [k for k, p in enumerate(spec.peaks) if p.assigned_spin == spin]
        strong = [integrals[k] for k in pair if abs(integrals[k]) > MIN_DOUBLET_SIGNAL]
        if not strong:
            raise AmbiguousReadoutError(f"no signal in the spin-{spin} doublet")
        signs = {v > 0 for v in strong}
        if len(signs) > 1:
            quoted = ", ".join(f"{heights[k]:+.3g}" for k in pair)
            raise AmbiguousReadoutError(f"spin-{spin} doublet lines disagree in sign ({quoted})")
        values[spin] = 0 if signs.pop() else 1
    peaks = tuple(
        Peak(p.center_hz, float(v), p.assigned_spin)
        for p, v in zip(spec.peaks, integrals)
    )
    return ReadoutResult(values[1], values[2], tuple(float(h) for h in heights), peaks)


def write_spectrum_csv(path: str, spec: Spectrum) -> None:
    """CSV export (freq_hz,real,imag as shortest round-trip float reprs, CRLF
    line ends), ascending frequency, atomic write."""
    order = np.argsort(spec.freq_hz)
    values = spec.values[order]
    rows = (
        f"{f!r},{re!r},{im!r}\r\n"
        for f, re, im in zip(
            spec.freq_hz[order].tolist(), values.real.tolist(), values.imag.tolist()
        )
    )
    _write_atomic(path, "".join(["freq_hz,real,imag\r\n", *rows]))


def summary_document(experiment: str, result: ReadoutResult, fidelity: float | None = None) -> dict:
    """Per-experiment JSON document with classification and relative heights."""
    order = np.argsort([p.center_hz for p in result.peaks])
    doc = {
        "experiment": experiment,
        "qubits": [result.qubit1, result.qubit2],
        "peaks": [
            {
                "center_hz": float(result.peaks[i].center_hz),
                "height_rel": float(result.line_heights[i]),
            }
            for i in order
        ],
    }
    if fidelity is not None:
        doc["fidelity"] = float(fidelity)
    return doc


def write_summary_json(path: str, documents: list[dict]) -> None:
    """Atomic write of the experiment summary list."""
    _write_atomic(path, json.dumps(documents, indent=2) + "\n")


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a temporary file in the same directory and
    os.replace, so a failed write leaves any previous file intact.  Line ends
    are written as given."""
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
