"""Simulated NMR detection: gradient crush + observe pulse, the spectrum of
the FID, reference phasing, line integration and qubit readout.

The detected signal is s(t) = Tr(rho(t) (I1+ + I2+)) * exp(-t/T2) under free
evolution, sampled at dwell 1/spectral_width.  Each spin contributes a
doublet at nu_i +/- J/2; after phasing against a reference, a positive
absorption pair reads as qubit value 0 and a negative pair as 1.

The signal is linear in rho and has four known lines, so its spectrum (the
fftshifted DFT of the FID with its first point halved) is a combination of
four line templates, each the closed-form DFT of one damped line.  The
templates and the frequency grid (the line basis, built by
``synthesize_fid``) depend only on the spin system and the acquisition.  An
experiment set builds the basis once; each detection is a 4-term sum of
templates, with no FID or FFT, and reads each line's exact integral off its
coefficient.
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
    in detection order; ``templates`` holds, in the same order, the
    fftshifted spectrum of each coherence's damped line with unit
    coefficient (see ``synthesize_fid``).  ``line_couplings`` gives, for each
    line in ``line_centers`` order, the index of its coherence in
    ``couplings``.  Every array is read-only.
    """

    system: SpinSystem
    acquisition: AcquisitionParams
    couplings: tuple[tuple[int, int, np.complex128], ...]
    templates: tuple[np.ndarray, ...]
    freq_hz: np.ndarray
    line_couplings: tuple[int, ...]


def synthesize_fid(sys: SpinSystem, acq: AcquisitionParams) -> LineBasis:
    """Build the line basis the spectrum of any rho's FID is a combination of.

    The FID is linear in rho: each of the four observable coherences rho_ij
    evolves as exp(-i 2 pi (E_i - E_j) t), couples to O_ji and decays at
    rate 1/T2, so sample n of its line is a**n with
    a = exp((-i 2 pi (E_i - E_j) - 1/T2) * dwell).  With the first point
    halved, the line's N-point DFT is T[m] = (1 - a**N) / (1 - a w**m) - 1/2,
    w = exp(-i 2 pi / N), which ``_line_template`` evaluates without
    cancellation for any T2.  The templates and the frequency grid depend
    only on (sys, acq), so an experiment set builds them once and each
    detection only combines them.  Raises ValueError if the spectral width
    would alias the doublets.
    """
    limit = 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j)
    if acq.spectral_width <= limit:
        raise ValueError(f"spectral width too small: lines would alias (need > {limit} Hz)")
    n = acq.n_points
    levels = energies(sys)
    observe = OBSERVE_1 + OBSERVE_2
    rows, cols = np.nonzero(observe.T)
    couplings = tuple((int(i), int(j), observe[j, i]) for i, j in zip(rows, cols))
    # grid = i exp(-i pi q / N) = sin(pi q / N) + i cos(pi q / N) on the
    # fftshifted grid q = -N/2 .. N/2 - 1, filled by symmetry from
    # sin(pi k / N), k = 0 .. N/2, with cos(pi q / N) = sin(pi (N/2 - |q|) / N)
    half = n // 2
    sines = np.sin(np.arange(half + 1) * (math.pi / n))
    grid = np.empty(n, dtype=complex)
    grid.real[half:] = sines[:half]
    np.negative(sines[half:0:-1], out=grid.real[:half])
    grid.imag[half:] = sines[half:0:-1]
    grid.imag[:half] = sines[:half]
    scratch = np.empty(n)  # reused by every template
    # a rate below the smallest normal float leaves every exp(-n gamma) at
    # 1.0, and raising it there keeps each template's denominator nonzero
    gamma = max(acq.dwell / sys.t2, np.finfo(float).tiny)
    templates = tuple(
        _read_only(_line_template((levels[j] - levels[i]) * acq.dwell * n, gamma, grid, scratch))
        for i, j, _ in couplings
    )
    freq = np.fft.fftshift(np.fft.fftfreq(n, d=acq.dwell))
    # coherence (i, j) sits at E_j - E_i; line_centers ascends in frequency too
    line_couplings = tuple(np.argsort([levels[j] - levels[i] for i, j, _ in couplings]).tolist())
    return LineBasis(sys, acq, couplings, templates, _read_only(freq), line_couplings)


def _line_template(
    position: float, gamma: float, grid: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """The fftshifted DFT of the line a**n, n = 0 .. N-1, first point halved,
    where a = exp(i 2 pi position / N - gamma) puts the line ``position``
    bins from zero frequency and damps it by ``gamma`` per sample.

    With theta = pi (q - position) / N at grid point q,
    1 - a exp(-i 2 pi q / N) = -expm1(-gamma)
                               + 2 exp(-gamma) sin(theta) (sin(theta) + i cos(theta)),
    and 1 - a**N is the same with N gamma and theta = -pi delta, where
    position = p + delta, p integer and |delta| <= 1/2.  ``grid`` holds
    sin + i cos of pi q / N; rolling it by p and rotating it by pi delta / N
    gives sin(theta) + i cos(theta) to the last bits next to the line, where
    1 - a w**m would lose every digit once T2 is long.  ``scratch`` is a
    float buffer of length N.
    """
    n = grid.size
    p = round(position)
    delta = position - p
    shift = p % n
    angle = math.pi * delta
    sin_end = math.sin(-angle)
    numerator = -math.expm1(-n * gamma) + 2 * math.exp(-n * gamma) * sin_end * complex(
        sin_end, math.cos(angle)
    )
    template = np.empty(n, dtype=complex)
    rotation = complex(math.cos(angle / n), math.sin(angle / n))
    np.multiply(grid[: n - shift], rotation, out=template[shift:])
    np.multiply(grid[n - shift :], rotation, out=template[:shift])
    np.multiply(template.real, 2 * math.exp(-gamma), out=scratch)
    template *= scratch
    template += -math.expm1(-gamma)
    np.divide(numerator, template, out=template)
    template -= 0.5
    return template


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def detect(
    sys: SpinSystem, rho: np.ndarray, acq: AcquisitionParams, lines: LineBasis | None = None
) -> Spectrum:
    """Crush gradients, fire the observe pulse, return the FID's spectrum.

    The spectrum is the 4-term combination of the templates of the line
    basis ``lines`` with coefficients c = O_ji * rho_ij; without ``lines``
    the basis is built for this one detection.  The returned values are a
    new array; the spectrum shares the basis's read-only frequency grid.
    Each peak's integral is exactly c * spectral_width / 2, for any line
    offset, T2 and grid.  Raises ValueError if the spectral width would alias
    the doublets or ``lines`` was built for another system or acquisition.
    """
    if lines is None:
        lines = synthesize_fid(sys, acq)
    elif lines.system != sys or lines.acquisition != acq:
        raise ValueError("line basis was built for a different system or acquisition")
    rho = gradient_crush(np.asarray(rho, dtype=complex))
    u_obs = ideal_pulse("both", 90.0, acq.observe_phase)
    rho = u_obs @ rho @ u_obs.conj().T
    coefficients = [o_ji * rho[i, j] for i, j, o_ji in lines.couplings]
    values = np.multiply(lines.templates[0], coefficients[0])
    for c, template in zip(coefficients[1:], lines.templates[1:]):
        values += c * template
    # a template sums to N times the line's halved first point (N/2), and a
    # point weighs sw/N
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
