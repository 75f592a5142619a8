"""Simulated NMR detection: gradient crush + observe pulse, the spectrum of
the FID, reference phasing, line integration and qubit readout.

The detected signal is s(t) = Tr(rho(t) (I1+ + I2+)) * exp(-t/T2) under free
evolution, sampled at dwell 1/spectral_width.  Each spin contributes a
doublet at nu_i +/- J/2; after phasing against a reference, a positive
absorption pair reads as qubit value 0 and a negative pair as 1.

The signal is linear in rho and has four known lines, one table of them
(``_LINES``): spin s flips with the other spin, the spectator, in |0> or
|1>, which gives the coherence rho_ij and the line's position nu_s + J/2 or
nu_s - J/2.  So the spectrum (the fftshifted DFT of the FID with its first
point halved) is a combination of four line templates, each the closed-form
DFT of one damped line at the position its peak reports.  The line basis
(built by ``synthesize_fid``) holds the table in frequency order, the
frequency grid and each template's closed-form constants; it depends only
on the spin system and the acquisition.  ``detect`` builds the basis, reads
an experiment set's states as one stack (one crush, one observe product,
one pick of the four coherences) and renders all their spectra into one
(states, N) block in one pass over cache-sized stripes: each stripe is the
(states x 4) coefficient matrix times the (4 x stripe) template rows, one
matrix product, with no FID, no FFT and no full-size template.  The readout
reads each line by its coefficient, which no acquisition setting scales.
"""

from __future__ import annotations

import cmath
import json
import math
import os
import secrets
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import as_integer
from .spins import SpinSystem, gradient_crush, ideal_pulse

# The four lines of the observable I1+ + I2+, one row (s, m, i, j) each: spin s
# is in |1> in basis state i and in |0> in j (first spin the most significant
# bit), the spectator spin in the same state m in both, so O_ji = 1 and the
# line's coefficient is rho_ij.  With the spectator in |0> (m = +1/2) the line
# sits at nu_s + J/2, in |1> (m = -1/2) at nu_s - J/2.
_LINES = (
    (1, -0.5, 3, 1),
    (1, 0.5, 2, 0),
    (2, -0.5, 3, 2),
    (2, 0.5, 1, 0),
)

# A line coefficient at or below this magnitude is no signal (reference_phase,
# classify): 4.5 times the largest |c|, 2.2e-16, that I/4 kept through the search
# programs of 2700 random valid systems, ideal and with t_p in [1e-6, 2e-4] s.
MIN_LINE_COEFFICIENT = 1e-15

# detect renders the spectra this many points at a time: the four template
# rows and one real scratch stripe come to 4 x 256 KiB + 128 KiB = 1.125 MiB,
# inside a 2 MiB per-core L2 cache, and the matrix product reads the rows
# from there for every spectrum's stripe
_STRIPE = 16384

# The largest n_points an acquisition accepts (see AcquisitionParams)
MAX_POINTS = 2**20


class AmbiguousReadoutError(RuntimeError):
    """Raised when line signs within a spin's doublet disagree or the
    spectrum carries no usable signal."""


@dataclass(frozen=True)
class AcquisitionParams:
    """Sampling grid for the synthesized spectrum.

    Apodization is exponential at rate 1/T2 (taken from the spin system), so
    lines come out Lorentzian with FWHM 1/(pi*T2).

    ``n_points`` is a power of two from 1024 to ``MAX_POINTS`` = 2**20, the
    desk-scale limit (as n <= 20 qubits is for the search).  An experiment
    set's five spectra are one block of 5 x 16 B x N = 80 N bytes, 80 MiB at
    the limit.  With the grid (16 N bytes), the frequency axis (8 N) and the
    integer range behind it (8 N), a set holds at most 112 N bytes, 112 MiB,
    and its CSV export writes about 55 bytes a point, 275 MiB.  Past the
    limit a run outgrows a desk machine (at 2**40 points the block alone
    would be 80 TiB), so such a grid is rejected before anything is
    allocated.
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
        if n_points > MAX_POINTS:
            raise ValueError(
                f"n_points must be at most {MAX_POINTS} (2**20, desk scale), got {n_points}"
            )
        object.__setattr__(self, "n_points", n_points)

    @property
    def dwell(self) -> float:
        return 1.0 / self.spectral_width

    @property
    def resolution(self) -> float:
        return self.spectral_width / self.n_points


@dataclass(frozen=True)
class Peak:
    """One expected line: predicted centre, coefficient c = O_ji * rho_ij
    (complex before phasing, real after; the line integrates to c * sw / 2)
    and owner spin."""

    center_hz: float
    coefficient: complex
    assigned_spin: int


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitude on a uniform frequency grid plus the expected-line
    list (coefficients still unphased as returned by detect).  ``detect``
    builds the grid ascending and the peaks in ``line_table`` order."""

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


def line_table(sys: SpinSystem) -> tuple[tuple[float, int, int, int], ...]:
    """The four lines as (centre in Hz, owner spin, i, j), ascending in
    frequency: each row of ``_LINES`` at nu_s + m J for the coherence rho_ij."""
    rows = [
        ((sys.nu1 if spin == 1 else sys.nu2) + m * sys.j, spin, i, j)
        for spin, m, i, j in _LINES
    ]
    return tuple(sorted(rows, key=lambda row: row[0]))


@dataclass(frozen=True, eq=False)
class LineBasis:
    """The rho-independent part of detection for one spin system and
    acquisition.

    ``lines`` is ``line_table(sys)``: the four lines in frequency order,
    each with its centre, owner spin and the coherence (i, j) whose rho_ij
    is its coefficient.  The template of each line (the fftshifted spectrum
    of its damped line with unit coefficient, see ``synthesize_fid``) is
    held in closed form, never as an N-point array: ``line_constants``
    gives, in the same order, each line's roll p % N, rotation
    exp(i pi delta / N) and numerator 1 - a**N, and ``damping`` the
    (2 exp(-gamma), -expm1(-gamma)) all four lines share.  ``grid`` holds
    sin + i cos of pi q / N on the fftshifted grid q = -N/2 .. N/2 - 1 and
    ``freq_hz`` the frequency of each point.  Every array is read-only.
    """

    lines: tuple[tuple[float, int, int, int], ...]
    line_constants: tuple[tuple[int, complex, complex], ...]
    damping: tuple[float, float]
    grid: np.ndarray
    freq_hz: np.ndarray


def synthesize_fid(sys: SpinSystem, acq: AcquisitionParams) -> LineBasis:
    """Build the line basis the spectrum of any rho's FID is a combination of.

    The FID is linear in rho: each line of ``line_table(sys)`` is a
    coherence rho_ij that evolves as exp(i 2 pi f t) at the line's centre f
    and decays at rate 1/T2, so sample n of its line is a**n with
    a = exp((i 2 pi f - 1/T2) * dwell).  With the first point halved, the
    line's N-point DFT is T[m] = (1 - a**N) / (1 - a w**m) - 1/2,
    w = exp(-i 2 pi / N), and sits at the centre the line's peak reports.
    The basis holds the grid and each line's constants from which
    ``_template_stripe`` evaluates any stretch of T without cancellation for
    any T2; it depends only on (sys, acq).  Raises ValueError if the
    spectral width would alias the doublets.
    """
    limit = 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j)
    if acq.spectral_width <= limit:
        raise ValueError(f"spectral width too small: lines would alias (need > {limit} Hz)")
    n = acq.n_points
    lines = line_table(sys)
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
    # a rate below the smallest normal float leaves every exp(-n gamma) at
    # 1.0, and raising it there keeps each template's denominator nonzero
    gamma = max(acq.dwell / sys.t2, np.finfo(float).tiny)
    line_constants = tuple(
        _line_constants(center * acq.dwell * n, gamma, n) for center, *_ in lines
    )
    damping = (2 * math.exp(-gamma), -math.expm1(-gamma))
    # fftshift(fftfreq(n, dwell)) in one step: the same integers times 1/(n dwell)
    freq = np.arange(-half, half) * (1.0 / (n * acq.dwell))
    return LineBasis(lines, line_constants, damping, _read_only(grid), _read_only(freq))


def _line_constants(position: float, gamma: float, n: int) -> tuple[int, complex, complex]:
    """The constants of the template of the line a**n, n = 0 .. N-1, where
    a = exp(i 2 pi position / N - gamma) puts the line ``position`` bins
    from zero frequency and damps it by ``gamma`` per sample.

    With theta = pi (q - position) / N at grid point q,
    1 - a exp(-i 2 pi q / N) = -expm1(-gamma)
                               + 2 exp(-gamma) sin(theta) (sin(theta) + i cos(theta)),
    and 1 - a**N is the same with N gamma and theta = -pi delta, where
    position = p + delta, p integer and |delta| <= 1/2.  Rolling the grid
    (sin + i cos of pi q / N) by p and rotating it by pi delta / N gives
    sin(theta) + i cos(theta) to the last bits next to the line, where
    1 - a w**m would lose every digit once T2 is long.  Returns the roll
    p % N, the rotation exp(i pi delta / N) and the numerator 1 - a**N.
    """
    p = round(position)
    angle = math.pi * (position - p)
    sin_end = math.sin(-angle)
    numerator = -math.expm1(-n * gamma) + 2 * math.exp(-n * gamma) * sin_end * complex(
        sin_end, math.cos(angle)
    )
    return p % n, complex(math.cos(angle / n), math.sin(angle / n)), numerator


def _template_stripe(
    lines: LineBasis, k: int, start: int, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Write points start .. start + out.size - 1 of template k into ``out``.

    The rolled, rotated grid gives sin(theta) + i cos(theta) (the roll may
    wrap inside the stripe); the template is then
    numerator / (-expm1(-gamma) + 2 exp(-gamma) sin(theta) (sin(theta) + i cos(theta))) - 1/2.
    Every operation is elementwise, so a stripe holds the same bits as the
    same points of the whole-array template.  ``scratch`` is a float buffer
    of out's length.
    """
    shift, rotation, numerator = lines.line_constants[k]
    gain, floor = lines.damping
    grid = lines.grid
    source = (start - shift) % grid.size
    head = min(out.size, grid.size - source)
    np.multiply(grid[source : source + head], rotation, out=out[:head])
    np.multiply(grid[: out.size - head], rotation, out=out[head:])
    np.multiply(out.real, gain, out=scratch)
    out *= scratch
    out += floor
    np.divide(numerator, out, out=out)
    out -= 0.5


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


def detect(
    sys: SpinSystem, rhos: Sequence[np.ndarray], acq: AcquisitionParams
) -> tuple[Spectrum, ...]:
    """Crush gradients, fire the observe pulse and return the FID's spectrum
    for each density matrix of ``rhos``, in order (``()`` for none).

    The states are read as one (states, 4, 4) stack: one ``gradient_crush``,
    one batched observe product U rho U^dagger and one pick of each line's
    coherence through the (i, j) index arrays of the line basis for
    (sys, acq), built once per call by ``synthesize_fid``, give the
    (states, 4) line coefficients c = rho_ij in frequency order.  Each
    spectrum is the 4-term combination of the basis's templates with its
    coefficients.  All spectra are rendered in one pass over
    ``_STRIPE``-point stripes: the four templates' stripes are evaluated
    from their closed forms into the rows of a cache-sized (4, stripe)
    array, and one matrix product of the coefficients with it writes that
    stripe of every spectrum, so no full-size template or temporary is
    built.  The values are bit-identical to the whole-array product of the
    coefficient matrix with the four stacked full-size templates.  The
    spectra of one call are the rows of one new (states, N) array, no two
    overlapping; every spectrum shares the basis's read-only frequency grid.
    Each peak carries its line's centre, owner spin and c, which the
    spectral width and the grid do not scale.  Raises ValueError if the
    spectral width would alias the doublets.
    """
    lines = synthesize_fid(sys, acq)
    stack = np.asarray(rhos, dtype=complex)
    if len(stack) == 0:
        return ()
    u_obs = ideal_pulse("both", 90.0, acq.observe_phase)
    observed = u_obs @ gradient_crush(stack) @ u_obs.conj().T
    _, _, rows, cols = zip(*lines.lines)
    weights = observed[:, rows, cols]
    n = acq.n_points
    size = min(n, _STRIPE)
    templates = np.empty((len(lines.lines), size), dtype=complex)
    scratch = np.empty(size)
    spectra = np.empty((len(weights), n), dtype=complex)
    for start in range(0, n, size):
        for k, template in enumerate(templates):
            _template_stripe(lines, k, start, template, scratch)
        np.matmul(weights, templates, out=spectra[:, start : start + size])
    return tuple(
        Spectrum(
            lines.freq_hz,
            values,
            tuple(Peak(center, c, spin) for (center, spin, _, _), c in zip(lines.lines, row)),
        )
        for values, row in zip(spectra, weights.tolist())
    )


def reference_phase(ref: Spectrum) -> float:
    """Zero-order phase correction (degrees) that turns the detected lines of
    the reference into positive absorption.

    The phase is that of the summed line coefficients, which are exact, so
    every line of a common-phase reference lies on it to rounding.  The
    lines are summed pairwise in frequency order (four lines as the sum of
    the two doublets' sums).  Raises AmbiguousReadoutError when no
    |coefficient| exceeds ``MIN_LINE_COEFFICIENT`` or when some line lies
    more than 15 degrees off that phase (a sign the input is not a valid
    reference); the message quotes the largest residue.
    """
    significant = [p.coefficient for p in ref.peaks if abs(p.coefficient) > MIN_LINE_COEFFICIENT]
    if not significant:
        raise AmbiguousReadoutError("reference spectrum has no detectable peaks")
    total = sum(sum(significant[k : k + 2]) for k in range(0, len(significant), 2))
    phase = math.degrees(cmath.phase(total))
    rot = cmath.exp(-1j * math.radians(phase))
    residue = max(abs(math.degrees(cmath.phase(c * rot))) for c in significant)
    if residue > 15.0:
        raise AmbiguousReadoutError(
            f"reference lines do not share a common phase (largest residue {residue:.1f}° > 15°)"
        )
    return phase


def classify(spec: Spectrum, phase_corr: float, reference: Spectrum) -> ReadoutResult:
    """Phase the four line coefficients and read each qubit off the sign of
    its doublet.

    ``phase_corr`` comes from ``reference``, a spectrum of the same
    configuration.  Each height is the line's phased coefficient over the
    reference's (same line order), so the reference read against itself has
    heights of exactly 1.0.  Raises AmbiguousReadoutError, alike at every
    spectral width, when a reference line has no |coefficient| above
    ``MIN_LINE_COEFFICIENT``, or when a doublet has none or its lines disagree.
    """
    rot = cmath.exp(-1j * math.radians(phase_corr))
    coefficients = [(p.coefficient * rot).real for p in spec.peaks]
    scale = [(p.coefficient * rot).real for p in reference.peaks]
    for p, c in zip(reference.peaks, scale):
        if abs(c) <= MIN_LINE_COEFFICIENT:
            raise AmbiguousReadoutError(f"no signal in the reference line at {p.center_hz:g} Hz")
    heights = [c / s for c, s in zip(coefficients, scale)]
    values: dict[int, int] = {}
    for spin in (1, 2):
        pair = [k for k, p in enumerate(spec.peaks) if p.assigned_spin == spin]
        strong = [coefficients[k] for k in pair if abs(coefficients[k]) > MIN_LINE_COEFFICIENT]
        if not strong:
            raise AmbiguousReadoutError(f"no signal in the spin-{spin} doublet")
        signs = {v > 0 for v in strong}
        if len(signs) > 1:
            quoted = ", ".join(f"{heights[k]:+.3g}" for k in pair)
            raise AmbiguousReadoutError(f"spin-{spin} doublet lines disagree in sign ({quoted})")
        values[spin] = 0 if signs.pop() else 1
    peaks = tuple(
        Peak(p.center_hz, v, p.assigned_spin) for p, v in zip(spec.peaks, coefficients)
    )
    return ReadoutResult(values[1], values[2], tuple(heights), peaks)


def write_spectrum_csv(path: str, spec: Spectrum) -> None:
    """CSV export (freq_hz,real,imag as shortest round-trip float reprs, CRLF
    line ends) in the spectrum's own order, ascending frequency for every
    spectrum ``detect`` returns, atomic write."""
    rows = (
        f"{f!r},{re!r},{im!r}\r\n"
        for f, re, im in zip(
            spec.freq_hz.tolist(), spec.values.real.tolist(), spec.values.imag.tolist()
        )
    )
    _write_atomic(path, "".join(["freq_hz,real,imag\r\n", *rows]))


def summary_document(experiment: str, result: ReadoutResult, fidelity: float | None = None) -> dict:
    """Per-experiment JSON document with classification and relative heights,
    the peaks in the result's order: ascending centre, as ``line_table``
    orders the lines."""
    doc = {
        "experiment": experiment,
        "qubits": [result.qubit1, result.qubit2],
        "peaks": [
            {"center_hz": float(peak.center_hz), "height_rel": float(height)}
            for peak, height in zip(result.peaks, result.line_heights)
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
    os.replace, so a failed write leaves any previous file intact.  The mode is
    open()'s, 0o666 less the umask; line ends are written as given."""
    tmp = f"{path}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
