"""Simulated NMR detection: gradient crush + observe pulse, the spectrum of
the FID, reference phasing, line integration and qubit readout.

The detected signal is s(t) = Tr(rho(t) (I1+ + I2+)) * exp(-t/T2) under free
evolution, sampled at dwell 1/spectral_width.  Each spin contributes a
doublet at nu_i +/- J/2; after phasing against a reference, a positive
absorption pair reads as qubit value 0 and a negative pair as 1.

The signal is linear in rho and has four known lines, so its spectrum (the
fftshifted DFT of the FID with its first point halved) is a combination of
four line templates, each the closed-form DFT of one damped line.  The line
basis (built by ``synthesize_fid``) holds the frequency grid and each
template's closed-form constants; it depends only on the spin system and
the acquisition.  ``detect`` takes an experiment set's states together and
renders all their spectra in one pass over cache-sized stripes, evaluating
each template's stripe once for every spectrum, with no FID, no FFT and no
full-size template.  The readout reads each line by its coefficient, which
no acquisition setting scales.
"""

from __future__ import annotations

import json
import math
import os
import secrets
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .core import IDENTITY_2, IX, IY, as_integer
from .spins import SpinSystem, energies, gradient_crush, ideal_pulse

RAISING = IX + 1j * IY  # |0><1| on one spin
OBSERVE_1 = np.kron(RAISING, IDENTITY_2)
OBSERVE_2 = np.kron(IDENTITY_2, RAISING)

# A line coefficient at or below this magnitude is no signal (reference_phase,
# classify): 4.5 times the largest |c|, 2.2e-16, that I/4 kept through the search
# programs of 2700 random valid systems, ideal and with t_p in [1e-6, 2e-4] s.
MIN_LINE_COEFFICIENT = 1e-15

# detect renders the spectra this many points at a time: four template
# stripes, one complex and one real scratch stripe come to
# 4 x 256 KiB + 256 KiB + 128 KiB = 1.375 MiB, inside a 2 MiB per-core L2
# cache, beside the output stripe each spectrum receives in turn
_STRIPE = 16384


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
    """One expected line: predicted centre, coefficient c = O_ji * rho_ij
    (complex before phasing, real after; the line integrates to c * sw / 2)
    and owner spin."""

    center_hz: float
    coefficient: complex
    assigned_spin: int


@dataclass(frozen=True)
class Spectrum:
    """Complex amplitude on a uniform frequency grid plus the expected-line
    list (coefficients still unphased as returned by detect)."""

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
    acquisition, built once for an experiment set.

    ``couplings`` lists the (i, j, O_ji) coherences the observable picks up,
    in detection order.  The template of each coherence (the fftshifted
    spectrum of its damped line with unit coefficient, see
    ``synthesize_fid``) is held in closed form, never as an N-point array:
    ``line_constants`` gives, in the same order, each line's roll p % N,
    rotation exp(i pi delta / N) and numerator 1 - a**N, and ``damping``
    the (2 exp(-gamma), -expm1(-gamma)) all four lines share.  ``grid``
    holds sin + i cos of pi q / N on the fftshifted grid q = -N/2 .. N/2 - 1
    and ``freq_hz`` the frequency of each point.  ``line_couplings`` gives,
    for each line in ``line_centers`` order, the index of its coherence in
    ``couplings``.  Every array is read-only.
    """

    system: SpinSystem
    acquisition: AcquisitionParams
    couplings: tuple[tuple[int, int, np.complex128], ...]
    line_constants: tuple[tuple[int, complex, complex], ...]
    damping: tuple[float, float]
    grid: np.ndarray
    freq_hz: np.ndarray
    line_couplings: tuple[int, ...]


def synthesize_fid(sys: SpinSystem, acq: AcquisitionParams) -> LineBasis:
    """Build the line basis the spectrum of any rho's FID is a combination of.

    The FID is linear in rho: each of the four observable coherences rho_ij
    evolves as exp(-i 2 pi (E_i - E_j) t), couples to O_ji and decays at
    rate 1/T2, so sample n of its line is a**n with
    a = exp((-i 2 pi (E_i - E_j) - 1/T2) * dwell).  With the first point
    halved, the line's N-point DFT is T[m] = (1 - a**N) / (1 - a w**m) - 1/2,
    w = exp(-i 2 pi / N).  The basis holds the grid and each line's
    constants from which ``_template_stripe`` evaluates any stretch of T
    without cancellation for any T2; it depends only on (sys, acq), so an
    experiment set builds it once.  Raises ValueError if the spectral width
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
    # a rate below the smallest normal float leaves every exp(-n gamma) at
    # 1.0, and raising it there keeps each template's denominator nonzero
    gamma = max(acq.dwell / sys.t2, np.finfo(float).tiny)
    line_constants = tuple(
        _line_constants((levels[j] - levels[i]) * acq.dwell * n, gamma, n) for i, j, _ in couplings
    )
    damping = (2 * math.exp(-gamma), -math.expm1(-gamma))
    # fftshift(fftfreq(n, dwell)) in one step: the same integers times 1/(n dwell)
    freq = np.arange(-half, half) * (1.0 / (n * acq.dwell))
    # coherence (i, j) sits at E_j - E_i; line_centers ascends in frequency too
    line_couplings = tuple(np.argsort([levels[j] - levels[i] for i, j, _ in couplings]).tolist())
    return LineBasis(
        sys, acq, couplings, line_constants, damping, _read_only(grid), _read_only(freq),
        line_couplings,
    )


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
    sys: SpinSystem,
    rhos: Sequence[np.ndarray],
    acq: AcquisitionParams,
    lines: LineBasis | None = None,
) -> tuple[Spectrum, ...]:
    """Crush gradients, fire the observe pulse and return the FID's spectrum
    for each density matrix of ``rhos``, in order (``()`` for none).

    Each spectrum is the 4-term combination of the templates of the line
    basis ``lines`` with coefficients c = O_ji * rho_ij; without ``lines``
    the basis is built for this call.  All spectra are rendered in one pass
    over ``_STRIPE``-point stripes: each template's stripe is evaluated from
    its closed form into a cache-sized buffer and added into every output,
    so no full-size template or temporary is built.  The values are
    bit-identical to the whole-array sum T0 * c0 + c1 * T1 + c2 * T2 + c3 * T3.
    Each spectrum's values are a new array of their own; every spectrum
    shares the basis's read-only frequency grid.  Each peak carries its
    line's c, which the spectral width and the grid do not scale.  Raises
    ValueError if the spectral width would alias the doublets or ``lines``
    was built for another system or acquisition.
    """
    if lines is None:
        lines = synthesize_fid(sys, acq)
    elif lines.system != sys or lines.acquisition != acq:
        raise ValueError("line basis was built for a different system or acquisition")
    u_obs = ideal_pulse("both", 90.0, acq.observe_phase)
    u_obs_dagger = u_obs.conj().T
    coefficients = []
    for rho in rhos:
        rho = u_obs @ gradient_crush(np.asarray(rho, dtype=complex)) @ u_obs_dagger
        coefficients.append([o_ji * rho[i, j] for i, j, o_ji in lines.couplings])
    if not coefficients:
        return ()
    n = acq.n_points
    size = min(n, _STRIPE)
    templates = [np.empty(size, dtype=complex) for _ in lines.couplings]
    scratch = np.empty(size, dtype=complex)
    real_scratch = np.empty(size)
    spectra = [np.empty(n, dtype=complex) for _ in coefficients]
    for start in range(0, n, size):
        for k, template in enumerate(templates):
            _template_stripe(lines, k, start, template, real_scratch)
        for values, (c0, *rest) in zip(spectra, coefficients):
            out = values[start : start + size]
            np.multiply(templates[0], c0, out=out)
            for c, template in zip(rest, templates[1:]):
                # the coefficient first, as in c * template: the operand order
                # changes the last bits of numpy's complex product
                np.multiply(c, template, out=scratch)
                out += scratch
    centers = line_centers(sys)
    return tuple(
        Spectrum(
            lines.freq_hz,
            values,
            tuple(
                Peak(center, complex(c[k]), spin)
                for (center, spin), k in zip(centers, lines.line_couplings)
            ),
        )
        for values, c in zip(spectra, coefficients)
    )


def reference_phase(ref: Spectrum) -> float:
    """Zero-order phase correction (degrees) that turns the detected lines of
    the reference into positive absorption.

    The phase is that of the summed line coefficients, which are exact, so
    every line of a common-phase reference lies on it to rounding.  Raises
    AmbiguousReadoutError when no |coefficient| exceeds ``MIN_LINE_COEFFICIENT``
    or when some line lies more than 15 degrees off that phase (a sign the
    input is not a valid reference); the message quotes the largest residue.
    """
    coefficients = np.array([p.coefficient for p in ref.peaks])
    significant = coefficients[np.abs(coefficients) > MIN_LINE_COEFFICIENT]
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
    rot = np.exp(-1j * math.radians(phase_corr))
    coefficients = np.array([(p.coefficient * rot).real for p in spec.peaks])
    scale = np.array([(p.coefficient * rot).real for p in reference.peaks])
    for p, c in zip(reference.peaks, scale):
        if abs(c) <= MIN_LINE_COEFFICIENT:
            raise AmbiguousReadoutError(f"no signal in the reference line at {p.center_hz:g} Hz")
    heights = coefficients / scale
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
        Peak(p.center_hz, float(v), p.assigned_spin)
        for p, v in zip(spec.peaks, coefficients)
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
