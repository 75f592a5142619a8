import contextlib
import csv
import dataclasses
import itertools
import json
import math
import stat
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from spinsearch import experiment, readout
from spinsearch.core import basis_state, fidelity
from spinsearch.experiment import run_experiments
from spinsearch.grover import ALL_LABELS
from spinsearch.readout import (
    AcquisitionParams,
    AmbiguousReadoutError,
    Peak,
    ReadoutResult,
    Spectrum,
    classify,
    detect,
    line_table,
    reference_phase,
    summary_document,
    synthesize_fid,
    write_spectrum_csv,
    write_summary_json,
)
from spinsearch.sequence import PropagatorTable, compile_oracle, grover_program, run_sequence
from spinsearch.spins import (
    IDEAL,
    ErrorModel,
    SpinSystem,
    gradient_crush,
    ideal_pulse,
    pseudo_pure_00,
)
from state_checks import (
    OBSERVE_1,
    OBSERVE_2,
    density_from_state,
    energies,
    search_program,
    state_00,
)

SYS = SpinSystem()
ACQ = AcquisitionParams()


def rho_basis(index):
    return density_from_state(basis_state(2, index))


def _reference_lines(sys, acq):
    """The four damped line waveforms exp(-i 2 pi (E_i - E_j) t) exp(-t/T2),
    with their couplings O_ji, for each nonzero O_ji of the observable, the
    levels E taken from the reference Hamiltonian."""
    t = np.arange(acq.n_points) * acq.dwell
    levels = energies(sys)
    observe = OBSERVE_1 + OBSERVE_2
    decay = np.exp(-t / sys.t2)
    rows, cols = np.nonzero(observe.T)
    return [
        (i, j, observe[j, i], np.exp(-2j * math.pi * (levels[i] - levels[j]) * t) * decay)
        for i, j in zip(rows, cols)
    ]


def _reference_synthesize_fid(sys, rho, acq):
    """Per-detection FID synthesis: the four damped line waveforms evaluated
    afresh for every rho (what the shared line basis replaced)."""
    fid = np.zeros(acq.n_points, dtype=complex)
    for i, j, o_ji, line in _reference_lines(sys, acq):
        # rho_ij evolves as exp(-i 2 pi (E_i - E_j) t) and couples to O_ji
        fid += o_ji * rho[i, j] * line
    return fid


def _reference_spectrum(fid):
    """The fftshifted FFT of a FID with its first point halved."""
    fid = fid.copy()
    fid[0] *= 0.5
    return np.fft.fftshift(np.fft.fft(fid))


def _reference_tolerance(n_points):
    """Bound on max |package - reference| / max |reference| for spectra.

    The FFT reference rounds each line's phase 2 pi f n dwell in float64
    with about three roundings, and since |f dwell| < 1/2 its error grows to
    about 3 pi eps n at sample n.  For a line that does not decay these
    errors add up to at most about 4.7 eps N of the line's peak N.  Over
    1500 hypothesis examples of template_configurations (T2 log-uniform up to
    1e300, lines on and off the grid, 1024 to 4096 points), the largest
    difference per template was 1.44 eps N.  Over 1500 detection_inputs it
    was 0.71 eps N per spectrum, and the 131072-point example reads
    0.10 eps N.
    """
    return 6 * np.finfo(float).eps * n_points


def _observed(rho, acq):
    """rho after the gradient crush and the observe pulse."""
    rho = gradient_crush(np.asarray(rho, dtype=complex))
    u_obs = ideal_pulse("both", 90.0, acq.observe_phase)
    return u_obs @ rho @ u_obs.conj().T


def _reference_detect(sys, rho, acq):
    """Detection with a fresh FID and frequency grid, each line integrated
    over a boolean mask of +/- 3 linewidths and its coefficient taken as the
    integral over sw/2 (the readout before exact coefficients)."""
    if acq.spectral_width <= 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j):
        raise ValueError("spectral width too small: lines would alias")
    values = _reference_spectrum(_reference_synthesize_fid(sys, _observed(rho, acq), acq))
    freq = np.fft.fftshift(np.fft.fftfreq(acq.n_points, d=acq.dwell))
    width = 1.0 / (math.pi * sys.t2)
    # a point weighs sw/N, so the window sum times sw/N over sw/2 is c
    scale = 2 / acq.n_points
    peaks = tuple(
        Peak(center, complex(np.sum(values[np.abs(freq - center) <= 3 * width]) * scale), spin)
        for center, spin, _, _ in line_table(sys)
    )
    return Spectrum(freq, values, peaks)


def _exact_coefficients(sys, rho, acq):
    """c_k = O_ji * rho_ij after the crush and the observe pulse for each line
    in line_table order, where line k is the coherence (i, j) of the
    observable nearest its centre, at E_j - E_i."""
    rho = _observed(rho, acq)
    levels = energies(sys)
    observe = OBSERVE_1 + OBSERVE_2
    rows, cols = np.nonzero(observe.T)
    lines = [(levels[j] - levels[i], observe[j, i] * rho[i, j]) for i, j in zip(rows, cols)]
    coefficients = []
    for center, *_ in line_table(sys):
        _, c = min(lines, key=lambda line: abs(line[0] - center))
        coefficients.append(complex(c))
    return coefficients


def _reference_exact_detect(sys, rho, acq):
    """_reference_detect's spectrum with the exact line coefficients."""
    spec = _reference_detect(sys, rho, acq)
    peaks = tuple(
        Peak(p.center_hz, c, p.assigned_spin)
        for p, c in zip(spec.peaks, _exact_coefficients(sys, rho, acq))
    )
    return Spectrum(spec.freq_hz, spec.values, peaks)


def _line_template(position, gamma, grid, scratch):
    """The fftshifted DFT of the line a**n, n = 0 .. N-1, first point halved,
    where a = exp(i 2 pi position / N - gamma), evaluated over the whole
    array (what detect's stripes replaced).

    With theta = pi (q - position) / N at grid point q,
    1 - a exp(-i 2 pi q / N) = -expm1(-gamma)
                               + 2 exp(-gamma) sin(theta) (sin(theta) + i cos(theta)),
    and 1 - a**N is the same with N gamma and theta = -pi delta, where
    position = p + delta, p integer and |delta| <= 1/2.  ``grid`` holds
    sin + i cos of pi q / N; rolling it by p and rotating it by pi delta / N
    gives sin(theta) + i cos(theta).  ``scratch`` is a float buffer of
    length N.
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


def _reference_templates(sys, acq):
    """The four full-size line templates on the basis's grid, in line_table
    order, each built over the whole array by _line_template at its line's
    centre nu_s +/- J/2."""
    grid = synthesize_fid(sys, acq).grid
    n = acq.n_points
    gamma = max(acq.dwell / sys.t2, np.finfo(float).tiny)
    scratch = np.empty(n)
    return [
        _line_template(center * acq.dwell * n, gamma, grid, scratch)
        for center, *_ in line_table(sys)
    ]


def _set_coefficients(sys, rhos, acq):
    """The (states, 4) array of c = rho_ij after the crush and the observe
    pulse, in line_table order, each state crushed, observed and picked on
    its own: the per-state loop that detect's stacked pass replaced."""
    coherences = [(i, j) for _, _, i, j in line_table(sys)]
    observed = [_observed(rho, acq) for rho in rhos]
    return np.array([[rho[i, j] for i, j in coherences] for rho in observed])


def _reference_combinations(sys, rhos, acq):
    """detect's values for each rho as the whole-array product of the
    coefficient matrix and the four full-size templates (what the stripe
    pass replaced)."""
    return list(_set_coefficients(sys, rhos, acq) @ np.stack(_reference_templates(sys, acq)))


def _reference_elementwise_combinations(sys, rhos, acq):
    """Each rho's values as elementwise products of full-size templates (what
    the matrix product replaced): T0 * c0, then c * T added for each other
    template."""
    templates = _reference_templates(sys, acq)
    combinations = []
    for coefficients in _set_coefficients(sys, rhos, acq):
        values = np.multiply(templates[0], coefficients[0])
        for c, template in zip(coefficients[1:], templates[1:]):
            values += c * template
        combinations.append(values)
    return combinations


def _gamma(roundings):
    """gamma_n = n u / (1 - n u), u = eps / 2: the largest relative error of
    a float64 result that passed through n roundings."""
    u = np.finfo(float).eps / 2
    return roundings * u / (1 - roundings * u)


def _reference_write_summary_json(path, documents):
    """The json.dump export that write_summary_json must match byte for byte."""
    with open(path, "w") as fh:
        json.dump(documents, fh, indent=2)
        fh.write("\n")


def _reference_write_spectrum_csv(path, spec):
    """The csv.writer export that write_spectrum_csv must match byte for byte."""
    order = np.argsort(spec.freq_hz)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["freq_hz", "real", "imag"])
        for idx in order:
            writer.writerow(
                [repr(float(spec.freq_hz[idx])),
                 repr(float(spec.values[idx].real)),
                 repr(float(spec.values[idx].imag))]
            )


def _reference_experiments(sys, acq, epsilon, err):
    """run_experiments with every detection made by _reference_exact_detect:
    (reference spectrum, phase, reference result, [(spectrum, result, fidelity)])."""
    ref_spec = _reference_exact_detect(sys, state_00(), acq)
    phase = reference_phase(ref_spec)
    ref_result = classify(ref_spec, phase, ref_spec)
    table = PropagatorTable(sys, err)
    runs = []
    for label in ALL_LABELS:
        rho = run_sequence(table, search_program(label, sys), pseudo_pure_00(epsilon))
        spec = _reference_exact_detect(sys, rho, acq)
        result = classify(spec, phase, ref_spec)
        runs.append((spec, result, fidelity(basis_state(2, label.index), rho)))
    return ref_spec, phase, ref_result, runs


def _reference_classify(spec, phase_corr, ref_coefficients=None):
    """The earlier two-rule calibration that classify must match: heights
    over ``ref_coefficients`` (the reference's phased coefficients, as the
    caller read them off the reference's own result) or, without them, over
    this spectrum's mean line magnitude, which is how the reference was
    read."""
    rot = np.exp(-1j * math.radians(phase_corr))
    coefficients = np.array([(p.coefficient * rot).real for p in spec.peaks])
    if ref_coefficients is not None:
        scale = np.asarray(ref_coefficients, dtype=float)
        if scale.shape != coefficients.shape or float(np.min(np.abs(scale))) <= 0:
            raise ValueError("reference coefficients must be four nonzero reals")
        heights = coefficients / scale
    else:
        mean_mag = float(np.mean(np.abs(coefficients)))
        heights = coefficients / mean_mag if mean_mag > 0 else coefficients
    values = {}
    for spin in (1, 2):
        pair = [k for k, p in enumerate(spec.peaks) if p.assigned_spin == spin]
        strong = [
            coefficients[k] for k in pair if abs(coefficients[k]) > readout.MIN_LINE_COEFFICIENT
        ]
        if not strong:
            raise AmbiguousReadoutError(f"no signal in the spin-{spin} doublet")
        signs = {v > 0 for v in strong}
        if len(signs) > 1:
            quoted = ", ".join(f"{heights[k]:+.3g}" for k in pair)
            raise AmbiguousReadoutError(f"spin-{spin} doublet lines disagree in sign ({quoted})")
        values[spin] = 0 if signs.pop() else 1
    peaks = tuple(
        Peak(p.center_hz, float(v), p.assigned_spin) for p, v in zip(spec.peaks, coefficients)
    )
    return ReadoutResult(values[1], values[2], tuple(float(h) for h in heights), peaks)


def _reference_numpy_phase(ref):
    """reference_phase on a numpy array of the four coefficients (what the
    scalar form replaced)."""
    coefficients = np.array([p.coefficient for p in ref.peaks])
    significant = coefficients[np.abs(coefficients) > readout.MIN_LINE_COEFFICIENT]
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


def _reference_numpy_classify(spec, phase_corr, reference):
    """classify on numpy arrays of the four phased coefficients (what the
    scalar form replaced)."""
    rot = np.exp(-1j * math.radians(phase_corr))
    coefficients = np.array([(p.coefficient * rot).real for p in spec.peaks])
    scale = np.array([(p.coefficient * rot).real for p in reference.peaks])
    for p, c in zip(reference.peaks, scale):
        if abs(c) <= readout.MIN_LINE_COEFFICIENT:
            raise AmbiguousReadoutError(f"no signal in the reference line at {p.center_hz:g} Hz")
    heights = coefficients / scale
    values = {}
    for spin in (1, 2):
        pair = [k for k, p in enumerate(spec.peaks) if p.assigned_spin == spin]
        strong = [
            coefficients[k] for k in pair if abs(coefficients[k]) > readout.MIN_LINE_COEFFICIENT
        ]
        if not strong:
            raise AmbiguousReadoutError(f"no signal in the spin-{spin} doublet")
        signs = {v > 0 for v in strong}
        if len(signs) > 1:
            quoted = ", ".join(f"{heights[k]:+.3g}" for k in pair)
            raise AmbiguousReadoutError(f"spin-{spin} doublet lines disagree in sign ({quoted})")
        values[spin] = 0 if signs.pop() else 1
    peaks = tuple(
        Peak(p.center_hz, float(v), p.assigned_spin) for p, v in zip(spec.peaks, coefficients)
    )
    return ReadoutResult(values[1], values[2], tuple(float(h) for h in heights), peaks)


def _readout_bits(read, *args):
    """A readout's outcome with every float as its hex digits, so equal
    outcomes agree bit for bit: the bits, heights and phased peaks, or the
    ambiguous-readout message."""
    try:
        result = read(*args)
    except AmbiguousReadoutError as exc:
        return str(exc)
    return (
        result.qubits,
        tuple(float(h).hex() for h in result.line_heights),
        tuple(
            (p.center_hz.hex(), float(p.coefficient).hex(), p.assigned_spin) for p in result.peaks
        ),
    )


def _assert_same_grid_and_peaks(actual, expected):
    assert np.array_equal(actual.freq_hz, expected.freq_hz)
    assert len(actual.peaks) == len(expected.peaks) == 4
    for got, want in zip(actual.peaks, expected.peaks):
        assert got.center_hz == want.center_hz
        assert got.coefficient == want.coefficient
        assert got.assigned_spin == want.assigned_spin


def _assert_identical_spectra(actual, expected):
    """Two spectra of the package agree bit for bit."""
    assert np.array_equal(actual.values, expected.values)
    _assert_same_grid_and_peaks(actual, expected)


def _assert_matches_reference(actual, reference):
    """A package spectrum against the FFT reference: the grid and every peak
    exactly, the values within _reference_tolerance of max |reference|."""
    difference = float(np.max(np.abs(actual.values - reference.values)))
    scale = float(np.max(np.abs(reference.values)))
    assert difference <= _reference_tolerance(len(reference.values)) * scale
    _assert_same_grid_and_peaks(actual, reference)


@st.composite
def configurations(draw, j_max, t2_max):
    """A validated spin system (J up to j_max, T2 up to t2_max) and a
    non-aliasing acquisition at 1024 to 4096 points."""
    j = draw(st.floats(0.5, j_max))
    nu1 = draw(st.floats(-200.0, 200.0))
    nu2 = nu1 + draw(st.sampled_from([-1.0, 1.0])) * j * draw(st.floats(10.01, 40.0))
    sys = SpinSystem(nu1=nu1, nu2=nu2, j=j, t2=draw(st.floats(0.05, t2_max)))
    limit = 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j)
    acq = AcquisitionParams(
        spectral_width=limit * draw(st.floats(1.0001, 4.0)),
        n_points=draw(st.sampled_from([1024, 2048, 4096])),
        observe_phase=draw(st.floats(0.0, 360.0, exclude_max=True)),
    )
    return sys, acq


@st.composite
def template_configurations(draw):
    """A validated, non-aliasing configuration with T2 log-uniform in
    [0.05, 1e300] s and its lines either on grid points or anywhere."""
    t2 = 10 ** draw(st.floats(math.log10(0.05), 300.0))
    if draw(st.booleans()):
        sys, acq = draw(configurations(j_max=20.0, t2_max=10.0))
        return dataclasses.replace(sys, t2=t2), acq
    # offsets b * r and J = 2 k r put every line at (b +/- k) r, r = sw / N
    n_points = draw(st.sampled_from([1024, 2048, 4096]))
    acq = AcquisitionParams(
        spectral_width=draw(st.sampled_from([512.0, 600.0, 1024.0])), n_points=n_points
    )
    r = acq.resolution
    k = draw(st.integers(1, 8))
    b1 = draw(st.integers(-n_points // 4, n_points // 4))
    separation = draw(st.integers(20 * k + 1, 20 * k + n_points // 4))
    b2 = b1 - separation if b1 >= 0 else b1 + separation
    sys = SpinSystem(nu1=b1 * r, nu2=b2 * r, j=2 * k * r, t2=t2)
    assert all((center / r).is_integer() for center, *_ in line_table(sys))
    return sys, acq


def _log_uniform(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda x: 10**x)


@st.composite
def accepted_configurations(draw):
    """Any system ``SpinSystem`` accepts, with a non-aliasing acquisition at
    1024 to 4096 points: J, the gap |nu1 - nu2| - 10 J and T2 log-uniform in
    [1e-300, 1e300] (the gap no smaller than 1e-15 of 10 J, below which
    10 J + gap rounds to 10 J), nu1 zero or of either sign up to 1e12 times
    the separation (and 1e300), and a width 1.0001 to 1e4 times the
    aliasing limit."""
    j = draw(_log_uniform(-300.0, 300.0))
    separation = 10 * j + draw(_log_uniform(max(-300.0, math.log10(10 * j) - 15.0), 300.0))
    reach = min(300.0, math.log10(separation) + 12.0)
    nu1 = draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(_log_uniform(-300.0, reach))
    try:
        sys = SpinSystem(
            nu1=nu1,
            nu2=nu1 - draw(st.sampled_from([-1.0, 1.0])) * separation,
            j=j,
            t2=draw(_log_uniform(-300.0, 300.0)),
        )
    except ValueError:  # the gap was lost in rounding 10 J + gap or nu1 - separation
        assume(False)
    limit = 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j)
    acq = AcquisitionParams(
        spectral_width=limit * draw(_log_uniform(math.log10(1.0001), 4.0)),
        n_points=draw(st.sampled_from([1024, 2048, 4096])),
        observe_phase=draw(st.floats(0.0, 360.0, exclude_max=True)),
    )
    return sys, acq


def _wide_offsets(r):
    """nu = +-7r Hz, J = 7 Hz and a 30r Hz width at 1024 points."""
    return SpinSystem(nu1=7 * r, nu2=-7 * r, j=7.0), AcquisitionParams(30 * r, 1024)


FAR_APART = (
    SpinSystem(nu1=1e300, nu2=-1e300, j=1e-10),
    AcquisitionParams(spectral_width=1e301, n_points=1024),
)


def error_models():
    """Ideal pulses, or soft pulses with t_p log-uniform in [1e-6, 2e-4] s."""
    soft = st.floats(-6.0, math.log10(2e-4)).map(lambda x: ErrorModel("soft-pulse", 10**x))
    return st.one_of(st.just(IDEAL), soft)


@st.composite
def states(draw):
    """A random Hermitian unit-trace rho."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    a = (parts[:16] + 1j * parts[16:]).reshape(4, 4)
    h = a + a.conj().T
    trace = float(np.trace(h).real)
    assume(abs(trace) > 0.1)
    return h / trace


@st.composite
def detection_inputs(draw):
    """A validated spin system, a non-aliasing acquisition and a random
    Hermitian unit-trace rho."""
    sys, acq = draw(configurations(j_max=10.0, t2_max=20.0))
    return sys, acq, draw(states())


class TestAcquisitionParams:
    def test_defaults(self):
        assert ACQ.dwell == pytest.approx(1 / 512)
        assert ACQ.resolution == pytest.approx(0.125)

    @pytest.mark.parametrize(
        "n", [512, 1000, 4095, 4096.0, 4096.5, "4096", 2**21, 2**40, np.int64(2**62)]
    )
    def test_n_points_validation(self, n):
        with pytest.raises(ValueError):
            AcquisitionParams(n_points=n)

    def test_n_points_limit_is_named(self):
        assert readout.MAX_POINTS == 2**20
        with pytest.raises(ValueError, match="n_points must be at most 1048576 "):
            AcquisitionParams(n_points=2**40)

    @pytest.mark.parametrize(
        "n", [4096, np.int64(4096), np.int32(1024), np.uint16(2048), 2**17, 2**20]
    )
    def test_integer_n_points_accepted(self, n):
        acq = AcquisitionParams(n_points=n)
        assert acq.n_points == n
        assert type(acq.n_points) is int

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="alias"):
            detect(SYS, [state_00()], AcquisitionParams(spectral_width=128.0, n_points=1024))

    @pytest.mark.parametrize("field", ["spectral_width", "observe_phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            AcquisitionParams(**{field: value})


class TestDetect:
    def test_reference_has_four_same_sign_lines(self):
        spec = detect(SYS, [state_00()], ACQ)[0]
        assert len(spec.peaks) == 4
        phases = [np.angle(p.coefficient) for p in spec.peaks]
        # all four lines share the observe phase
        spread = np.degrees(np.max(np.abs(np.angle(np.exp(1j * (np.array(phases) - phases[0]))))))
        assert spread <= 15.0
        centers = [p.center_hz for p in spec.peaks]
        assert centers == sorted(centers)
        expected = sorted([SYS.nu1 - SYS.j / 2, SYS.nu1 + SYS.j / 2,
                           SYS.nu2 - SYS.j / 2, SYS.nu2 + SYS.j / 2])
        assert np.allclose(centers, expected, atol=1e-12)

    def test_maximally_mixed_is_silent(self):
        spec = detect(SYS, [np.eye(4, dtype=complex) / 4], ACQ)[0]
        assert float(np.max(np.abs(spec.values))) <= 1e-10

    def test_01_state_has_opposite_doublets(self):
        spec = detect(SYS, [rho_basis(1)], ACQ)[0]
        phase = reference_phase(detect(SYS, [state_00()], ACQ)[0])
        rot = np.exp(-1j * math.radians(phase))
        spin1 = [float((p.coefficient * rot).real) for p in spec.peaks if p.assigned_spin == 1]
        spin2 = [float((p.coefficient * rot).real) for p in spec.peaks if p.assigned_spin == 2]
        assert all(v > 0 for v in spin1)
        assert all(v < 0 for v in spin2)

    def test_doublet_positions_within_one_grid_step(self):
        spec = detect(SYS, [state_00()], ACQ)[0]
        magnitude = np.abs(spec.values)
        for center, *_ in line_table(SYS):
            window = np.abs(spec.freq_hz - center) <= 3.0
            local = np.where(window)[0]
            peak_idx = local[np.argmax(magnitude[local])]
            assert abs(spec.freq_hz[peak_idx] - center) <= ACQ.resolution

    def test_linewidth_close_to_lorentzian_fwhm(self):
        sys = SpinSystem(t2=2.0)
        acq = AcquisitionParams(spectral_width=512.0, n_points=65536)
        spec = detect(sys, [state_00()], acq)[0]
        phase = reference_phase(spec)
        absorption = (spec.values * np.exp(-1j * math.radians(phase))).real
        center = sys.nu1 + sys.j / 2
        window = np.abs(spec.freq_hz - center) <= 1.5
        idx = np.where(window)[0]
        prof = absorption[idx]
        top = float(np.max(prof))
        above = spec.freq_hz[idx][prof >= top / 2]
        fwhm = float(above[-1] - above[0])
        assert fwhm == pytest.approx(1 / (math.pi * sys.t2), rel=0.2)

    @given(st.floats(0.05, 0.95, allow_nan=False))
    def test_linearity(self, alpha):
        rho_a = rho_basis(0)
        rho_b = rho_basis(2)
        blended = detect(SYS, [alpha * rho_a + (1 - alpha) * rho_b], ACQ)[0]
        separate = alpha * detect(SYS, [rho_a], ACQ)[0].values + (1 - alpha) * detect(
            SYS, [rho_b], ACQ
        )[0].values
        assert float(np.max(np.abs(blended.values - separate))) <= 1e-10


class TestLineBasis:
    @given(detection_inputs())
    def test_detect_matches_per_detection_reference(self, inputs):
        sys, acq, rho = inputs
        actual = detect(sys, [rho], acq)[0]
        _assert_matches_reference(actual, _reference_exact_detect(sys, rho, acq))

    @pytest.mark.parametrize(
        "err, acq",
        [
            (IDEAL, ACQ),
            (ErrorModel("soft-pulse", 1e-4), ACQ),
            (IDEAL, AcquisitionParams(n_points=1024, observe_phase=37.0)),
            (ErrorModel("soft-pulse", 2e-4), AcquisitionParams(n_points=2048, observe_phase=213.0)),
        ],
        ids=["ideal", "soft", "ideal-1024-phase37", "soft-2048-phase213"],
    )
    def test_experiment_set_matches_per_detection_reference(self, err, acq):
        out = run_experiments(SYS, acq, 0.37, err)
        ref_spec, phase, ref_result, runs = _reference_experiments(SYS, acq, 0.37, err)
        assert out.phase_deg == phase
        _assert_matches_reference(out.reference_spectrum, ref_spec)
        assert out.reference_result == ref_result
        assert len(out.runs) == len(runs)
        for run, (spec, result, fid) in zip(out.runs, runs):
            _assert_matches_reference(run.spectrum, spec)
            assert run.result == result
            assert run.fidelity == fid

    @given(detection_inputs(), st.lists(states(), max_size=3))
    def test_stripes_equal_whole_array_combination(self, inputs, others):
        sys, acq, rho = inputs
        rhos = [rho, *others]
        spectra = detect(sys, rhos, acq)
        assert len(spectra) == len(rhos)
        for spec, values in zip(spectra, _reference_combinations(sys, rhos, acq)):
            assert np.array_equal(spec.values, values)

    @given(detection_inputs(), st.lists(states(), max_size=3))
    def test_render_within_rounding_of_elementwise_sum(self, inputs, others):
        # Each part (real or imaginary) of sum_k c_k T_k is a dot product of
        # eight real terms whose magnitudes add up to at most
        # S = sum_k |c_k| |T_k| (Cauchy-Schwarz on each complex product).  The
        # elementwise sum rounds a term at most 5 times (the product, the
        # difference inside the complex product, three additions); a BLAS
        # kernel, in any order and with or without fused multiply-adds, at
        # most 8.  Both start from the same template bits.
        sys, acq, rho = inputs
        rhos = [rho, *others]
        templates = np.stack(_reference_templates(sys, acq))
        sizes = np.abs(_set_coefficients(sys, rhos, acq)) @ np.abs(templates)
        elementwise = _reference_elementwise_combinations(sys, rhos, acq)
        for spec, values, size in zip(detect(sys, rhos, acq), elementwise, sizes):
            bound = (_gamma(5) + _gamma(8)) * size
            assert np.all(np.abs(spec.values.real - values.real) <= bound)
            assert np.all(np.abs(spec.values.imag - values.imag) <= bound)

    @given(detection_inputs(), st.lists(states(), max_size=3))
    @example(
        (
            SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=4.0),
            AcquisitionParams(spectral_width=1024.0, n_points=131072, observe_phase=37.0),
            state_00(),
        ),
        [rho_basis(1), rho_basis(2), rho_basis(3), np.eye(4, dtype=complex) / 4],
    )
    def test_each_spectrum_sums_to_its_line_coefficients(self, inputs, others):
        # A template sums to N/2, so a spectrum sums to (N/2) sum_k c_k.  Per
        # part, a computed template point is within 12 roundings of the exact
        # one, relative to |T| + 1/2 (the quotient before the half is taken
        # off); the render adds 8 (see above) and numpy's pairwise sum
        # 16 + 3 + log2(N / 128) (eight accumulators over blocks of 128
        # points, then halving).  A stripe left unwritten, or written over
        # another stripe or into another spectrum's row, moves the sum far
        # past this.
        sys, acq, rho = inputs
        rhos = [rho, *others]
        n = acq.n_points
        sizes = np.abs(np.stack(_reference_templates(sys, acq))).sum(axis=1) + n / 2
        weights = np.abs(_set_coefficients(sys, rhos, acq)) @ sizes
        spectra = detect(sys, rhos, acq)
        assert len(spectra) == len(rhos)
        for spec, weight in zip(spectra, weights):
            expected = n / 2 * sum(p.coefficient for p in spec.peaks)
            total = np.sum(spec.values)
            bound = _gamma(12 + 8 + 16 + 3 + int(math.log2(n // 128))) * weight
            assert abs(total.real - expected.real) <= bound
            assert abs(total.imag - expected.imag) <= bound

    @pytest.mark.parametrize("n_points", [16384, 32768, 131072], ids=["1", "2", "8"])
    def test_stripes_equal_whole_array_combination_at_high_resolution(self, n_points):
        # 1, 2 and 8 stripes, where every line's roll wraps inside a stripe;
        # three states a call and two calls in a row, so a stripe left
        # unwritten cannot hold the right values by chance
        sys = SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=4.0)
        acq = AcquisitionParams(spectral_width=1024.0, n_points=n_points, observe_phase=37.0)
        constants = synthesize_fid(sys, acq).line_constants
        assert all(shift % readout._STRIPE for shift, _, _ in constants)
        rng = np.random.default_rng(n_points)
        for _ in range(2):
            rhos = []
            for _ in range(3):
                a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
                rhos.append((a + a.conj().T) / (2 * np.trace(a).real))
            references = _reference_combinations(sys, rhos, acq)
            for spec, values in zip(detect(sys, rhos, acq), references):
                assert np.array_equal(spec.values, values)

    @given(detection_inputs(), st.lists(states(), min_size=1, max_size=3), st.data())
    def test_states_read_together_as_one_at_a_time_in_any_order(self, inputs, others, data):
        sys, acq, rho = inputs
        rhos = [rho, *others]
        alone = [detect(sys, [state], acq)[0] for state in rhos]
        order = data.draw(st.permutations(range(len(rhos))))
        together = detect(sys, [rhos[k] for k in order], acq)
        assert len(together) == len(rhos)
        for spec, k in zip(together, order):
            _assert_identical_spectra(spec, alone[k])

    def test_no_states_give_no_spectra(self):
        assert detect(SYS, [], ACQ) == ()

    def test_detect_leaves_basis_unchanged(self):
        first = detect(SYS, [rho_basis(0), rho_basis(3)], ACQ)
        kept = [spec.values.copy() for spec in first]
        second = detect(SYS, [rho_basis(1), rho_basis(2), rho_basis(1)], ACQ)
        for spec, values in zip(first, kept):
            assert np.array_equal(spec.values, values)
        spectra = [*first, *second]
        for one, other in itertools.combinations(spectra, 2):
            assert not np.shares_memory(one.values, other.values)
        axis = synthesize_fid(SYS, ACQ).freq_hz
        for spec in spectra:
            assert np.array_equal(spec.freq_hz, axis)
            assert not np.shares_memory(spec.values, spec.freq_hz)

    def test_experiment_set_builds_one_basis(self, monkeypatch):
        # readout.synthesize_fid_ms times this one build per set
        calls = []

        def counting(sys, acq):
            calls.append((sys, acq))
            return synthesize_fid(sys, acq)

        monkeypatch.setattr(readout, "synthesize_fid", counting)
        run_experiments(SYS, ACQ)
        assert calls == [(SYS, ACQ)]
        run_experiments(SYS, ACQ, 0.5, ErrorModel("soft-pulse", 1e-4))
        assert calls == [(SYS, ACQ)] * 2

    def test_shared_arrays_are_read_only(self):
        lines = synthesize_fid(SYS, ACQ)
        assert len(lines.line_constants) == 4
        arrays = [
            getattr(lines, f.name)
            for f in dataclasses.fields(lines)
            if isinstance(getattr(lines, f.name), np.ndarray)
        ]
        assert len(arrays) == 2  # the grid and the frequency axis
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        out = run_experiments(SYS, ACQ)
        spectra = [out.reference_spectrum] + [run.spectrum for run in out.runs]
        assert all(spec.freq_hz is spectra[0].freq_hz for spec in spectra)
        with pytest.raises(ValueError):
            spectra[0].freq_hz[0] = 0.0

    def test_experiment_set_allocates_no_full_size_template(self):
        # tracemalloc counts allocated bytes, which do not depend on the host.
        # At its peak a 131072-point set holds its block of five spectra, the
        # frequency axis, the grid and detect's stripe buffers (four template
        # stripes and one real scratch stripe); the bound adds one more
        # axis-sized block for the largest transient, the integer arange
        # behind the axis.  One full-size template (16 N bytes) more would
        # not fit.
        sys = SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=4.0)
        acq = AcquisitionParams(spectral_width=1024.0, n_points=131072)
        n, stripe = acq.n_points, readout._STRIPE
        spectra = 5 * 16 * n
        axis = 8 * n
        grid = 16 * n
        buffers = 4 * 16 * stripe + 8 * stripe
        transient = 8 * n
        bound = spectra + axis + grid + buffers + transient
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline, _ = tracemalloc.get_traced_memory()
            run_experiments(sys, acq)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - baseline <= bound


class TestLineTable:
    @given(st.one_of(configurations(j_max=20.0, t2_max=10.0), accepted_configurations()))
    @example((SYS, ACQ))
    @example((SpinSystem(nu1=-80.0, nu2=80.0, j=7.0), ACQ))
    @example(FAR_APART)
    def test_rows_are_the_observed_coherences_of_the_hamiltonian(self, config):
        # each row's centre is the level difference E_j - E_i of the
        # reference Hamiltonian (not E_i - E_j), within the roundings of
        # the levels and the centre: that pins the sign of nu_s +/- J/2
        sys, _ = config
        levels = energies(sys)
        observe = OBSERVE_1 + OBSERVE_2
        rows = line_table(sys)
        coherences = [(int(i), int(j)) for i, j in zip(*np.nonzero(observe.T))]
        assert sorted((i, j) for _, _, i, j in rows) == coherences
        rounding = 4 * np.finfo(float).eps * (abs(sys.nu1) + abs(sys.nu2) + sys.j)
        for center, spin, i, j in rows:
            assert observe[j, i] == 1
            # the owner is the bit i and j differ in (the first spin is the
            # most significant), in |1> in i and in |0> in j
            owner = 2 if spin == 1 else 1
            assert i ^ j == owner and i & owner
            # the side is the spectator's m, the same in i and j
            m = -0.5 if i & (3 - owner) else 0.5
            assert center == (sys.nu1 if spin == 1 else sys.nu2) + m * sys.j
            assert abs(center - (levels[j] - levels[i])) <= rounding
        centers = [center for center, *_ in rows]
        assert centers == sorted(centers)

    @given(st.one_of(configurations(j_max=20.0, t2_max=10.0), accepted_configurations()))
    @example((SYS, ACQ))
    @example(FAR_APART)
    @example((SpinSystem(nu1=7e16, nu2=-7e16, j=7.0), AcquisitionParams(3e17, 1024)))
    def test_grid_ascends_and_peaks_follow_the_table(self, config):
        # the exports write the grid and the peaks in this order unsorted,
        # also where the centres nu +/- J/2 tie (FAR_APART); line_table
        # ascends (test_rows_are_the_observed_coherences_of_the_hamiltonian)
        sys, acq = config
        spec = detect(sys, [state_00()], acq)[0]
        assert np.all(np.diff(spec.freq_hz) > 0)
        assert [(p.center_hz, p.assigned_spin) for p in spec.peaks] == [
            (center, spin) for center, spin, _, _ in line_table(sys)
        ]

    def test_basis_and_peaks_read_the_table(self):
        table = line_table(SYS)
        assert synthesize_fid(SYS, ACQ).lines == table
        assert [(p.center_hz, p.assigned_spin) for p in detect(SYS, [state_00()], ACQ)[0].peaks] == [
            (center, spin) for center, spin, _, _ in table
        ]


class TestStackedPass:
    @given(
        detection_inputs(),
        st.lists(states(), max_size=6),
        st.floats(-360.0, 360.0),
    )
    def test_stacked_pass_reads_as_the_per_state_loop(self, inputs, others, phase):
        # the coefficients are the per-state loop's bit for bit, and the
        # scalar verdicts are the numpy ones: equal heights (as hex digits)
        # and equal messages for every spectrum read against the first at
        # the same phase, and for every spectrum read as a reference; the
        # reference phases agree to the last bits of two implementations of
        # atan2 (numpy's SIMD one differs from libm's on some CPUs)
        sys, acq, rho = inputs
        rhos = [rho, *others]
        spectra = detect(sys, rhos, acq)
        coefficients = np.array([[p.coefficient for p in spec.peaks] for spec in spectra])
        assert coefficients.tobytes() == _set_coefficients(sys, rhos, acq).tobytes()
        reference = spectra[0]
        for spec in spectra:
            assert _readout_bits(classify, spec, phase, reference) == _readout_bits(
                _reference_numpy_classify, spec, phase, reference
            )
            try:
                expected = _reference_numpy_phase(spec)
            except AmbiguousReadoutError as exc:
                with pytest.raises(AmbiguousReadoutError) as raised:
                    reference_phase(spec)
                assert str(raised.value) == str(exc)
                continue
            # the same sum, so only atan2 and its conversion to degrees may
            # differ, by an ulp or two of 180
            difference = reference_phase(spec) - expected
            assert abs(difference) <= 4 * np.finfo(float).eps * 180.0


class TestFrequencyGrid:
    @pytest.mark.parametrize("n_points", [2**k for k in range(10, 18)])
    @pytest.mark.parametrize("spectral_width", [512.0, 600.0, 1024.0, 3000.7])
    def test_grid_equals_shifted_fftfreq(self, n_points, spectral_width):
        acq = AcquisitionParams(spectral_width=spectral_width, n_points=n_points)
        reference = np.fft.fftshift(np.fft.fftfreq(n_points, d=acq.dwell))
        assert np.array_equal(synthesize_fid(SYS, acq).freq_hz, reference)


class TestLineTemplates:
    @given(template_configurations())
    @example((SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=1e300),
              AcquisitionParams(spectral_width=1024.0, n_points=131072)))
    def test_templates_match_fft_reference(self, config):
        sys, acq = config
        # the FFT of each line sampled at its table centre nu_s +/- J/2
        t = np.arange(acq.n_points) * acq.dwell
        decay = np.exp(-t / sys.t2)
        templates = _reference_templates(sys, acq)
        for template, (center, *_) in zip(templates, line_table(sys)):
            reference = _reference_spectrum(np.exp(2j * math.pi * center * t) * decay)
            difference = float(np.max(np.abs(template - reference)))
            scale = float(np.max(np.abs(reference)))
            assert difference <= _reference_tolerance(acq.n_points) * scale


class TestLineIntegrals:
    @given(detection_inputs())
    def test_each_line_integrates_to_half_the_spectral_width(self, inputs):
        sys, acq, _ = inputs
        # a template sums to N/2, so its line integrates to sw/2
        for template in _reference_templates(sys, acq):
            total = np.sum(template)
            assert abs(total - acq.n_points / 2) <= 1e-12 * acq.n_points / 2

    @given(detection_inputs())
    def test_spectrum_integrates_to_its_line_integrals(self, inputs):
        sys, acq, rho = inputs
        spec = detect(sys, [rho], acq)[0]
        # line k integrates to c_k * sw / 2
        integrals = [p.coefficient * acq.spectral_width / 2 for p in spec.peaks]
        # relative to the summed line magnitudes, which lines of opposite
        # sign cannot cancel
        scale = sum(abs(integral) for integral in integrals)
        assert abs(np.sum(spec.values) * acq.resolution - sum(integrals)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "sys, acq",
        [
            (SYS, ACQ),
            (SYS, AcquisitionParams(n_points=1024)),
            (SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=4.0),
             AcquisitionParams(spectral_width=1024.0, n_points=131072)),
        ],
        ids=["default", "1024", "131072"],
    )
    def test_window_sums_agree_with_exact_integrals_on_grid(self, sys, acq):
        assert all((center / acq.resolution).is_integer() for center, *_ in line_table(sys))
        rot = np.exp(-1j * math.radians(reference_phase(detect(sys, [state_00()], acq)[0])))
        for index in range(4):
            windowed = _reference_detect(sys, rho_basis(index), acq).peaks
            for window, exact in zip(windowed, detect(sys, [rho_basis(index)], acq)[0].peaks):
                assert (window.coefficient * rot).real * (exact.coefficient * rot).real > 0
                residue = abs(math.degrees(np.angle(window.coefficient / exact.coefficient)))
                assert residue <= 15.0

    @given(
        st.one_of(configurations(j_max=20.0, t2_max=10.0), accepted_configurations()),
        st.floats(0.05, 1.0, exclude_min=True),
    )
    @example(_wide_offsets(1e14), 1.0)
    @example(_wide_offsets(1e15), 1.0)
    @example(_wide_offsets(1e16), 1.0)
    @example(FAR_APART, 1.0)
    def test_every_accepted_configuration_reads_all_labels(self, config, epsilon):
        # free evolution keeps J's phase apart from the offsets', so the echo
        # cancels any offset, and no phase that overflows raises a warning
        sys, acq = config
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = run_experiments(sys, acq, epsilon)
        assert out.reference_result.qubits == (0, 0)
        for run in out.runs:
            bits = (run.label.a, run.label.b)
            assert run.result.qubits == bits
            for height, peak in zip(run.result.line_heights, run.result.peaks):
                expected = -epsilon if bits[peak.assigned_spin - 1] else epsilon
                assert abs(height - expected) <= 1e-6

    @given(accepted_configurations(), error_models(), st.floats(0.05, 1.0, exclude_min=True))
    @example(FAR_APART, ErrorModel("soft-pulse", 2e-4), 1.0)
    @example(_wide_offsets(1e16), ErrorModel("soft-pulse", 1e-6), 1.0)
    def test_no_accepted_run_ends_in_a_numerical_error(self, config, err, epsilon):
        # soft pulses may blur a readout into ambiguity, which is physics;
        # no other error and no RuntimeWarning may end a run
        sys, acq = config
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                run_experiments(sys, acq, epsilon, err)
            except AmbiguousReadoutError:
                assert err is not IDEAL

    @given(configurations(j_max=20.0, t2_max=10.0), error_models())
    def test_maximally_mixed_state_stays_under_the_no_signal_floor(self, config, err):
        # MIN_LINE_COEFFICIENT was set at 4.5 times the largest |c| that I/4
        # kept through the search programs; at twice that rounding floor a
        # line above the floor still has the sign of its signal
        sys, acq = config
        oracles = {label: compile_oracle(label, sys) for label in ALL_LABELS}
        table = PropagatorTable(sys, err)
        for label in ALL_LABELS:
            rho = run_sequence(table, grover_program(label, oracles), np.eye(4) / 4)
            for peak in detect(sys, [rho], acq)[0].peaks:
                assert abs(peak.coefficient) <= readout.MIN_LINE_COEFFICIENT / 2

    @given(
        configurations(j_max=20.0, t2_max=10.0),
        error_models(),
        st.floats(-17.0, 0.0).map(lambda x: 10**x),
        st.lists(
            st.tuples(st.floats(1.0, 1e4), st.sampled_from([1024, 2048, 4096])),
            min_size=1, max_size=3,
        ),
    )
    @example(
        (SYS, AcquisitionParams(spectral_width=512.0, n_points=1024)), IDEAL, 1e-12,
        [(2.0, 1024), (8.0, 1024)],
    )
    @example(
        (SYS, AcquisitionParams(spectral_width=65536.0, n_points=1024)),
        ErrorModel("soft-pulse", 1e-4), 1e-15, [(16.0, 1024)],
    )
    def test_readout_verdict_is_the_same_at_every_spectral_width(
        self, config, err, epsilon, widenings
    ):
        # the no-signal floor applies to line coefficients, which neither the
        # spectral width nor the number of points scales; widening the
        # configuration's own width keeps every acquisition non-aliasing
        sys, acq = config
        verdicts = set()
        for factor, n_points in [(1.0, acq.n_points), *widenings]:
            wider = dataclasses.replace(
                acq, spectral_width=acq.spectral_width * factor, n_points=n_points
            )
            try:
                runs = run_experiments(sys, wider, epsilon, err).runs
                verdicts.add(tuple(run.result.qubits for run in runs))
            except AmbiguousReadoutError:
                verdicts.add(None)
        assert len(verdicts) == 1


class TestReferencePhase:
    def test_absorption_reference_is_zero(self):
        spec = detect(SYS, [state_00()], AcquisitionParams(observe_phase=90.0))[0]
        assert abs(reference_phase(spec)) <= 1.0

    def test_constructed_rotation(self):
        spec = detect(SYS, [state_00()], AcquisitionParams(observe_phase=90.0))[0]
        rotated = Spectrum(
            spec.freq_hz,
            spec.values * np.exp(1j * math.pi / 2),
            tuple(
                Peak(p.center_hz, p.coefficient * np.exp(1j * math.pi / 2), p.assigned_spin)
                for p in spec.peaks
            ),
        )
        assert reference_phase(rotated) == pytest.approx(90.0, abs=1.0)

    def test_observe_phase_shifts_correction(self):
        (spec_0,) = detect(SYS, [state_00()], AcquisitionParams(observe_phase=0.0))
        (spec_90,) = detect(SYS, [state_00()], AcquisitionParams(observe_phase=90.0))
        phase_0 = reference_phase(spec_0)
        phase_90 = reference_phase(spec_90)
        difference = (phase_90 - phase_0) % 360.0
        assert min(difference, 360 - difference) == pytest.approx(90.0, abs=1.0)

    def test_off_grid_reference_at_minimum_points(self):
        sys = SpinSystem(nu1=70.77, nu2=-88.84, j=6.08)
        spec = detect(sys, [state_00()], AcquisitionParams(spectral_width=512.0, n_points=1024))[0]
        assert classify(spec, reference_phase(spec), spec).qubits == (0, 0)

    def test_no_peaks_raises(self):
        spec = detect(SYS, [np.eye(4, dtype=complex) / 4], ACQ)[0]
        with pytest.raises(AmbiguousReadoutError, match="no detectable"):
            reference_phase(spec)

    def test_mixed_phase_message_quotes_largest_residue(self):
        spec = detect(SYS, [state_00()], ACQ)[0]
        quadrature = tuple(
            Peak(p.center_hz, abs(p.coefficient) * (1j if i % 2 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        message = r"common phase \(largest residue 45\.0° > 15°\)$"
        with pytest.raises(AmbiguousReadoutError, match=message):
            reference_phase(Spectrum(spec.freq_hz, spec.values, quadrature))


def _phase_and_reference():
    ref = detect(SYS, [state_00()], ACQ)[0]
    return reference_phase(ref), ref


class TestClassify:
    def test_10_state(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, [rho_basis(2)], ACQ)[0], phase, ref)
        assert result.qubits == (1, 0)

    def test_00_state_heights_near_one(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, [state_00()], ACQ)[0], phase, ref)
        assert result.qubits == (0, 0)
        assert np.allclose(result.line_heights, 1.0, atol=1e-9)

    def test_mixed_state_is_ambiguous(self):
        phase, ref = _phase_and_reference()
        with pytest.raises(AmbiguousReadoutError, match="no signal"):
            classify(detect(SYS, [np.eye(4, dtype=complex) / 4], ACQ)[0], phase, ref)

    def test_disagreeing_pair_is_ambiguous(self):
        phase, ref = _phase_and_reference()
        spec = detect(SYS, [state_00()], ACQ)[0]
        flipped = tuple(
            Peak(p.center_hz, p.coefficient * (-1 if i == 0 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        with pytest.raises(AmbiguousReadoutError, match="disagree"):
            classify(Spectrum(spec.freq_hz, spec.values, flipped), phase, ref)

    def test_disagreement_message_quotes_heights(self):
        phase, ref = _phase_and_reference()
        spec = detect(SYS, [rho_basis(1)], ACQ)[0]
        halved = tuple(
            Peak(p.center_hz, p.coefficient * (-0.5 if i == 0 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        message = r"^spin-2 doublet lines disagree in sign \(\+0\.5, -1\)$"
        with pytest.raises(AmbiguousReadoutError, match=message):
            classify(Spectrum(spec.freq_hz, spec.values, halved), phase, ref)

    @pytest.mark.parametrize("observe", [0.0, 37.0, 90.0, 213.0])
    def test_observe_phase_invariance(self, observe):
        acq = AcquisitionParams(observe_phase=observe)
        ref = detect(SYS, [state_00()], acq)[0]
        phase = reference_phase(ref)
        for index, expected in ((0, (0, 0)), (1, (0, 1)), (2, (1, 0)), (3, (1, 1))):
            result = classify(detect(SYS, [rho_basis(index)], acq)[0], phase, ref)
            assert result.qubits == expected

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
    def test_pseudo_pure_scaling(self, eps):
        from spinsearch.spins import pseudo_pure_00

        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, [pseudo_pure_00(eps)], ACQ)[0], phase, ref)
        assert result.qubits == (0, 0)
        assert np.allclose(result.line_heights, eps, atol=1e-8)

    def test_bad_reference_integrals(self):
        phase, ref = _phase_and_reference()
        silent = tuple(
            dataclasses.replace(p, coefficient=0j) if i == 1 else p for i, p in enumerate(ref.peaks)
        )
        message = rf"^no signal in the reference line at {ref.peaks[1].center_hz:g} Hz$"
        (spec,) = detect(SYS, [state_00()], ACQ)
        with pytest.raises(AmbiguousReadoutError, match=message):
            classify(spec, phase, Spectrum(ref.freq_hz, ref.values, silent))


    @given(
        configurations(j_max=20.0, t2_max=10.0),
        error_models(),
        st.floats(-17.0, 0.0).map(lambda x: 10**x),
    )
    def test_set_reads_as_the_earlier_calibration(self, config, err, epsilon):
        # every spectrum of a set is read against the set's reference
        # spectrum; the runs' outcomes are those of the earlier calibration
        # bit for bit, ambiguous ones included, and the reference's heights
        # are exactly 1
        sys, acq = config
        calls = []

        def recording(*args):
            calls.append(args)
            return classify(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "classify", recording)
            with contextlib.suppress(AmbiguousReadoutError):
                run_experiments(sys, acq, epsilon, err)
        (ref_spec, phase, reference), *runs = calls
        assert reference is ref_spec
        ref_result = classify(ref_spec, phase, ref_spec)
        earlier = _reference_classify(ref_spec, phase)
        assert ref_result.line_heights == (1.0, 1.0, 1.0, 1.0)
        assert ref_result.qubits == earlier.qubits == (0, 0)
        assert ref_result.peaks == earlier.peaks
        ref_coefficients = tuple(float(p.coefficient) for p in earlier.peaks)
        for spec, run_phase, reference in runs:
            assert reference is ref_spec and run_phase == phase
            assert _readout_bits(classify, spec, phase, ref_spec) == _readout_bits(
                _reference_classify, spec, phase, ref_coefficients
            )


_WRITERS = pytest.mark.parametrize(
    "write, content",
    [
        (write_spectrum_csv, lambda: detect(SYS, [state_00()], ACQ)[0]),
        (write_summary_json, lambda: [{"experiment": "ref", "qubits": [0, 0]}]),
    ],
    ids=["write_spectrum_csv", "write_summary_json"],
)


class TestExports:
    def test_csv_round_trip_and_determinism(self, tmp_path):
        spec = detect(SYS, [state_00()], ACQ)[0]
        path_a = tmp_path / "a.csv"
        path_b = tmp_path / "b.csv"
        write_spectrum_csv(str(path_a), spec)
        write_spectrum_csv(str(path_b), spec)
        data_a = path_a.read_bytes()
        assert data_a == path_b.read_bytes()
        lines = data_a.decode().splitlines()
        assert lines[0] == "freq_hz,real,imag"
        freqs = [float(line.split(",")[0]) for line in lines[1:]]
        assert freqs == sorted(freqs)
        assert len(freqs) == ACQ.n_points

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        tiny = 5e-324  # smallest subnormal
        # ascending, as detect builds every grid: the export keeps the
        # spectrum's order, and the reference sorts
        freq = np.array([-1.7976931348623157e308, -0.0, 1e-310, 0.1, 3.5, 2.5e300])
        values = np.array([
            complex(0.0, -0.0),
            complex(-0.0, 0.0),
            complex(tiny, -tiny),
            complex(1.7976931348623157e308, -2.2250738585072014e-308),
            complex(-1e-300, 1e300),
            complex(1 / 3, -2 / 3),
        ])
        detected = detect(SYS, [rho_basis(2)], ACQ)[0]
        for spec in (Spectrum(freq, values), detected):
            fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
            write_spectrum_csv(str(fast), spec)
            _reference_write_spectrum_csv(str(reference), spec)
            assert fast.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "reference.csv"]

    @_WRITERS
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, content):
        path = tmp_path / "a.out"
        path.write_bytes(b"previous")

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(readout.os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            write(str(path), content())
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["a.out"]

    @_WRITERS
    def test_written_file_has_the_mode_open_gives(self, tmp_path, write, content):
        # the process umask applies to both files and is left as it is
        sibling = tmp_path / "sibling.out"
        with open(sibling, "w"):
            pass
        path = tmp_path / "a.out"
        write(str(path), content())
        assert stat.S_IMODE(path.stat().st_mode) == stat.S_IMODE(sibling.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.out", "sibling.out"]

    @pytest.mark.parametrize("include_fidelity", [False, True])
    def test_summary_json_bytes_match_json_dump(self, tmp_path, include_fidelity):
        # a set reports fidelities exactly when its pulses were not ideal
        err = ErrorModel("soft-pulse", 5e-5) if include_fidelity else IDEAL
        docs = run_experiments(SYS, ACQ, 0.8, err).summary_documents()
        assert all(("fidelity" in doc) == include_fidelity for doc in docs[1:])
        written, reference = tmp_path / "summary.json", tmp_path / "reference.json"
        write_summary_json(str(written), docs)
        _reference_write_summary_json(str(reference), docs)
        assert written.read_bytes() == reference.read_bytes()

    def test_summary_document_shape(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, [rho_basis(2)], ACQ)[0], phase, ref)
        doc = summary_document("f10", result, fidelity=0.5)
        assert doc["experiment"] == "f10"
        assert doc["qubits"] == [1, 0]
        assert doc["fidelity"] == 0.5
        assert [p["center_hz"] for p in doc["peaks"]] == sorted(
            p["center_hz"] for p in doc["peaks"]
        )

    def test_summary_json_written_atomically(self, tmp_path):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, [state_00()], ACQ)[0], phase, ref)
        path = tmp_path / "summary.json"
        write_summary_json(str(path), [summary_document("ref", result)])
        loaded = json.loads(path.read_text())
        assert loaded[0]["experiment"] == "ref"
        assert loaded[0]["qubits"] == [0, 0]
        assert not list(tmp_path.glob("*.tmp"))

