import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from spinsearch import readout
from spinsearch.core import basis_state, fidelity
from spinsearch.experiment import run_experiments
from spinsearch.grover import ALL_LABELS
from spinsearch.readout import (
    OBSERVE_1,
    OBSERVE_2,
    AcquisitionParams,
    AmbiguousReadoutError,
    Peak,
    Spectrum,
    classify,
    detect,
    line_centers,
    reference_phase,
    summary_document,
    synthesize_fid,
    write_spectrum_csv,
    write_summary_json,
)
from spinsearch.sequence import run_sequence
from spinsearch.spins import (
    IDEAL,
    ErrorModel,
    SpinSystem,
    gradient_crush,
    ideal_pulse,
    pseudo_pure_00,
)
from state_checks import density_from_state, hamiltonian, reference_grover_program, state_00

SYS = SpinSystem()
ACQ = AcquisitionParams()


def rho_basis(index):
    return density_from_state(basis_state(2, index))


def _reference_lines(sys, acq):
    """The four damped line waveforms exp(-i 2 pi (E_i - E_j) t) exp(-t/T2),
    with their couplings O_ji, in the package's coupling order."""
    t = np.arange(acq.n_points) * acq.dwell
    energies = np.diag(hamiltonian(sys.nu1, sys.nu2, sys.j)).real
    observe = OBSERVE_1 + OBSERVE_2
    decay = np.exp(-t / sys.t2)
    rows, cols = np.nonzero(observe.T)
    return [
        (i, j, observe[j, i], np.exp(-2j * math.pi * (energies[i] - energies[j]) * t) * decay)
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
    over a boolean mask of +/- 3 linewidths (the readout before exact
    integrals)."""
    if acq.spectral_width <= 2 * (max(abs(sys.nu1), abs(sys.nu2)) + sys.j):
        raise ValueError("spectral width too small: lines would alias")
    values = _reference_spectrum(_reference_synthesize_fid(sys, _observed(rho, acq), acq))
    freq = np.fft.fftshift(np.fft.fftfreq(acq.n_points, d=acq.dwell))
    width = 1.0 / (math.pi * sys.t2)
    peaks = tuple(
        Peak(center, complex(np.sum(values[np.abs(freq - center) <= 3 * width]) * acq.resolution),
             spin)
        for center, spin in line_centers(sys)
    )
    return Spectrum(freq, values, peaks)


def _exact_integrals(sys, rho, acq):
    """c_k * spectral_width / 2 for each line in line_centers order, where
    c_k = O_ji * rho_ij after the crush and the observe pulse and line k is
    the coherence (i, j) nearest its centre, at E_j - E_i."""
    rho = _observed(rho, acq)
    energies = np.diag(hamiltonian(sys.nu1, sys.nu2, sys.j)).real
    observe = OBSERVE_1 + OBSERVE_2
    rows, cols = np.nonzero(observe.T)
    lines = [(energies[j] - energies[i], observe[j, i] * rho[i, j]) for i, j in zip(rows, cols)]
    integrals = []
    for center, _ in line_centers(sys):
        _, c = min(lines, key=lambda line: abs(line[0] - center))
        integrals.append(complex(c * acq.spectral_width / 2))
    return integrals


def _reference_exact_detect(sys, rho, acq):
    """_reference_detect's spectrum with the exact line integrals."""
    spec = _reference_detect(sys, rho, acq)
    peaks = tuple(
        Peak(p.center_hz, integral, p.assigned_spin)
        for p, integral in zip(spec.peaks, _exact_integrals(sys, rho, acq))
    )
    return Spectrum(spec.freq_hz, spec.values, peaks)


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
    ref_result = classify(ref_spec, phase)
    ref_integrals = tuple(float(p.integral) for p in ref_result.peaks)
    runs = []
    for label in ALL_LABELS:
        rho = run_sequence(sys, reference_grover_program(label, sys), pseudo_pure_00(epsilon), err)
        spec = _reference_exact_detect(sys, rho, acq)
        result = classify(spec, phase, ref_integrals)
        runs.append((spec, result, fidelity(basis_state(2, label.index), rho)))
    return ref_spec, phase, ref_result, runs


def _assert_same_grid_and_peaks(actual, expected):
    assert np.array_equal(actual.freq_hz, expected.freq_hz)
    assert len(actual.peaks) == len(expected.peaks) == 4
    for got, want in zip(actual.peaks, expected.peaks):
        assert got.center_hz == want.center_hz
        assert got.integral == want.integral
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
    assert all((center / r).is_integer() for center, _ in line_centers(sys))
    return sys, acq


@st.composite
def detection_inputs(draw):
    """A validated spin system, a non-aliasing acquisition and a random
    Hermitian unit-trace rho."""
    sys, acq = draw(configurations(j_max=10.0, t2_max=20.0))
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=32, max_size=32)))
    a = (parts[:16] + 1j * parts[16:]).reshape(4, 4)
    h = a + a.conj().T
    trace = float(np.trace(h).real)
    assume(abs(trace) > 0.1)
    return sys, acq, h / trace


class TestAcquisitionParams:
    def test_defaults(self):
        assert ACQ.dwell == pytest.approx(1 / 512)
        assert ACQ.resolution == pytest.approx(0.125)

    @pytest.mark.parametrize("n", [512, 1000, 4095, 4096.0, 4096.5, "4096"])
    def test_n_points_validation(self, n):
        with pytest.raises(ValueError):
            AcquisitionParams(n_points=n)

    @pytest.mark.parametrize("n", [4096, np.int64(4096), np.int32(1024), np.uint16(2048)])
    def test_integer_n_points_accepted(self, n):
        acq = AcquisitionParams(n_points=n)
        assert acq.n_points == n
        assert type(acq.n_points) is int

    def test_aliasing_guard(self):
        with pytest.raises(ValueError, match="alias"):
            detect(SYS, state_00(), AcquisitionParams(spectral_width=128.0, n_points=1024))

    @pytest.mark.parametrize("field", ["spectral_width", "observe_phase"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            AcquisitionParams(**{field: value})


class TestDetect:
    def test_reference_has_four_same_sign_lines(self):
        spec = detect(SYS, state_00(), ACQ)
        assert len(spec.peaks) == 4
        phases = [np.angle(p.integral) for p in spec.peaks]
        # all four lines share the observe phase
        spread = np.degrees(np.max(np.abs(np.angle(np.exp(1j * (np.array(phases) - phases[0]))))))
        assert spread <= 15.0
        centers = [p.center_hz for p in spec.peaks]
        assert centers == sorted(centers)
        expected = sorted([SYS.nu1 - SYS.j / 2, SYS.nu1 + SYS.j / 2,
                           SYS.nu2 - SYS.j / 2, SYS.nu2 + SYS.j / 2])
        assert np.allclose(centers, expected, atol=1e-12)

    def test_maximally_mixed_is_silent(self):
        spec = detect(SYS, np.eye(4, dtype=complex) / 4, ACQ)
        assert float(np.max(np.abs(spec.values))) <= 1e-10

    def test_01_state_has_opposite_doublets(self):
        spec = detect(SYS, rho_basis(1), ACQ)
        phase = reference_phase(detect(SYS, state_00(), ACQ))
        rot = np.exp(-1j * math.radians(phase))
        spin1 = [float((p.integral * rot).real) for p in spec.peaks if p.assigned_spin == 1]
        spin2 = [float((p.integral * rot).real) for p in spec.peaks if p.assigned_spin == 2]
        assert all(v > 0 for v in spin1)
        assert all(v < 0 for v in spin2)

    def test_doublet_positions_within_one_grid_step(self):
        spec = detect(SYS, state_00(), ACQ)
        magnitude = np.abs(spec.values)
        for center, _ in line_centers(SYS):
            window = np.abs(spec.freq_hz - center) <= 3.0
            local = np.where(window)[0]
            peak_idx = local[np.argmax(magnitude[local])]
            assert abs(spec.freq_hz[peak_idx] - center) <= ACQ.resolution

    def test_linewidth_close_to_lorentzian_fwhm(self):
        sys = SpinSystem(t2=2.0)
        acq = AcquisitionParams(spectral_width=512.0, n_points=65536)
        spec = detect(sys, state_00(), acq)
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
        blended = detect(SYS, alpha * rho_a + (1 - alpha) * rho_b, ACQ)
        separate = alpha * detect(SYS, rho_a, ACQ).values + (1 - alpha) * detect(
            SYS, rho_b, ACQ
        ).values
        assert float(np.max(np.abs(blended.values - separate))) <= 1e-10


class TestLineBasis:
    @given(detection_inputs())
    def test_detect_matches_per_detection_reference(self, inputs):
        sys, acq, rho = inputs
        actual = detect(sys, rho, acq)
        _assert_matches_reference(actual, _reference_exact_detect(sys, rho, acq))
        _assert_identical_spectra(detect(sys, rho, acq, synthesize_fid(sys, acq)), actual)

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

    def test_basis_for_equal_configuration_is_accepted(self):
        lines = synthesize_fid(SpinSystem(), AcquisitionParams())
        _assert_identical_spectra(detect(SYS, state_00(), ACQ, lines), detect(SYS, state_00(), ACQ))

    @pytest.mark.parametrize(
        "sys, acq",
        [
            (SpinSystem(nu1=90.0), ACQ),
            (SpinSystem(t2=2.0), ACQ),
            (SYS, AcquisitionParams(n_points=2048)),
            (SYS, AcquisitionParams(spectral_width=600.0)),
            (SYS, AcquisitionParams(observe_phase=90.0)),
        ],
        ids=["nu1", "t2", "n_points", "spectral_width", "observe_phase"],
    )
    def test_basis_for_other_configuration_rejected(self, sys, acq):
        lines = synthesize_fid(SYS, ACQ)
        with pytest.raises(ValueError, match="different system or acquisition"):
            detect(sys, state_00(), acq, lines)

    def test_detect_leaves_basis_unchanged(self):
        lines = synthesize_fid(SYS, ACQ)
        before = [template.copy() for template in lines.templates]
        first = detect(SYS, rho_basis(0), ACQ, lines)
        kept = first.values.copy()
        second = detect(SYS, rho_basis(1), ACQ, lines)
        assert np.array_equal(first.values, kept)
        assert not np.shares_memory(first.values, second.values)
        for template, copy in zip(lines.templates, before):
            assert np.array_equal(template, copy)
            for spec in (first, second):
                assert not np.shares_memory(spec.values, template)

    def test_shared_arrays_are_read_only(self):
        lines = synthesize_fid(SYS, ACQ)
        assert len(lines.templates) == 4
        for array in (*lines.templates, lines.freq_hz):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0
        out = run_experiments(SYS, ACQ)
        spectra = [out.reference_spectrum] + [run.spectrum for run in out.runs]
        assert all(spec.freq_hz is spectra[0].freq_hz for spec in spectra)
        with pytest.raises(ValueError):
            spectra[0].freq_hz[0] = 0.0


class TestLineTemplates:
    @given(template_configurations())
    @example((SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=1e300),
              AcquisitionParams(spectral_width=1024.0, n_points=131072)))
    def test_templates_match_fft_reference(self, config):
        sys, acq = config
        lines = synthesize_fid(sys, acq)
        for template, (_, _, _, line) in zip(lines.templates, _reference_lines(sys, acq)):
            reference = _reference_spectrum(line)
            difference = float(np.max(np.abs(template - reference)))
            scale = float(np.max(np.abs(reference)))
            assert difference <= _reference_tolerance(acq.n_points) * scale


class TestLineIntegrals:
    @given(detection_inputs())
    def test_each_line_integrates_to_half_the_spectral_width(self, inputs):
        sys, acq, _ = inputs
        # a template sums to N/2, so its line integrates to sw/2
        for template in synthesize_fid(sys, acq).templates:
            total = np.sum(template)
            assert abs(total - acq.n_points / 2) <= 1e-12 * acq.n_points / 2

    @given(detection_inputs())
    def test_spectrum_integrates_to_its_line_integrals(self, inputs):
        sys, acq, rho = inputs
        spec = detect(sys, rho, acq)
        integrals = [p.integral for p in spec.peaks]
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
        assert all((center / acq.resolution).is_integer() for center, _ in line_centers(sys))
        rot = np.exp(-1j * math.radians(reference_phase(detect(sys, state_00(), acq))))
        for index in range(4):
            windowed = _reference_detect(sys, rho_basis(index), acq).peaks
            for window, exact in zip(windowed, detect(sys, rho_basis(index), acq).peaks):
                assert (window.integral * rot).real * (exact.integral * rot).real > 0
                residue = abs(math.degrees(np.angle(window.integral / exact.integral)))
                assert residue <= 15.0

    @given(configurations(j_max=20.0, t2_max=10.0), st.floats(0.05, 1.0, exclude_min=True))
    def test_every_accepted_configuration_reads_all_labels(self, config, epsilon):
        sys, acq = config
        out = run_experiments(sys, acq, epsilon)
        assert out.reference_result.qubits == (0, 0)
        for run in out.runs:
            bits = (run.label.a, run.label.b)
            assert run.result.qubits == bits
            for height, peak in zip(run.result.line_heights, run.result.peaks):
                expected = -epsilon if bits[peak.assigned_spin - 1] else epsilon
                assert abs(height - expected) <= 1e-6


class TestReferencePhase:
    def test_absorption_reference_is_zero(self):
        spec = detect(SYS, state_00(), AcquisitionParams(observe_phase=90.0))
        assert abs(reference_phase(spec)) <= 1.0

    def test_constructed_rotation(self):
        spec = detect(SYS, state_00(), AcquisitionParams(observe_phase=90.0))
        rotated = Spectrum(
            spec.freq_hz,
            spec.values * np.exp(1j * math.pi / 2),
            tuple(
                Peak(p.center_hz, p.integral * np.exp(1j * math.pi / 2), p.assigned_spin)
                for p in spec.peaks
            ),
        )
        assert reference_phase(rotated) == pytest.approx(90.0, abs=1.0)

    def test_observe_phase_shifts_correction(self):
        phase_0 = reference_phase(detect(SYS, state_00(), AcquisitionParams(observe_phase=0.0)))
        phase_90 = reference_phase(detect(SYS, state_00(), AcquisitionParams(observe_phase=90.0)))
        difference = (phase_90 - phase_0) % 360.0
        assert min(difference, 360 - difference) == pytest.approx(90.0, abs=1.0)

    def test_off_grid_reference_at_minimum_points(self):
        sys = SpinSystem(nu1=70.77, nu2=-88.84, j=6.08)
        spec = detect(sys, state_00(), AcquisitionParams(spectral_width=512.0, n_points=1024))
        assert classify(spec, reference_phase(spec)).qubits == (0, 0)

    def test_no_peaks_raises(self):
        spec = detect(SYS, np.eye(4, dtype=complex) / 4, ACQ)
        with pytest.raises(AmbiguousReadoutError, match="no detectable"):
            reference_phase(spec)

    def test_mixed_phase_message_quotes_largest_residue(self):
        spec = detect(SYS, state_00(), ACQ)
        quadrature = tuple(
            Peak(p.center_hz, abs(p.integral) * (1j if i % 2 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        message = r"common phase \(largest residue 45\.0° > 15°\)$"
        with pytest.raises(AmbiguousReadoutError, match=message):
            reference_phase(Spectrum(spec.freq_hz, spec.values, quadrature))


def _phase_and_reference():
    ref = detect(SYS, state_00(), ACQ)
    phase = reference_phase(ref)
    result = classify(ref, phase)
    return phase, tuple(float(p.integral) for p in result.peaks)


class TestClassify:
    def test_10_state(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, rho_basis(2), ACQ), phase, ref)
        assert result.qubits == (1, 0)

    def test_00_state_heights_near_one(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, state_00(), ACQ), phase, ref)
        assert result.qubits == (0, 0)
        assert np.allclose(result.line_heights, 1.0, atol=1e-9)

    def test_self_normalised_heights(self):
        phase, _ = _phase_and_reference()
        result = classify(detect(SYS, state_00(), ACQ), phase)
        assert np.allclose(result.line_heights, 1.0, atol=1e-3)

    def test_mixed_state_is_ambiguous(self):
        phase, ref = _phase_and_reference()
        with pytest.raises(AmbiguousReadoutError, match="no signal"):
            classify(detect(SYS, np.eye(4, dtype=complex) / 4, ACQ), phase, ref)

    def test_disagreeing_pair_is_ambiguous(self):
        phase, ref = _phase_and_reference()
        spec = detect(SYS, state_00(), ACQ)
        flipped = tuple(
            Peak(p.center_hz, p.integral * (-1 if i == 0 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        with pytest.raises(AmbiguousReadoutError, match="disagree"):
            classify(Spectrum(spec.freq_hz, spec.values, flipped), phase, ref)

    def test_disagreement_message_quotes_heights(self):
        phase, ref = _phase_and_reference()
        spec = detect(SYS, rho_basis(1), ACQ)
        halved = tuple(
            Peak(p.center_hz, p.integral * (-0.5 if i == 0 else 1), p.assigned_spin)
            for i, p in enumerate(spec.peaks)
        )
        message = r"^spin-2 doublet lines disagree in sign \(\+0\.5, -1\)$"
        with pytest.raises(AmbiguousReadoutError, match=message):
            classify(Spectrum(spec.freq_hz, spec.values, halved), phase, ref)

    @pytest.mark.parametrize("observe", [0.0, 37.0, 90.0, 213.0])
    def test_observe_phase_invariance(self, observe):
        acq = AcquisitionParams(observe_phase=observe)
        ref = detect(SYS, state_00(), acq)
        phase = reference_phase(ref)
        ref_result = classify(ref, phase)
        ref_integrals = tuple(float(p.integral) for p in ref_result.peaks)
        for index, expected in ((0, (0, 0)), (1, (0, 1)), (2, (1, 0)), (3, (1, 1))):
            result = classify(detect(SYS, rho_basis(index), acq), phase, ref_integrals)
            assert result.qubits == expected

    @pytest.mark.parametrize("eps", [0.05, 0.2, 1.0])
    def test_pseudo_pure_scaling(self, eps):
        from spinsearch.spins import pseudo_pure_00

        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, pseudo_pure_00(eps), ACQ), phase, ref)
        assert result.qubits == (0, 0)
        assert np.allclose(result.line_heights, eps, atol=1e-8)

    def test_bad_reference_integrals(self):
        phase, _ = _phase_and_reference()
        with pytest.raises(ValueError):
            classify(detect(SYS, state_00(), ACQ), phase, (1.0, 0.0, 1.0, 1.0))


class TestExports:
    def test_csv_round_trip_and_determinism(self, tmp_path):
        spec = detect(SYS, state_00(), ACQ)
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
        freq = np.array([3.5, -0.0, 1e-310, -1.7976931348623157e308, 2.5e300, 0.1])
        values = np.array([
            complex(0.0, -0.0),
            complex(-0.0, 0.0),
            complex(tiny, -tiny),
            complex(1.7976931348623157e308, -2.2250738585072014e-308),
            complex(-1e-300, 1e300),
            complex(1 / 3, -2 / 3),
        ])
        detected = detect(SYS, rho_basis(2), ACQ)
        for spec in (Spectrum(freq, values), detected):
            fast, reference = tmp_path / "fast.csv", tmp_path / "reference.csv"
            write_spectrum_csv(str(fast), spec)
            _reference_write_spectrum_csv(str(reference), spec)
            assert fast.read_bytes() == reference.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["fast.csv", "reference.csv"]

    @pytest.mark.parametrize(
        "write, content",
        [
            (write_spectrum_csv, lambda: detect(SYS, state_00(), ACQ)),
            (write_summary_json, lambda: [{"experiment": "ref", "qubits": [0, 0]}]),
        ],
        ids=["write_spectrum_csv", "write_summary_json"],
    )
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

    @pytest.mark.parametrize("include_fidelity", [False, True])
    def test_summary_json_bytes_match_json_dump(self, tmp_path, include_fidelity):
        experiments = run_experiments(SYS, ACQ, 0.8, ErrorModel("soft-pulse", 5e-5))
        docs = experiments.summary_documents(include_fidelity=include_fidelity)
        assert all(("fidelity" in doc) == include_fidelity for doc in docs[1:])
        written, reference = tmp_path / "summary.json", tmp_path / "reference.json"
        write_summary_json(str(written), docs)
        _reference_write_summary_json(str(reference), docs)
        assert written.read_bytes() == reference.read_bytes()

    def test_summary_document_shape(self):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, rho_basis(2), ACQ), phase, ref)
        doc = summary_document("f10", result, fidelity=0.5)
        assert doc["experiment"] == "f10"
        assert doc["qubits"] == [1, 0]
        assert doc["fidelity"] == 0.5
        assert [p["center_hz"] for p in doc["peaks"]] == sorted(
            p["center_hz"] for p in doc["peaks"]
        )

    def test_summary_json_written_atomically(self, tmp_path):
        phase, ref = _phase_and_reference()
        result = classify(detect(SYS, state_00(), ACQ), phase, ref)
        path = tmp_path / "summary.json"
        write_summary_json(str(path), [summary_document("ref", result)])
        loaded = json.loads(path.read_text())
        assert loaded[0]["experiment"] == "ref"
        assert loaded[0]["qubits"] == [0, 0]
        assert not list(tmp_path.glob("*.tmp"))

