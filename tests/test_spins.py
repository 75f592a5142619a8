import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from spinsearch.core import (
    IDENTITY_2,
    IX,
    IY,
    SIGMA_X,
    UNITARY_TOL,
    is_unitary,
)
from spinsearch.grover import pseudo_hadamard
from spinsearch.spins import (
    IDEAL,
    SpinSystem,
    ErrorModel,
    free_evolution,
    gradient_crush,
    ideal_pulse,
    pseudo_pure_00,
    soft_pulse,
)
from state_checks import (
    IZ1,
    IZ2,
    check_density_matrix,
    density_from_state,
    energies,
    equal_up_to_global_phase,
    factored_free_evolution,
    hamiltonian,
    state_00,
    temporal_average_00,
)

offsets = st.floats(-500, 500, allow_nan=False)
gaps = st.floats(71.0, 600.0, allow_nan=False)  # > 10 J at J = 7 Hz


def echo_unitary(sys):
    """tau - 180x(both) - tau sandwich."""
    f = free_evolution(sys, sys.tau)
    return f @ ideal_pulse("both", 180.0, 0.0) @ f


class TestSpinSystem:
    def test_defaults_valid(self):
        sys = SpinSystem()
        assert sys.tau == pytest.approx(1 / 28, abs=1e-15)

    def test_weak_coupling_enforced(self):
        with pytest.raises(ValueError, match="weak coupling"):
            SpinSystem(nu1=30.0, nu2=-30.0, j=7.0)

    @pytest.mark.parametrize("kwargs", [{"j": 0.0}, {"j": -1.0}, {"t2": 0.0}])
    def test_positive_parameters(self, kwargs):
        with pytest.raises(ValueError):
            SpinSystem(**kwargs)

    @pytest.mark.parametrize("field", ["nu1", "nu2", "j", "t2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            SpinSystem(**{field: value})


class TestFreeEvolution:
    def test_zero_time_is_identity(self):
        assert np.array_equal(free_evolution(SpinSystem(), 0.0), np.eye(4))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            free_evolution(SpinSystem(), -1.0)

    def test_pure_coupling_phases(self):
        # with shifts zeroed, 1/(2J) of evolution leaves exp(-i pi/4 (+-1))
        # phases: the controlled-phase structure of the coupling term
        sys = SpinSystem(j=7.0)
        h = hamiltonian(0.0, 0.0, sys.j)
        u = np.diag(np.exp(-2j * math.pi * (1 / (2 * sys.j)) * np.diag(h)))
        expected = np.diag(np.exp(-1j * (math.pi / 4) * np.array([1, -1, -1, 1])))
        assert np.allclose(u, expected, atol=1e-14)

    @given(
        offsets,
        gaps,
        st.sampled_from([-1.0, 1.0]),
        st.floats(0.5, 30.0),
        st.floats(0.0, 1.0),
    )
    def test_energies_match_hamiltonian_reference(self, nu1, gap, side, j, t):
        # the closed form is the reference Hamiltonian's diagonal bit for bit
        sys = SpinSystem(nu1=nu1, nu2=nu1 - side * (10 * j + gap), j=j)
        h = hamiltonian(sys.nu1, sys.nu2, sys.j)
        assert energies(sys).tobytes() == np.diag(h).real.tobytes()
        # the propagator is the factored reference bit for bit, and the
        # exponential of the summed energies to the rounding of their phases:
        # a few ulps per radian of the largest phase 2 pi t (|nu1| + |nu2| + J / 2) / 2
        u = free_evolution(sys, t)
        assert u.tobytes() == factored_free_evolution(sys, t).tobytes()
        reference = np.diag(np.exp(-2j * math.pi * t * np.diag(h)))
        phase = 2 * math.pi * t * (abs(sys.nu1) / 2 + abs(sys.nu2) / 2 + sys.j / 4)
        assert np.max(np.abs(u - reference)) <= 4 * np.finfo(float).eps * (1 + phase)

    @given(offsets, gaps)
    def test_unitary_and_diagonal(self, nu1, gap):
        sys = SpinSystem(nu1=nu1, nu2=nu1 - gap, j=7.0)
        u = free_evolution(sys, 0.0123)
        assert is_unitary(u, 1e-12)
        assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0


class TestSpinEcho:
    @given(offsets, gaps)
    def test_offset_independent(self, nu1, gap):
        sys_a = SpinSystem(nu1=nu1, nu2=nu1 - gap, j=7.0)
        sys_b = SpinSystem(nu1=80.0, nu2=-80.0, j=7.0)
        assert np.max(np.abs(echo_unitary(sys_a) - echo_unitary(sys_b))) <= 1e-10

    @given(
        st.sampled_from([-1.0, 1.0]),
        st.floats(0.0, 300.0),
        st.floats(math.log10(71.0), 300.0),
    )
    @example(1.0, 16.845, 17.146)
    @example(1.0, 300.0, 300.301)
    def test_offset_independent_at_any_offset(self, sign, offset_exp, gap_exp):
        # each offset's phases are one spin's, which the 180-degree pulse
        # conjugates, so they cancel however large; offsets stay within 1e12
        # gaps, so that nu1 - gap keeps the gap
        offset = sign * 10 ** min(offset_exp, gap_exp + 12)
        sys_a = SpinSystem(nu1=offset, nu2=offset - 10**gap_exp, j=7.0)
        sys_b = SpinSystem(nu1=80.0, nu2=-80.0, j=7.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            echo = echo_unitary(sys_a)
        assert np.max(np.abs(echo - echo_unitary(sys_b))) <= 1e-10

    def test_coupling_retained(self):
        # the sandwich equals its zero-shift value: 180x(both) times 1/(2J)
        # of pure coupling evolution
        sys = SpinSystem()
        coupling = np.diag(np.exp(-1j * (math.pi / 4) * np.array([1, -1, -1, 1])))
        pulse = ideal_pulse("both", 180.0, 0.0)
        assert equal_up_to_global_phase(echo_unitary(sys), pulse @ coupling, 1e-12)


class TestIdealPulse:
    def test_90y_on_spin1_is_pseudo_hadamard(self):
        u = ideal_pulse(1, 90.0, 90.0)
        assert np.allclose(u, np.kron(pseudo_hadamard(), IDENTITY_2), atol=1e-15)

    def test_180x_both(self):
        u = ideal_pulse("both", 180.0, 0.0)
        assert np.allclose(u, -np.kron(SIGMA_X, SIGMA_X), atol=1e-15)

    def test_unknown_target(self):
        with pytest.raises(ValueError):
            ideal_pulse(3, 90.0, 0.0)

    @given(st.sampled_from([1, 2, "both"]), st.floats(0, 360, allow_nan=False),
           st.floats(0, 360, allow_nan=False))
    def test_always_unitary(self, target, flip, phase):
        assert is_unitary(ideal_pulse(target, flip, phase), 1e-12)


class TestSoftPulse:
    def test_converges_to_ideal(self):
        sys = SpinSystem()  # |nu1 - nu2| = 160 Hz, within the 1 kHz regime
        ideal = ideal_pulse(1, 90.0, 90.0)
        dev = np.max(np.abs(soft_pulse(sys, 1, 90.0, 90.0, 1e-9) - ideal))
        assert dev <= 1e-6

    def test_linear_convergence_rate(self):
        sys = SpinSystem()
        ideal = ideal_pulse(2, 90.0, 0.0)
        dev = [
            np.max(np.abs(soft_pulse(sys, 2, 90.0, 0.0, tp) - ideal))
            for tp in (2e-9, 1e-9, 5e-10)
        ]
        assert dev[0] > dev[1] > dev[2]
        assert dev[0] / dev[1] == pytest.approx(2.0, rel=0.05)

    def test_unitary(self):
        sys = SpinSystem()
        assert is_unitary(soft_pulse(sys, 1, 180.0, 45.0, 1e-3), 1e-12)

    def test_rejects_bad_duration_and_target(self):
        with pytest.raises(ValueError):
            soft_pulse(SpinSystem(), 1, 90.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            soft_pulse(SpinSystem(), "both", 90.0, 0.0, 1e-3)

    def test_error_model_validation(self):
        with pytest.raises(ValueError):
            ErrorModel("soft-pulse", 0.0)
        with pytest.raises(ValueError):
            ErrorModel("loud-pulse", 1e-3)

    @pytest.mark.parametrize("mode", ["none", "soft-pulse"])
    @pytest.mark.parametrize("t_p", [math.nan, math.inf])
    def test_error_model_rejects_non_finite_duration(self, mode, t_p):
        with pytest.raises(ValueError, match="finite"):
            ErrorModel(mode, t_p)

    @pytest.mark.parametrize("t_p", [5e-5, 1e-300, -1e-4])
    def test_ideal_error_model_takes_no_duration(self, t_p):
        # a duration would make a model of ideal pulses compare unequal to IDEAL
        with pytest.raises(ValueError, match="takes no t_p"):
            ErrorModel("none", t_p)
        assert ErrorModel("none", 0.0) == IDEAL


def rotation_axis(phase_deg):
    phi = math.radians(phase_deg)
    return math.cos(phi) * IX + math.sin(phi) * IY


def expm_ideal_pulse(target, flip_deg, phase_deg):
    """Reference: the rotation as a matrix exponential."""
    u2 = expm(-1j * math.radians(flip_deg) * rotation_axis(phase_deg))
    if target == 1:
        return np.kron(u2, IDENTITY_2)
    if target == 2:
        return np.kron(IDENTITY_2, u2)
    return np.kron(u2, u2)


def expm_soft_pulse(sys, target, flip_deg, phase_deg, t_p):
    """Reference: exponential of the carrier-frame Hamiltonian, rotated back
    into the shared frame."""
    carrier = sys.nu1 if target == 1 else sys.nu2
    axis = rotation_axis(phase_deg)
    rf_axis = np.kron(axis, IDENTITY_2) if target == 1 else np.kron(IDENTITY_2, axis)
    omega1 = flip_deg / (360.0 * t_p)
    h = hamiltonian(sys.nu1 - carrier, sys.nu2 - carrier, sys.j) + omega1 * rf_axis
    frame = np.diag(np.exp(-2j * math.pi * carrier * t_p * np.diag(IZ1 + IZ2)))
    return frame @ expm(-2j * math.pi * t_p * h)


couplings = st.floats(0.5, 30.0, allow_nan=False)
flips = st.floats(-720, 720, allow_nan=False)
phases = st.floats(-360, 720, allow_nan=False)
durations = st.floats(1e-7, 1e-3, allow_nan=False)


class TestClosedFormPropagators:
    @given(st.sampled_from([1, 2, "both"]), flips, phases)
    def test_ideal_pulse_matches_expm(self, target, flip, phase):
        ref = expm_ideal_pulse(target, flip, phase)
        assert np.max(np.abs(ideal_pulse(target, flip, phase) - ref)) <= 1e-12

    @given(offsets, gaps, st.sampled_from([-1.0, 1.0]), couplings,
           st.sampled_from([1, 2]), flips, phases, durations)
    def test_soft_pulse_matches_expm(self, nu1, gap, side, j, target, flip, phase, t_p):
        sys = SpinSystem(nu1=nu1, nu2=nu1 - side * (10 * j + gap), j=j)
        ref = expm_soft_pulse(sys, target, flip, phase, t_p)
        assert np.max(np.abs(soft_pulse(sys, target, flip, phase, t_p) - ref)) <= 1e-12

    # t_p log-uniform from the smallest subnormal to 1 ms: at the short end an
    # RF amplitude flip/(360 t_p) would overflow to inf
    @given(offsets, gaps, st.sampled_from([-1.0, 1.0]), couplings, st.sampled_from([1, 2]),
           st.floats(-1e300, 1e300, allow_nan=False), phases,
           st.floats(math.log(5e-324), math.log(1e-3)).map(lambda x: max(math.exp(x), 5e-324)))
    @example(80.0, 90.0, 1.0, 7.0, 2, 180.0, 90.0, 5e-324)
    @example(80.0, 90.0, 1.0, 7.0, 1, 1e300, 0.0, 1e-12)  # the wire pulse PULSE 1 1e300 0.0 SOFT 1e-12
    # 0-degree pulses at the shortest duration; at J = 1e-3 Hz the coupling
    # term 360 J m t_p underflows to 0 as well
    @example(80.0, 155.0, 1.0, 0.5, 1, 0.0, 0.0, 5e-324)
    @example(80.0, 155.0, 1.0, 1e-3, 2, 0.0, 0.0, 5e-324)
    def test_soft_pulse_runs_for_any_positive_duration(
        self, nu1, gap, side, j, target, flip, phase, t_p
    ):
        sys = SpinSystem(nu1=nu1, nu2=nu1 - side * (10 * j + gap), j=j)
        u = soft_pulse(sys, target, flip, phase, t_p)
        assert is_unitary(u, UNITARY_TOL)
        if t_p <= 1e-30:
            assert np.max(np.abs(u - ideal_pulse(target, flip, phase))) <= 1e-12

    # t_p log-uniform from the smallest subnormal to 1.7e308: past about
    # 1e305 s the coupling rotation 360 J m t_p or a precession phase
    # 2 pi t_p (nu - nu_carrier) m overflows, and that is a usage error
    @given(offsets, gaps, st.sampled_from([-1.0, 1.0]), couplings, st.sampled_from([1, 2]),
           flips, phases, st.floats(math.log(5e-324), math.log(1.7e308)).map(
               lambda x: max(math.exp(x), 5e-324)))
    @example(80.0, 90.0, 1.0, 7.0, 2, 180.0, 90.0, 1e306)
    @example(80.0, 90.0, 1.0, 7.0, 1, 90.0, 0.0, 1.7e308)
    def test_soft_pulse_is_unitary_or_rejected_at_any_duration(
        self, nu1, gap, side, j, target, flip, phase, t_p
    ):
        sys = SpinSystem(nu1=nu1, nu2=nu1 - side * (10 * j + gap), j=j)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                u = soft_pulse(sys, target, flip, phase, t_p)
            except ValueError as exc:
                assert "t_p" in str(exc) and "rotation overflows" in str(exc)
                assert t_p > 1e300
            else:
                assert is_unitary(u, UNITARY_TOL)

    # offsets in quarter hertz, shifted together by K / t_p Hz at
    # t_p = 2**-10 s: every shifted offset is exact, the pulse's offset
    # difference unchanged, and its frame phase moves by K whole turns
    @given(st.integers(-2000, 2000), st.integers(281, 2400), st.sampled_from([-1, 1]),
           st.sampled_from([1, 2]), flips, phases, st.integers(1, 2**40))
    @example(320, 640, -1, 1, 90.0, 0.0, 2**30)
    @example(320, 640, -1, 2, 180.0, 90.0, 2**40)
    def test_soft_pulse_phases_are_taken_in_turns(
        self, quarters, gap, side, target, flip, phase, turns
    ):
        t_p = 2.0**-10
        nu1, nu2 = quarters / 4, (quarters + side * gap) / 4
        shift = turns / t_p
        sys = SpinSystem(nu1=nu1, nu2=nu2, j=7.0)
        shifted = SpinSystem(nu1=nu1 + shift, nu2=nu2 + shift, j=7.0)
        assert (shifted.nu1 - shift, shifted.nu2 - shift) == (nu1, nu2)
        u = soft_pulse(sys, target, flip, phase, t_p)
        assert np.max(np.abs(soft_pulse(shifted, target, flip, phase, t_p) - u)) <= 1e-12


class TestGradientCrush:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert np.array_equal(gradient_crush(rho), rho)

    def test_single_quantum_removed(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        rho = np.kron(density_from_state(plus), np.diag([1.0, 0.0]).astype(complex))
        crushed = gradient_crush(rho)
        assert np.allclose(crushed, np.diag([0.5, 0, 0.5, 0]), atol=1e-15)

    def test_zero_quantum_retained(self):
        rho = np.eye(4, dtype=complex) / 4
        rho[1, 2] = 0.1
        rho[2, 1] = 0.1
        crushed = gradient_crush(rho)
        assert crushed[1, 2] == pytest.approx(0.1)
        check_density_matrix(crushed)

    def test_idempotent_and_well_formed(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        crushed = gradient_crush(rho)
        assert np.array_equal(gradient_crush(crushed), crushed)
        assert np.max(np.abs(crushed - crushed.conj().T)) <= 1e-12
        assert np.trace(crushed).real == pytest.approx(1.0, abs=1e-12)

    @given(
        st.integers(1, 3),
        st.lists(st.integers(1, 3), max_size=2),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_crushes_each_matrix_alone(self, n, batch, seed):
        # a (..., 2^n, 2^n) stack is crushed matrix by matrix, bit for bit
        rng = np.random.default_rng(seed)
        shape = (*batch, 2**n, 2**n)
        stack = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        crushed = gradient_crush(stack)
        assert crushed.shape == shape
        for index in np.ndindex(*batch):
            assert crushed[index].tobytes() == gradient_crush(stack[index]).tobytes()


class TestPseudoPure:
    def test_full_purity(self):
        assert np.array_equal(pseudo_pure_00(1.0), state_00())

    def test_low_purity_limit(self):
        rho = pseudo_pure_00(1e-9)
        assert np.max(np.abs(rho - np.eye(4) / 4)) <= 1e-9

    @pytest.mark.parametrize("eps", [0.0, -0.1, 1.5])
    def test_range_enforced(self, eps):
        with pytest.raises(ValueError):
            pseudo_pure_00(eps)

    @given(st.floats(1e-6, 1.0, allow_nan=False))
    def test_always_valid_density(self, eps):
        check_density_matrix(pseudo_pure_00(eps))


class TestTemporalAveraging:
    def test_cyclic_average(self):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        rho = temporal_average_00(p)
        assert np.allclose(np.diag(rho).real, [0.4, 0.2, 0.2, 0.2], atol=1e-15)

    @given(
        st.floats(0.25, 1.0, exclude_min=True),
        st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3).filter(lambda w: sum(w) > 0),
    )
    def test_traceless_part_proportional_to_target(self, p0, weights):
        # the averaged state is the effective pure state with eps = (4 p0 - 1) / 3
        rest = (1.0 - p0) * (np.asarray(weights) / sum(weights))
        rho = temporal_average_00([p0, *rest])
        expected = pseudo_pure_00((4 * p0 - 1) / 3)
        assert np.max(np.abs(rho - expected)) <= 1e-15

    def test_requires_normalised_populations(self):
        with pytest.raises(ValueError):
            temporal_average_00([0.5, 0.5, 0.5, 0.5])
