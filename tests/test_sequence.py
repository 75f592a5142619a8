import contextlib
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import spinsearch.experiment as experiment
import spinsearch.sequence as sequence
from spinsearch.core import apply_unitary, basis_state, fidelity, is_unitary
from spinsearch.experiment import run_experiments
from spinsearch.grover import ALL_LABELS, OracleLabel, grover2_circuit, oracle_matrix
from spinsearch.readout import AcquisitionParams, AmbiguousReadoutError
from spinsearch.sequence import (
    ORACLE_PHASE_TABLE,
    PHASE_DEG,
    ROW_FOR_LABEL,
    Delay,
    Gradient,
    PropagatorTable,
    Pulse,
    PulseSequence,
    compile_oracle,
    event_operator,
    format_sequence,
    grover_program,
    parse_sequence,
    run_sequence,
)
from spinsearch.spins import (
    IDEAL,
    ErrorModel,
    SpinSystem,
    gradient_crush,
    pseudo_pure_00,
)
from state_checks import (
    equal_up_to_global_phase,
    reference_grover_program,
    search_program,
    sequence_unitary,
    state_00,
)

GOLDEN = Path(__file__).parent / "golden"

offsets = st.floats(-400, 400, allow_nan=False)


def random_systems(count, seed=0):
    rng = np.random.default_rng(seed)
    systems = []
    for _ in range(count):
        j = float(rng.uniform(2, 20))
        nu1 = float(rng.uniform(-400, 400))
        nu2 = nu1 - float(rng.uniform(10 * j + 30, 10 * j + 500))
        systems.append(SpinSystem(nu1=nu1, nu2=nu2, j=j))
    return systems


field_numbers = st.one_of(
    st.floats(), st.integers(-720, 720), st.floats(allow_nan=False).map(np.float64)
)
field_values = {
    "target": st.sampled_from([1, 2, "both", np.int64(2), 3, "1", True, 1.0]),
    "angle_deg": field_numbers,
    "phase_deg": field_numbers,
    "duration": field_numbers,
    "soft_tp": field_numbers,
}


@st.composite
def candidate_events(draw):
    """A Pulse, Delay or Gradient built from its required fields, any of its
    optional ones and now and then a field it lacks, or None when the
    constructor rejects the mix: TypeError for a field the type lacks,
    ValueError for a value that cannot run.  Lacking fields are set less
    often, so that most candidates are accepted."""
    kind = draw(st.sampled_from([Pulse, Delay, Gradient]))
    required = {f.name: f.default is dataclasses.MISSING for f in dataclasses.fields(kind)}
    fields = {}
    for name, values in field_values.items():
        if name in required:
            chosen = required[name] or draw(st.booleans())
        else:
            chosen = draw(st.sampled_from([False, False, False, True]))
        if chosen:
            fields[name] = draw(values)
    try:
        return kind(**fields)
    except (TypeError, ValueError):
        return None


_ONE_LINE = st.text().filter(lambda t: "".join(t.splitlines()) == t)


class TestWireFormat:
    def test_round_trip(self):
        seq = PulseSequence(
            (
                Pulse(1, 90.0, 270.0),
                Pulse("both", 90.0, 90.0),
                Pulse(2, 180.0, 12.5, soft_tp=0.0012),
                Delay(1 / 28),
                Gradient(),
            ),
            notes=("demo sequence",),
        )
        text = format_sequence(seq)
        back = parse_sequence(text)
        assert back.events == seq.events
        assert back.notes == seq.notes
        # and the text itself is stable under a second round trip
        assert format_sequence(back) == text

    def test_compiled_oracle_round_trips(self):
        sys = SpinSystem()
        for label in ALL_LABELS:
            seq = compile_oracle(label, sys)
            assert parse_sequence(format_sequence(seq)).events == seq.events

    @pytest.mark.parametrize("note", ["note\nGRAD", "note\r\nGRAD", "note\rGRAD",
                                      "note\x0bGRAD", "note\u2028GRAD", "note\n"])
    def test_note_with_line_break_rejected(self, note):
        # written as a comment, the text after the break would parse as events
        with pytest.raises(ValueError, match="line break"):
            PulseSequence((), (note,))

    def test_one_line_notes_accepted(self):
        seq = PulseSequence((), ("", "phase row f00: theta=+y # and more"))
        assert parse_sequence(format_sequence(seq)) == seq

    @given(st.lists(st.tuples(st.text(" ", max_size=3), _ONE_LINE, _ONE_LINE,
                              st.text(" ", max_size=3)), max_size=4))
    def test_padded_notes_round_trip(self, parts):
        # only the single space after "#" is format_sequence's own
        notes = tuple(lead + head + "#" + tail + trail for lead, head, tail, trail in parts)
        seq = PulseSequence((Gradient(),), notes)
        assert parse_sequence(format_sequence(seq)) == seq

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nPULSE both 90.0 90.0  # inline\nDELAY 0.25\nGRAD\n"
        seq = parse_sequence(text)
        assert [type(ev) for ev in seq.events] == [Pulse, Delay, Gradient]

    @pytest.mark.parametrize(
        "line",
        ["PULSE 3 90 0", "PULSE 1 90", "DELAY", "DELAY 1 2", "WAIT 1", "GRAD now",
         "PULSE 1 90 0 HARD 1e-3"],
    )
    def test_malformed_lines_raise(self, line):
        with pytest.raises(ValueError):
            parse_sequence(line)

    @pytest.mark.parametrize("item", [object(), "GRAD", None])
    def test_non_event_not_written(self, item):
        # only the three event types have a wire form
        with pytest.raises(TypeError, match="not a pulse event"):
            format_sequence([Gradient(), item])

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1.0)

    @pytest.mark.parametrize(
        "line, fields",
        [
            ("PULSE both 90 0 SOFT 1e-3", (Pulse, {"target": "both", "angle_deg": 90.0,
                                                   "phase_deg": 0.0, "soft_tp": 1e-3})),
            ("DELAY nan", (Delay, {"duration": math.nan})),
            ("DELAY inf", (Delay, {"duration": math.inf})),
            ("PULSE 1 inf 0", (Pulse, {"target": 1, "angle_deg": math.inf, "phase_deg": 0.0})),
            ("PULSE 2 -inf 0", (Pulse, {"target": 2, "angle_deg": -math.inf, "phase_deg": 0.0})),
            ("PULSE 1 90 nan", (Pulse, {"target": 1, "angle_deg": 90.0, "phase_deg": math.nan})),
            ("PULSE 1 90 0 SOFT nan", (Pulse, {"target": 1, "angle_deg": 90.0, "phase_deg": 0.0,
                                               "soft_tp": math.nan})),
            ("PULSE 2 90 0 SOFT inf", (Pulse, {"target": 2, "angle_deg": 90.0, "phase_deg": 0.0,
                                               "soft_tp": math.inf})),
        ],
    )
    def test_unrunnable_events_rejected(self, line, fields):
        # rejected when built, not first when run
        kind, values = fields
        with pytest.raises(ValueError):
            kind(**values)
        with pytest.raises(ValueError):
            parse_sequence(line)

    @pytest.mark.parametrize(
        "fields",
        [
            (Delay, {"duration": 1.0, "soft_tp": 1e-3}, TypeError),
            (Delay, {"duration": 1.0, "target": 1}, TypeError),
            (Delay, {"duration": 1.0, "angle_deg": 90.0}, TypeError),
            (Delay, {"duration": 1.0, "phase_deg": 90.0}, TypeError),
            (Gradient, {"target": "both"}, TypeError),
            (Gradient, {"angle_deg": 90.0}, TypeError),
            (Gradient, {"phase_deg": 270.0}, TypeError),
            (Gradient, {"duration": 1e-3}, TypeError),
            (Gradient, {"soft_tp": 1e-3}, TypeError),
            (Pulse, {"target": 1, "angle_deg": 90.0, "phase_deg": 0.0, "duration": 1e-3},
             TypeError),
            (Pulse, {"target": True, "angle_deg": 90.0, "phase_deg": 0.0}, ValueError),
            (Pulse, {"target": 2.0, "angle_deg": 90.0, "phase_deg": 0.0}, ValueError),
        ],
    )
    def test_fields_the_kind_ignores_rejected(self, fields):
        # a field the type lacks cannot be set, and a target that would not
        # print as the word the parser reads back is refused
        kind, values, error = fields
        with pytest.raises(error):
            kind(**values)

    @given(st.lists(candidate_events(), max_size=20))
    @example([
        Pulse(np.int64(1), np.float64(90.0), np.float64(45), soft_tp=np.float64(1e-3)),
        Delay(np.float64(0.25)),
    ])
    def test_every_accepted_event_round_trips(self, candidates):
        events = tuple(ev for ev in candidates if ev is not None)
        assert parse_sequence(format_sequence(events)).events == events

    @pytest.mark.parametrize("name, sys", [("default", SpinSystem()), ("j6.5", SpinSystem(j=6.5))],
                             ids=["default", "j6.5"])
    def test_search_programs_match_golden_text(self, name, sys):
        # the four programs of an experiment set, built from oracles compiled
        # once, written exactly as recorded and read back to the same events
        oracles = {label: compile_oracle(label, sys) for label in ALL_LABELS}
        programs = [grover_program(label, oracles) for label in ALL_LABELS]
        golden = (GOLDEN / f"search_programs_{name}.txt").read_bytes()
        assert "".join(format_sequence(p) for p in programs).encode() == golden
        back = parse_sequence(golden.decode())
        assert back.events == tuple(ev for p in programs for ev in p.events)
        assert back.notes == tuple(note for p in programs for note in p.notes)


class TestOracleCompiler:
    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
    def test_matches_ideal_oracle_random_offsets(self, label):
        ideal = oracle_matrix(label)
        for sys in random_systems(5, seed=label.index):
            u = sequence_unitary(sys, compile_oracle(label, sys))
            assert equal_up_to_global_phase(u, ideal, 1e-10)

    def test_offset_independent(self):
        label = OracleLabel(1, 1)
        a, b = random_systems(2, seed=9)
        ua = sequence_unitary(a, compile_oracle(label, a))
        ub = sequence_unitary(b, compile_oracle(label, b))
        assert equal_up_to_global_phase(ua, ub, 1e-10)

    def test_only_90_180_pulses_and_quarter_j_delays(self):
        sys = SpinSystem(j=11.0)
        for label in ALL_LABELS:
            for ev in compile_oracle(label, sys).events:
                if isinstance(ev, Pulse):
                    assert ev.angle_deg in (90.0, 180.0)
                else:
                    assert isinstance(ev, Delay)
                    assert ev.duration == pytest.approx(1 / (4 * 11.0), abs=1e-15)

    def test_exactly_five_label_dependent_phases(self):
        sys = SpinSystem()
        sequences = [compile_oracle(label, sys).events for label in ALL_LABELS]
        lengths = {len(events) for events in sequences}
        assert lengths == {12}
        varying = 0
        for position in range(12):
            events = [seq[position] for seq in sequences]
            assert len({type(ev) for ev in events}) == 1
            if isinstance(events[0], Pulse):
                if len({ev.phase_deg for ev in events}) > 1:
                    varying += 1
        assert varying == 5

    def test_programs_share_their_pulses(self):
        # pulses are immutable, so a set's oracles and programs hold one
        # object per distinct pulse, which a table finds by identity
        oracles = {label: compile_oracle(label, SpinSystem()) for label in ALL_LABELS}
        programs = [grover_program(label, oracles) for label in ALL_LABELS]
        pulses = [ev for program in programs for ev in program if isinstance(ev, Pulse)]
        assert len({id(ev) for ev in pulses}) == len(set(pulses)) < len(pulses)

    def test_variable_phases_drawn_from_table(self):
        sys = SpinSystem()
        for label in ALL_LABELS:
            row = ORACLE_PHASE_TABLE[ROW_FOR_LABEL[label.name]]
            allowed = {PHASE_DEG[row.theta], PHASE_DEG[row.phi], PHASE_DEG[row.psi],
                       PHASE_DEG["+x"], PHASE_DEG["-x"]}
            for ev in compile_oracle(label, sys).events:
                if isinstance(ev, Pulse):
                    assert ev.phase_deg in allowed

    def test_phase_rows_map_to_bit_swapped_labels(self):
        # the documented permutation: each phase-table row compiles to the
        # oracle whose label has the qubit bits swapped
        sys = SpinSystem()
        for label in ALL_LABELS:
            row_label = OracleLabel.from_name(ROW_FOR_LABEL[label.name])
            assert row_label == label.swapped()
        u01 = sequence_unitary(sys, compile_oracle(OracleLabel(0, 1), sys))
        assert equal_up_to_global_phase(u01, oracle_matrix(OracleLabel(0, 1)), 1e-10)

    def test_unitary_at_tight_tolerance(self):
        sys = SpinSystem()
        for label in ALL_LABELS:
            assert is_unitary(sequence_unitary(sys, compile_oracle(label, sys)), 1e-12)

    @pytest.mark.parametrize(
        "name,row,diag",
        [("f00", ("+y", "+x", "-y"), [-1, 1, 1, 1]), ("f11", ("-y", "+x", "+y"), [1, 1, 1, -1])],
    )
    def test_permutation_fixed_points_use_literal_rows(self, name, row, diag):
        # f00 and f11 are fixed points of the row permutation, so their
        # compiled sequences carry exactly the tabulated (theta, phi, psi)
        sys = SpinSystem()
        label = OracleLabel.from_name(name)
        entry = ORACLE_PHASE_TABLE[ROW_FOR_LABEL[name]]
        assert (entry.theta, entry.phi, entry.psi) == row
        u = sequence_unitary(sys, compile_oracle(label, sys))
        assert equal_up_to_global_phase(u, np.diag(diag).astype(complex), 1e-10)


class TestRunSequence:
    def test_empty_sequence_is_identity(self):
        rho0 = pseudo_pure_00(0.7)
        table = PropagatorTable(SpinSystem())
        assert np.array_equal(run_sequence(table, PulseSequence(()), rho0), rho0)

    def test_gradient_event_crushes(self):
        from spinsearch.core import coherence_order_matrix

        table = PropagatorTable(SpinSystem())
        pulsed = run_sequence(table, PulseSequence((Pulse("both", 90.0, 0.0),)), state_00())
        crushed = run_sequence(
            table, PulseSequence((Pulse("both", 90.0, 0.0), Gradient())), state_00()
        )
        orders = coherence_order_matrix(2)
        assert np.max(np.abs(crushed[orders != 0])) == 0.0
        assert np.array_equal(crushed[orders == 0], pulsed[orders == 0])

    @pytest.mark.parametrize("label", ALL_LABELS, ids=lambda l: l.name)
    def test_full_program_reproduces_gate_level(self, label):
        sys = SpinSystem()
        rho = run_sequence(PropagatorTable(sys), search_program(label, sys), pseudo_pure_00(1.0))
        assert fidelity(grover2_circuit(label), rho) >= 1 - 1e-9

    def test_f10_program_explicit(self):
        sys = SpinSystem()
        rho = run_sequence(
            PropagatorTable(sys), search_program(OracleLabel(1, 0), sys), pseudo_pure_00(1.0)
        )
        assert fidelity(basis_state(2, 2), rho) >= 1 - 1e-9

    def test_half_purity_diagonal(self):
        sys = SpinSystem()
        label = OracleLabel(1, 0)
        rho = run_sequence(PropagatorTable(sys), search_program(label, sys), pseudo_pure_00(0.5))
        expected = np.full(4, (1 - 0.5) / 4)
        expected[label.index] += 0.5
        assert np.allclose(np.diag(rho).real, expected, atol=1e-12)

    @given(st.floats(0.05, 1.0, allow_nan=False))
    def test_linear_in_purity(self, eps):
        sys = SpinSystem()
        table = PropagatorTable(sys)
        program = search_program(OracleLabel(0, 1), sys)
        diag_full = np.diag(run_sequence(table, program, pseudo_pure_00(1.0))).real
        diag_eps = np.diag(run_sequence(table, program, pseudo_pure_00(eps))).real
        predicted = (1 - eps) * np.full(4, 0.25) + eps * diag_full
        assert np.max(np.abs(diag_eps - predicted)) <= 1e-10

    def test_sequence_unitary_rejects_gradient(self):
        with pytest.raises(ValueError, match="gradient"):
            sequence_unitary(SpinSystem(), PulseSequence((Gradient(),)))


def per_event_fold(sys, events, rho, err):
    """Reference executor: one propagator and one conjugation per event."""
    for ev in events:
        if isinstance(ev, Gradient):
            rho = gradient_crush(rho)
        else:
            rho = apply_unitary(event_operator(sys, ev, err), rho)
    return rho


def per_event_unitary(sys, events, err):
    """Reference unitary: the per-event fold applied to each basis ket."""
    columns = []
    for index in range(4):
        psi = basis_state(2, index)
        for ev in events:
            psi = apply_unitary(event_operator(sys, ev, err), psi)
        columns.append(psi)
    return np.stack(columns, axis=1)


def random_density(seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


FOLD_SYSTEM = SpinSystem(nu1=93.0, nu2=-71.5, j=6.5)
P1 = Pulse(1, 90.0, 270.0)
P2 = Pulse(2, 180.0, 0.0, soft_tp=2e-4)
PB = Pulse("both", 90.0, 90.0)
TAU = Delay(FOLD_SYSTEM.tau)
GRAD = Gradient()
fold_events = st.one_of(
    st.sampled_from([P1, P2, PB, TAU, GRAD]),
    st.builds(Pulse, st.sampled_from([1, 2, "both"]), st.floats(-360, 360), st.floats(0, 360)),
    st.builds(Delay, st.floats(0, 0.1)),
)
fold_errors = st.sampled_from([ErrorModel(), ErrorModel("soft-pulse", 1e-4)])


class TestPropagatorFold:
    @pytest.mark.parametrize(
        "events",
        [
            [],
            [GRAD, P1, P2, P1],
            [P1, TAU, PB, GRAD, P1, TAU, PB],
            [P1, P2, TAU, P2, GRAD],
            [GRAD, GRAD, P1, GRAD],
            [P2] * 6,
        ],
        ids=["empty", "grad-start", "grad-middle", "grad-end", "grads-only-between", "repeated"],
    )
    @pytest.mark.parametrize("err", [ErrorModel(), ErrorModel("soft-pulse", 1e-4)],
                             ids=["ideal", "soft"])
    def test_run_sequence_matches_per_event_fold(self, events, err):
        rho0 = random_density(7)
        got = run_sequence(PropagatorTable(FOLD_SYSTEM, err), events, rho0)
        want = per_event_fold(FOLD_SYSTEM, events, rho0, err)
        assert np.max(np.abs(got - want)) <= 1e-12

    @given(st.lists(fold_events, max_size=30), fold_errors)
    def test_random_lists_match_per_event_fold(self, events, err):
        rho0 = random_density(3)
        got = run_sequence(PropagatorTable(FOLD_SYSTEM, err), events, rho0)
        assert np.max(np.abs(got - per_event_fold(FOLD_SYSTEM, events, rho0, err))) <= 1e-12
        unitary_events = [ev for ev in events if not isinstance(ev, Gradient)]
        got_u = sequence_unitary(FOLD_SYSTEM, unitary_events, err)
        want_u = per_event_unitary(FOLD_SYSTEM, unitary_events, err)
        assert np.max(np.abs(got_u - want_u)) <= 1e-12

    @given(st.lists(fold_events, max_size=30), fold_errors, st.data())
    def test_joined_sequences_match_per_event_fold(self, events, err, data):
        # cut the events into parts, gradient-free stretches nested up to
        # two deep as sub-sequences: the joined sequence is the flat one
        def joined(chunk, depth):
            parts = []
            while chunk:
                size = data.draw(st.integers(1, len(chunk)))
                piece, chunk = chunk[:size], chunk[size:]
                nest = depth < 2 and not any(isinstance(ev, Gradient) for ev in piece)
                if nest and data.draw(st.booleans()):
                    parts.append(joined(piece, depth + 1))
                else:
                    parts.extend(piece)
            return PulseSequence.joined(tuple(parts), ("joined",))

        seq = joined(list(events), 0)
        flat = PulseSequence(tuple(events), ("joined",))
        assert seq == flat and hash(seq) == hash(flat)
        assert format_sequence(seq) == format_sequence(flat)
        rho0 = random_density(3)
        got = run_sequence(PropagatorTable(FOLD_SYSTEM, err), seq, rho0)
        assert np.max(np.abs(got - per_event_fold(FOLD_SYSTEM, events, rho0, err))) <= 1e-12

    def test_sub_sequence_with_gradient_has_no_propagator(self):
        seq = PulseSequence.joined((P1, PulseSequence((P2, GRAD, P1))))
        with pytest.raises(ValueError, match="gradient has no propagator"):
            run_sequence(PropagatorTable(FOLD_SYSTEM), seq, pseudo_pure_00(1.0))

    def test_plain_sequence_parts_are_its_events(self):
        seq = PulseSequence((P1, TAU, GRAD))
        assert seq.parts is seq.events
        empty = PulseSequence.joined((PulseSequence(()),))
        assert empty.events == ()
        assert np.array_equal(
            run_sequence(PropagatorTable(FOLD_SYSTEM), empty, pseudo_pure_00(0.3)),
            pseudo_pure_00(0.3),
        )

    def test_each_distinct_propagator_built_once(self, monkeypatch):
        built = []
        original = sequence.event_operator

        def counting(sys, ev, err):
            built.append(ev)
            return original(sys, ev, err)

        monkeypatch.setattr(sequence, "event_operator", counting)
        program = search_program(OracleLabel(1, 0), FOLD_SYSTEM)
        table = PropagatorTable(FOLD_SYSTEM, ErrorModel("soft-pulse", 1e-4))
        run_sequence(table, program, pseudo_pure_00(1.0))
        assert len(built) == len(set(built)) == len(set(program.events)) < len(program)

    def test_non_unitary_propagator_rejected(self, monkeypatch):
        monkeypatch.setattr(sequence, "event_operator", lambda sys, ev, err: 2 * np.eye(4))
        with pytest.raises(ValueError, match="not unitary"):
            run_sequence(PropagatorTable(FOLD_SYSTEM), [P1], pseudo_pure_00(1.0))
        with pytest.raises(ValueError, match="not unitary"):
            sequence_unitary(FOLD_SYSTEM, [P1])


SOFT = ErrorModel("soft-pulse", 1e-4)
set_errors = st.one_of(
    st.just(IDEAL), st.floats(1e-6, 1e-3).map(lambda t_p: ErrorModel("soft-pulse", t_p))
)


class TestPropagatorTable:
    @given(
        st.floats(40, 200),
        st.floats(-200, -40),
        st.floats(2, 7.5),
        set_errors,
        st.floats(0, 1, exclude_min=True),
    )
    def test_set_matches_per_program_runs(self, nu1, nu2, j, err, eps):
        sys = SpinSystem(nu1=nu1, nu2=nu2, j=j)
        runs = []

        def recording(*args, **kwargs):
            rho = run_sequence(*args, **kwargs)
            runs.append(rho)
            return rho

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "run_sequence", recording)
            # an unreadable spectrum ends the set early; the runs before it
            # still count, but a rejected reference leaves none to compare
            with contextlib.suppress(AmbiguousReadoutError):
                run_experiments(sys, AcquisitionParams(), eps, err)
        assume(runs)
        for label, rho in zip(ALL_LABELS, runs):
            # the package's own program on a table of its own: the same
            # factors folded the same way, so sharing changes no bit
            program = search_program(label, sys)
            want = run_sequence(PropagatorTable(sys, err), program, pseudo_pure_00(eps))
            assert np.array_equal(rho, want)

    @given(
        st.floats(40, 200),
        st.floats(-200, -40),
        st.floats(2, 7.5),
        set_errors,
        st.floats(0, 1, exclude_min=True),
    )
    def test_set_programs_match_per_event_fold(self, nu1, nu2, j, err, eps):
        # each program, folded as five factors on the set's table, is the
        # one-event-at-a-time fold of its 27 events to rounding
        sys = SpinSystem(nu1=nu1, nu2=nu2, j=j)
        runs = []

        def recording(table, seq, rho0):
            rho = run_sequence(table, seq, rho0)
            runs.append((seq, rho0, rho))
            return rho

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(experiment, "run_sequence", recording)
            with contextlib.suppress(AmbiguousReadoutError):
                run_experiments(sys, AcquisitionParams(n_points=1024), eps, err)
        assert len(runs) == len(ALL_LABELS)
        for seq, rho0, rho in runs:
            assert len(seq.events) == 27 and len(seq.parts) == 5
            want = per_event_fold(sys, seq.events, rho0, err)
            assert np.max(np.abs(rho - want)) <= 1e-12

    @pytest.mark.parametrize("err", [IDEAL, SOFT], ids=["ideal", "soft"])
    def test_set_folds_each_oracle_once(self, monkeypatch, err):
        built, requested = [], []
        original_operator = sequence.event_operator
        original_propagator = PropagatorTable.propagator

        def counting(sys, ev, err):
            built.append(ev)
            return original_operator(sys, ev, err)

        def recording(table, part):
            requested.append(part)
            return original_propagator(table, part)

        monkeypatch.setattr(sequence, "event_operator", counting)
        monkeypatch.setattr(PropagatorTable, "propagator", recording)
        run_experiments(FOLD_SYSTEM, AcquisitionParams(), 1.0, err)
        assert len(built) == len(set(built)) == 15
        sequences = [part for part in requested if isinstance(part, PulseSequence)]
        events = [part for part in requested if not isinstance(part, PulseSequence)]
        # two oracle parts a program, four distinct oracles a set: the f00
        # oracle is also every program's |00> reflection
        assert len(sequences) == 2 * len(ALL_LABELS)
        assert len({id(seq) for seq in sequences}) == len(ALL_LABELS)
        # each oracle's 12 events are read once, when its product is
        # folded, beside the three pulses each program reads directly
        assert len(events) == 12 * len(ALL_LABELS) + 3 * len(ALL_LABELS)

    def test_set_builds_each_distinct_event_once(self, monkeypatch):
        built = []
        original = sequence.event_operator

        def counting(sys, ev, err):
            built.append(ev)
            return original(sys, ev, err)

        monkeypatch.setattr(sequence, "event_operator", counting)
        run_experiments(FOLD_SYSTEM, AcquisitionParams(), 1.0, SOFT)
        programs = [reference_grover_program(label, FOLD_SYSTEM).events for label in ALL_LABELS]
        distinct = {ev for events in programs for ev in events}
        assert len(built) == len(set(built)) == len(distinct) < len(programs[0])

    @pytest.mark.parametrize("err", [IDEAL, SOFT], ids=["ideal", "soft"])
    def test_set_compiles_each_oracle_once(self, monkeypatch, err):
        compiled, programs = [], []
        original_compile, original_run = sequence.compile_oracle, experiment.run_sequence

        def counting(label, sys):
            compiled.append(label)
            return original_compile(label, sys)

        def recording(table, seq, rho0):
            programs.append(seq)
            return original_run(table, seq, rho0)

        for module in (sequence, experiment):
            monkeypatch.setattr(module, "compile_oracle", counting)
        monkeypatch.setattr(experiment, "run_sequence", recording)
        run_experiments(FOLD_SYSTEM, AcquisitionParams(), 1.0, err)
        # the f00 oracle is also every program's |00> reflection, so the
        # four labels are all the distinct oracles of a set
        assert len(compiled) == len(set(compiled)) == len(ALL_LABELS)
        assert len(programs) == len(ALL_LABELS)
        for label, program in zip(ALL_LABELS, programs):
            assert program == reference_grover_program(label, FOLD_SYSTEM)

    def test_stored_propagators_read_only(self):
        table = PropagatorTable(FOLD_SYSTEM, SOFT)
        run_sequence(table, [P1, P2, TAU, GRAD, PB, P1], random_density(5))
        assert set(table.built) == {P1, P2, TAU, PB}
        for u in table.built.values():
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 0.0
        # a unitary handed out is the caller's own, even for one event
        assert sequence_unitary(FOLD_SYSTEM, [P1], SOFT).flags.writeable

    def test_propagators_cannot_be_passed_in(self):
        # the only way into a table is propagator(), which checks unitarity
        with pytest.raises(TypeError):
            PropagatorTable(FOLD_SYSTEM, SOFT, {P1: 2 * np.eye(4)})


class TestPulseOperator:
    def test_ideal_90y_spin1(self):
        from spinsearch.core import IDENTITY_2
        from spinsearch.grover import pseudo_hadamard
        from spinsearch.sequence import pulse_operator

        u = pulse_operator(SpinSystem(), Pulse(1, 90.0, 90.0))
        assert np.allclose(u, np.kron(pseudo_hadamard(), IDENTITY_2), atol=1e-15)

    def test_rejects_non_pulse_event(self):
        from spinsearch.sequence import pulse_operator

        with pytest.raises(ValueError, match="pulse event"):
            pulse_operator(SpinSystem(), Delay(0.1))

    def test_soft_mode_differs_from_ideal(self):
        from spinsearch.sequence import pulse_operator

        sys = SpinSystem()
        ideal = pulse_operator(sys, Pulse(2, 90.0, 0.0))
        soft = pulse_operator(sys, Pulse(2, 90.0, 0.0), ErrorModel("soft-pulse", 1e-3))
        assert np.max(np.abs(ideal - soft)) > 1e-4


class TestErrorModelExecution:
    def test_soft_model_changes_result(self):
        sys = SpinSystem()
        label = OracleLabel(0, 1)
        program = search_program(label, sys)
        ideal_rho = run_sequence(PropagatorTable(sys), program, pseudo_pure_00(1.0))
        soft_table = PropagatorTable(sys, ErrorModel("soft-pulse", 1e-3))
        soft_rho = run_sequence(soft_table, program, pseudo_pure_00(1.0))
        assert np.max(np.abs(ideal_rho - soft_rho)) > 1e-3

    def test_event_level_soft_marker_wins(self):
        sys = SpinSystem()
        seq = PulseSequence((Pulse(1, 90.0, 0.0, soft_tp=1e-3),))
        forced = sequence_unitary(sys, seq)
        modelled = sequence_unitary(
            sys, PulseSequence((Pulse(1, 90.0, 0.0),)), ErrorModel("soft-pulse", 1e-3)
        )
        assert np.allclose(forced, modelled, atol=1e-15)

    @pytest.mark.parametrize("line", ["PULSE 1 90 0 SOFT 1e306", "PULSE 2 180 90 SOFT 1e308"])
    def test_overflowing_wire_soft_pulse_rejected(self, line):
        with pytest.raises(ValueError, match="t_p .* rotation overflows"):
            sequence_unitary(SpinSystem(), parse_sequence(line))

    def test_both_target_pulses_stay_hard(self):
        sys = SpinSystem()
        seq = PulseSequence((Pulse("both", 90.0, 90.0),))
        with_err = sequence_unitary(sys, seq, ErrorModel("soft-pulse", 1e-3))
        without = sequence_unitary(sys, seq)
        assert np.array_equal(with_err, without)

    def test_fidelity_decays_then_recovers_nothing(self):
        # geometric grid inside the perturbative window: strictly decaying
        sys = SpinSystem()
        label = OracleLabel(0, 0)
        target = basis_state(2, label.index)
        fids = []
        for tp in np.geomspace(1e-6, 5e-4, 5):
            table = PropagatorTable(sys, ErrorModel("soft-pulse", float(tp)))
            rho = run_sequence(table, search_program(label, sys), pseudo_pure_00(1.0))
            fids.append(fidelity(target, rho))
        assert all(b <= a + 1e-9 for a, b in zip(fids, fids[1:]))
        assert fids[0] > 0.999
