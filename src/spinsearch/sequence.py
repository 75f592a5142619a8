"""Pulse sequences: event types, a line-based wire format, the compiler that
turns an oracle label into RF pulses and delays, and the executor that runs a
sequence on a propagator table, which holds the spin system and error model.

A sequence runs part by part.  Most sequences' parts are their events; a
search program's five parts are the inverse-h pair, the compiled oracle, the
h pair, the compiled |00> reflection and the inverse-h pair, and the table
an experiment set shares folds each compiled oracle's 12-event product once,
so a program's propagator is the product of five factors.

Wire format, one event per line ('#' starts a comment):

    PULSE <target> <angle_deg> <phase_deg> [SOFT <t_p>]
    DELAY <seconds>
    GRAD

with target one of 1, 2, both (SOFT only for 1 or 2), and notes as one-line
comments.  Round-trips bit-exactly through repr floats.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

import numpy as np

from .core import apply_unitary, is_unitary
from .grover import ALL_LABELS, OracleLabel
from .spins import (
    ErrorModel,
    IDEAL,
    SpinSystem,
    TARGET_BOTH,
    free_evolution,
    gradient_crush,
    ideal_pulse,
    soft_pulse,
)

# Pulse phase convention: +x=0, +y=90, -x=180, -y=270 degrees.
PHASE_DEG = {"+x": 0.0, "+y": 90.0, "-x": 180.0, "-y": 270.0}

# Pulse targets by the word the wire format writes for them.
_TARGET_WORDS = {"1": 1, "2": 2, TARGET_BOTH: TARGET_BOTH}


@dataclass(frozen=True)
class Pulse:
    """An RF pulse: target (1, 2 or 'both'), flip angle and phase in degrees,
    and an optional soft duration.  ``soft_tp`` forces the finite-duration
    propagator for this pulse regardless of the run's error model.  A pulse
    that cannot run (a non-finite number, SOFT on a pulse to both spins) is
    rejected here rather than when run, so every accepted pulse survives the
    wire format unchanged.
    """

    target: int | str
    angle_deg: float
    phase_deg: float
    soft_tp: float | None = None

    def __post_init__(self) -> None:
        # the target must also print as the word the parser reads back,
        # which rules out True and 1.0
        word = str(self.target)
        if word not in _TARGET_WORDS or _TARGET_WORDS[word] != self.target:
            raise ValueError(f"unknown pulse target {self.target!r}")
        if not (math.isfinite(self.angle_deg) and math.isfinite(self.phase_deg)):
            raise ValueError("angle_deg and phase_deg must be finite")
        if self.soft_tp is not None:
            if not (math.isfinite(self.soft_tp) and self.soft_tp > 0):
                raise ValueError("SOFT duration must be positive and finite")
            if self.target == TARGET_BOTH:
                raise ValueError("SOFT pulses address a single spin")


@dataclass(frozen=True)
class Delay:
    """Free evolution for ``duration`` seconds, finite and >= 0."""

    duration: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.duration) and self.duration >= 0):
            raise ValueError("delay duration must be finite and >= 0")


@dataclass(frozen=True)
class Gradient:
    """A gradient crusher: zeroes every nonzero coherence order."""


PulseEvent = Pulse | Delay | Gradient


@dataclass(frozen=True)
class PulseSequence:
    """Ordered events plus one-line notes (serialized as comments; a line
    break in a note is rejected, as its tail would read back as events).

    ``parts`` is what ``run_sequence`` folds: the events themselves, or, for
    a sequence built by ``joined``, its events grouped into single events
    and sub-sequences.  Parts are neither compared nor written, so a joined
    sequence equals, and formats as, the flat sequence of its events.
    """

    events: tuple[PulseEvent, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)
    parts: tuple[PulseEvent | PulseSequence, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for note in self.notes:
            if "".join(note.splitlines()) != note:
                raise ValueError(f"note {note!r} contains a line break")
        object.__setattr__(self, "parts", self.events)

    @classmethod
    def joined(
        cls, parts: tuple[PulseEvent | PulseSequence, ...], notes: tuple[str, ...] = ()
    ) -> PulseSequence:
        """The sequence of ``parts`` in order, each an event or a
        gradient-free sub-sequence, which a ``PropagatorTable`` folds into
        one propagator once, however many sequences share it."""
        events: tuple[PulseEvent, ...] = ()
        for part in parts:
            events += part.events if isinstance(part, PulseSequence) else (part,)
        seq = cls(events, notes)
        object.__setattr__(seq, "parts", tuple(parts))
        return seq

    def __iter__(self):
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


def format_sequence(seq: PulseSequence | list[PulseEvent]) -> str:
    """Serialize to the line-based text format."""
    lines = [f"# {note}" for note in getattr(seq, "notes", ())]
    for ev in seq:
        if isinstance(ev, Pulse):
            line = f"PULSE {ev.target} {float(ev.angle_deg)!r} {float(ev.phase_deg)!r}"
            if ev.soft_tp is not None:
                line += f" SOFT {float(ev.soft_tp)!r}"
            lines.append(line)
        elif isinstance(ev, Delay):
            lines.append(f"DELAY {float(ev.duration)!r}")
        elif isinstance(ev, Gradient):
            lines.append("GRAD")
        else:
            raise TypeError(f"not a pulse event: {ev!r}")
    return "\n".join(lines) + "\n"


def parse_sequence(text: str) -> PulseSequence:
    """Parse the line-based text format; inverse of format_sequence."""
    events: list[PulseEvent] = []
    notes: list[str] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)
        if len(line) == 2 and not line[0].strip():
            notes.append(line[1].removeprefix(" "))  # the space format_sequence writes
        body = line[0].strip()
        if not body:
            continue
        parts = body.split()
        word = parts[0].upper()
        if word == "PULSE":
            if len(parts) not in (4, 6):
                raise ValueError(f"malformed PULSE line: {raw!r}")
            # an unknown target word stays a string, which Pulse rejects
            target = _TARGET_WORDS.get(parts[1], parts[1])
            soft_tp = None
            if len(parts) == 6:
                if parts[4].upper() != "SOFT":
                    raise ValueError(f"malformed PULSE line: {raw!r}")
                soft_tp = float(parts[5])
            events.append(Pulse(target, float(parts[2]), float(parts[3]), soft_tp))
        elif word == "DELAY":
            if len(parts) != 2:
                raise ValueError(f"malformed DELAY line: {raw!r}")
            events.append(Delay(float(parts[1])))
        elif word == "GRAD":
            if len(parts) != 1:
                raise ValueError(f"malformed GRAD line: {raw!r}")
            events.append(Gradient())
        else:
            raise ValueError(f"unknown event {parts[0]!r}")
    return PulseSequence(tuple(events), tuple(notes))


# The four phase rows (theta, phi, psi) keyed by function label.  The five
# label-dependent pulse phases of a compiled oracle are drawn from these.
@dataclass(frozen=True)
class PhaseTableEntry:
    theta: str
    phi: str
    psi: str


ORACLE_PHASE_TABLE = {
    "f00": PhaseTableEntry("+y", "+x", "-y"),
    "f01": PhaseTableEntry("+y", "-x", "+y"),
    "f10": PhaseTableEntry("-y", "-x", "-y"),
    "f11": PhaseTableEntry("-y", "+x", "+y"),
}

# Under this package's rotation and phase conventions the phase rows produce
# the oracle of the bit-swapped label (the f01 and f10 rows trade places),
# verified by unitary equivalence in the test suite.  The compiler keys the
# table accordingly and notes the permutation on the emitted sequence.
ROW_FOR_LABEL = {label.name: label.swapped().name for label in ALL_LABELS}


# Every hard pulse the compiler emits: 90 and 180 degrees on each target at
# each named phase.  Events are immutable, so all programs share these
# objects, and a propagator table finds each by identity instead of building
# and comparing a new one per oracle.
_PULSES = {
    (target, angle, name): Pulse(target, angle, phase)
    for target in _TARGET_WORDS.values()
    for angle in (90.0, 180.0)
    for name, phase in PHASE_DEG.items()
}


def compile_oracle(label: OracleLabel, sys: SpinSystem) -> PulseSequence:
    """Compile the sign-flip oracle for ``label`` into pulses and 1/(4J)
    delays.

    Layout: a composite z-rotation sandwich on each spin (middle pulse phase
    theta on spin 1, psi on spin 2, opposite handedness), then the coupling
    block tau - 180(both) - tau - 180(both), whose first pair and the spin-1
    member of the second pair carry phase phi.  Ideal-pulse unitary equals
    the diagonal oracle up to global phase for any offsets (shifts refocus in
    the echo); exactly five pulse phases vary with the label.
    """
    row_name = ROW_FOR_LABEL[label.name]
    row = ORACLE_PHASE_TABLE[row_name]
    tau = Delay(sys.tau)
    events = (
        # composite z on spin 1: Rz(+90) for theta=+y, Rz(-90) for theta=-y
        _PULSES[1, 90.0, "-x"],
        _PULSES[2, 90.0, "+x"],
        _PULSES[1, 90.0, row.theta],
        _PULSES[2, 90.0, row.psi],
        _PULSES[1, 90.0, "+x"],
        _PULSES[2, 90.0, "-x"],
        # J coupling for 1/(2J) with shifts refocused
        tau,
        _PULSES[1, 180.0, row.phi],
        _PULSES[2, 180.0, row.phi],
        tau,
        _PULSES[1, 180.0, row.phi],
        _PULSES[2, 180.0, "+x"],
    )
    notes = (
        f"oracle {label.name}: sign flip on |{label.a}{label.b}>",
        f"phase row {row_name}: theta={row.theta} phi={row.phi} psi={row.psi}"
        " (rows map to labels with the qubit bits swapped)",
    )
    return PulseSequence(events, notes)


def hadamard_pair(inverse: bool = False) -> Pulse:
    """90(+y) pulse on both spins (the pseudo-Hadamard pair), or 90(-y) for
    the inverse."""
    return _PULSES[TARGET_BOTH, 90.0, "-y" if inverse else "+y"]


def grover_program(
    label: OracleLabel, oracles: Mapping[OracleLabel, PulseSequence]
) -> PulseSequence:
    """Full pulse program of the two-qubit search: inverse-h pair, compiled
    oracle, h pair, compiled |00> reflection, inverse-h pair.

    ``oracles`` maps labels to their ``compile_oracle`` sequences and must
    hold ``label`` and f00, whose oracle is the |00> reflection; an
    experiment set compiles each oracle once and builds all four programs
    from them.  The program holds its 27 events and, as its five parts,
    the three pulses and the two oracle sequences themselves, so a table
    shared by the set folds each oracle's product once.
    """
    u_fab = oracles[label]
    h_inverse = hadamard_pair(inverse=True)
    parts = (h_inverse, u_fab, hadamard_pair(), oracles[OracleLabel(0, 0)], h_inverse)
    notes = (f"two-qubit search program for {label.name}",) + u_fab.notes[1:]
    return PulseSequence.joined(parts, notes)


def pulse_operator(sys: SpinSystem, ev: PulseEvent, err: ErrorModel = IDEAL) -> np.ndarray:
    """Unitary of a pulse event under the given error model.

    An event-level SOFT duration always wins; otherwise the error model
    decides whether single-spin pulses get the finite-duration propagator.
    Pulses addressed to both spins stay ideal (hard pulses).
    """
    if not isinstance(ev, Pulse):
        raise ValueError(f"expected a pulse event, got {ev!r}")
    if ev.soft_tp is not None:
        return soft_pulse(sys, ev.target, ev.angle_deg, ev.phase_deg, ev.soft_tp)
    if err.mode == "soft-pulse" and ev.target in (1, 2):
        return soft_pulse(sys, ev.target, ev.angle_deg, ev.phase_deg, err.t_p)
    return ideal_pulse(ev.target, ev.angle_deg, ev.phase_deg)


def event_operator(sys: SpinSystem, ev: PulseEvent, err: ErrorModel = IDEAL) -> np.ndarray:
    """Unitary propagator of a pulse or delay event (gradients are not
    unitary; run_sequence handles them)."""
    if isinstance(ev, Delay):
        return free_evolution(sys, ev.duration)
    return pulse_operator(sys, ev, err)


@dataclass(frozen=True, eq=False)
class PropagatorTable:
    """The propagators of the distinct events and sub-sequences of one
    experiment set.

    The four programs of a set share most of their pulses, all of their
    delays and their compiled oracles, so ``run_experiments`` builds one
    table for the set, fills it with one ``build`` over the events of all
    four programs and passes it to each ``run_sequence`` call.  A table is
    the only holder of the system and error model its sequences run under.
    ``build`` is the only way into the table: it builds each distinct event's
    propagator once, checks the batch unitary at 1e-10 in one stacked check
    and stores it read-only (``built``, keyed by the event).  Each
    sub-sequence's product, the fold of its parts' propagators, is built
    once too and stored read-only with the sequence (``folded``, keyed by
    the sequence's identity, so a lookup never hashes its events).
    """

    system: SpinSystem
    error: ErrorModel = IDEAL
    built: dict[PulseEvent, np.ndarray] = field(default_factory=dict, init=False, repr=False)
    folded: dict[int, tuple[PulseSequence, np.ndarray]] = field(
        default_factory=dict, init=False, repr=False
    )

    def build(self, events: Iterable[PulseEvent]) -> None:
        """Build the propagator of every event in ``events`` that the table
        lacks, check them all unitary at 1e-10 at once, and only then store
        them.  If one fails, raise ValueError naming the first that fails,
        and store none."""
        # dedupe by identity first: compiled programs share their event
        # objects, so only the distinct objects are hashed
        distinct = {id(ev): ev for ev in events}.values()
        missing = [ev for ev in dict.fromkeys(distinct) if ev not in self.built]
        if not missing:
            return
        us = [event_operator(self.system, ev, self.error) for ev in missing]
        if not is_unitary(np.stack(us)):
            bad = next(ev for ev, u in zip(missing, us) if not is_unitary(u))
            raise ValueError(f"propagator of {bad} is not unitary at tolerance 1e-10")
        for ev, u in zip(missing, us):
            u.setflags(write=False)
            self.built[ev] = u

    def propagator(self, part: PulseEvent | PulseSequence) -> np.ndarray:
        """The propagator of an event, built on its first use if ``build``
        has not built it, or the product of a gradient-free sub-sequence's
        parts (earliest applied first)."""
        if isinstance(part, PulseSequence):
            return self._product(part)
        u = self.built.get(part)
        if u is None:
            self.build((part,))
            u = self.built[part]
        return u

    def _product(self, seq: PulseSequence) -> np.ndarray:
        """The fold of ``seq``'s parts, built on its first use."""
        entry = self.folded.get(id(seq))
        if entry is not None:
            return entry[1]
        product = None
        for part in seq.parts:
            if isinstance(part, Gradient):
                raise ValueError("a sub-sequence holding a gradient has no propagator")
            u = self.propagator(part)
            product = u if product is None else u @ product
        if product is None:
            product = np.eye(4, dtype=complex)
        product.setflags(write=False)
        # the entry keeps the sequence alive, so its id names no other
        self.folded[id(seq)] = (seq, product)
        return product


def run_sequence(table: PropagatorTable, seq, rho0: np.ndarray) -> np.ndarray:
    """Left-fold the sequence's parts over a density matrix: each
    gradient-free run of parts conjugates it by the product of their
    propagators, gradient events crush nonzero coherence orders.  A plain
    list of events is its own parts.

    The propagators come from ``table``, which fixes the spin system and the
    error model; an experiment set shares one table across its programs, so
    a sub-sequence part, such as a search program's compiled oracle, is
    folded once per set and each program composes its five factors.
    """
    rho = np.asarray(rho0, dtype=complex)
    product = None
    for part in getattr(seq, "parts", seq):
        if not isinstance(part, Gradient):
            u = table.propagator(part)
            product = u if product is None else u @ product
            continue
        if product is not None:
            rho = apply_unitary(product, rho)
            product = None
        rho = gradient_crush(rho)
    if product is not None:
        rho = apply_unitary(product, rho)
    return rho
