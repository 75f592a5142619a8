"""Pulse sequences: event types, a line-based wire format, the compiler that
turns an oracle label into RF pulses and delays, and the executor that runs a
sequence on a propagator table, which holds the spin system and error model.

Wire format, one event per line ('#' starts a comment):

    PULSE <target> <angle_deg> <phase_deg> [SOFT <t_p>]
    DELAY <seconds>
    GRAD

with target one of 1, 2, both (SOFT only for 1 or 2), and notes as one-line
comments.  Round-trips bit-exactly through repr floats.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
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
    break in a note is rejected, as its tail would read back as events)."""

    events: tuple[PulseEvent, ...]
    notes: tuple[str, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for note in self.notes:
            if "".join(note.splitlines()) != note:
                raise ValueError(f"note {note!r} contains a line break")

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
    theta = PHASE_DEG[row.theta]
    phi = PHASE_DEG[row.phi]
    psi = PHASE_DEG[row.psi]
    tau = sys.tau
    events = (
        # composite z on spin 1: Rz(+90) for theta=+y, Rz(-90) for theta=-y
        Pulse(1, 90.0, PHASE_DEG["-x"]),
        Pulse(2, 90.0, PHASE_DEG["+x"]),
        Pulse(1, 90.0, theta),
        Pulse(2, 90.0, psi),
        Pulse(1, 90.0, PHASE_DEG["+x"]),
        Pulse(2, 90.0, PHASE_DEG["-x"]),
        # J coupling for 1/(2J) with shifts refocused
        Delay(tau),
        Pulse(1, 180.0, phi),
        Pulse(2, 180.0, phi),
        Delay(tau),
        Pulse(1, 180.0, phi),
        Pulse(2, 180.0, PHASE_DEG["+x"]),
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
    return Pulse(TARGET_BOTH, 90.0, PHASE_DEG["-y" if inverse else "+y"])


def grover_program(
    label: OracleLabel, oracles: Mapping[OracleLabel, PulseSequence]
) -> PulseSequence:
    """Full pulse program of the two-qubit search: inverse-h pair, compiled
    oracle, h pair, compiled |00> reflection, inverse-h pair.

    ``oracles`` maps labels to their ``compile_oracle`` sequences and must
    hold ``label`` and f00, whose oracle is the |00> reflection; an
    experiment set compiles each oracle once and builds all four programs
    from them.
    """
    u_fab = oracles[label]
    u_00 = oracles[OracleLabel(0, 0)]
    events = (
        (hadamard_pair(inverse=True),)
        + u_fab.events
        + (hadamard_pair(),)
        + u_00.events
        + (hadamard_pair(inverse=True),)
    )
    notes = (f"two-qubit search program for {label.name}",) + u_fab.notes[1:]
    return PulseSequence(events, notes)


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
    """The propagators of the distinct events of one experiment set.

    The four programs of a set share most of their pulses and all of their
    delays, so ``run_experiments`` builds one table for the set and passes
    it to each ``run_sequence`` call.  A table is the only holder of the
    system and error model its sequences run under; each distinct event's
    propagator is built once, on first use, checked unitary at 1e-10 and
    stored read-only.
    """

    system: SpinSystem
    error: ErrorModel = IDEAL
    built: dict[PulseEvent, np.ndarray] = field(default_factory=dict, init=False, repr=False)

    def propagator(self, ev: PulseEvent) -> np.ndarray:
        u = self.built.get(ev)
        if u is None:
            u = event_operator(self.system, ev, self.error)
            if not is_unitary(u):
                raise ValueError(f"propagator of {ev} is not unitary at tolerance 1e-10")
            u.setflags(write=False)
            self.built[ev] = u
        return u


def run_sequence(table: PropagatorTable, seq, rho0: np.ndarray) -> np.ndarray:
    """Left-fold the sequence over a density matrix: each gradient-free run
    of events conjugates it by the product of its propagators, gradient
    events crush nonzero coherence orders.

    The propagators come from ``table``, which fixes the spin system and the
    error model; an experiment set shares one table across its programs.
    """
    rho = np.asarray(rho0, dtype=complex)
    product = None
    for ev in seq:
        if not isinstance(ev, Gradient):
            u = table.propagator(ev)
            product = u if product is None else u @ product
            continue
        if product is not None:
            rho = apply_unitary(product, rho)
            product = None
        rho = gradient_crush(rho)
    if product is not None:
        rho = apply_unitary(product, rho)
    return rho
