"""Two-layer simulator of a two-spin NMR quantum computer running the
quantum search algorithm: the exact N/k search, whose N = 4 case is the
paper's gate-level run, plus a pulse-level density-matrix layer with compiled
RF sequences and spectral readout."""

from .core import apply_unitary, fidelity, is_unitary
from .grover import (
    OracleLabel,
    SearchProblem,
    classical_expected_evaluations,
    grover_general,
    optimal_iterations,
)
from .readout import AcquisitionParams, Spectrum, classify, detect, reference_phase
from .sequence import (
    Delay,
    Gradient,
    Pulse,
    PulseEvent,
    PulseSequence,
    compile_oracle,
    format_sequence,
    parse_sequence,
    pulse_operator,
    run_sequence,
)
from .spins import ErrorModel, SpinSystem, free_evolution, gradient_crush, pseudo_pure_00

__all__ = [
    "AcquisitionParams",
    "Delay",
    "ErrorModel",
    "Gradient",
    "OracleLabel",
    "Pulse",
    "PulseEvent",
    "PulseSequence",
    "SearchProblem",
    "SpinSystem",
    "Spectrum",
    "apply_unitary",
    "classical_expected_evaluations",
    "classify",
    "compile_oracle",
    "detect",
    "fidelity",
    "format_sequence",
    "free_evolution",
    "gradient_crush",
    "grover_general",
    "is_unitary",
    "optimal_iterations",
    "parse_sequence",
    "pseudo_pure_00",
    "pulse_operator",
    "reference_phase",
    "run_sequence",
]

__version__ = "0.1.0"
