"""Two-layer simulator of a two-spin NMR quantum computer running the
quantum search algorithm: an exact gate-level layer plus a pulse-level
density-matrix layer with compiled RF sequences and spectral readout."""

from .core import apply_unitary, fidelity, is_unitary
from .grover import (
    OracleLabel,
    SearchProblem,
    classical_expected_evaluations,
    grover2_circuit,
    grover_general,
    optimal_iterations,
    oracle_matrix,
    pseudo_hadamard,
    pseudo_hadamard_inverse,
)
from .readout import AcquisitionParams, Spectrum, classify, detect, reference_phase
from .sequence import (
    PulseEvent,
    PulseSequence,
    compile_oracle,
    format_sequence,
    parse_sequence,
    pulse_operator,
    run_sequence,
    sequence_unitary,
)
from .spins import ErrorModel, SpinSystem, free_evolution, gradient_crush, pseudo_pure_00

__all__ = [
    "AcquisitionParams",
    "ErrorModel",
    "OracleLabel",
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
    "grover2_circuit",
    "grover_general",
    "is_unitary",
    "optimal_iterations",
    "oracle_matrix",
    "parse_sequence",
    "pseudo_hadamard",
    "pseudo_hadamard_inverse",
    "pseudo_pure_00",
    "pulse_operator",
    "reference_phase",
    "run_sequence",
    "sequence_unitary",
]

__version__ = "0.1.0"
