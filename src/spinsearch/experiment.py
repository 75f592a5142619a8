"""End-to-end pulse-level search experiments: reference acquisition, the four
labelled runs, phasing, classification and export documents.

The reference spectrum comes from the ideal |00><00| state, so the relative
line heights of an experiment at purity eps come out equal to eps.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import basis_state, fidelity
from .grover import ALL_LABELS, OracleLabel
from .readout import (
    AcquisitionParams,
    ReadoutResult,
    Spectrum,
    classify,
    detect,
    reference_phase,
    summary_document,
)
from .sequence import PropagatorTable, compile_oracle, grover_program, run_sequence
from .spins import ErrorModel, IDEAL, SpinSystem, pseudo_pure_00


@dataclass(frozen=True)
class ExperimentRun:
    """Outcome of a single labelled search experiment."""

    label: OracleLabel
    spectrum: Spectrum
    result: ReadoutResult
    fidelity: float

    @property
    def correct(self) -> bool:
        return self.result.qubits == (self.label.a, self.label.b)


@dataclass(frozen=True)
class ExperimentSet:
    """The reference plus the four labelled runs, with shared phasing, and
    the error model the runs' pulses were simulated under."""

    reference_spectrum: Spectrum
    reference_result: ReadoutResult
    phase_deg: float
    runs: tuple[ExperimentRun, ...]
    error: ErrorModel

    @property
    def all_correct(self) -> bool:
        return all(run.correct for run in self.runs)

    def summary_documents(self) -> list[dict]:
        """The reference's and each run's summary document; runs report
        their fidelity whenever the pulses were not ideal."""
        include_fidelity = self.error.mode != "none"
        docs = [summary_document("ref", self.reference_result)]
        for run in self.runs:
            docs.append(
                summary_document(
                    run.label.name,
                    run.result,
                    run.fidelity if include_fidelity else None,
                )
            )
        return docs


def run_experiments(
    sys: SpinSystem,
    acq: AcquisitionParams,
    epsilon: float = 1.0,
    err: ErrorModel = IDEAL,
) -> ExperimentSet:
    """Acquire the reference and the four labelled search experiments.

    Each label's oracle is compiled once, the f00 oracle doubling as every
    program's |00> reflection, and the four pulse programs run on one
    propagator table for (sys, err), so each distinct pulse or delay is
    built once per set.  One detection then renders the reference, a plain
    |00><00|, and the four runs' spectra together.  The reference's phase
    correction and line coefficients calibrate every spectrum of the set,
    its own included, so the reference's heights are 1.
    """
    oracles = {label: compile_oracle(label, sys) for label in ALL_LABELS}
    table = PropagatorTable(sys, err)
    rhos = [
        run_sequence(table, grover_program(label, oracles), pseudo_pure_00(epsilon))
        for label in ALL_LABELS
    ]
    ref_spec, *specs = detect(sys, [pseudo_pure_00(1.0), *rhos], acq)
    phase = reference_phase(ref_spec)
    ref_result = classify(ref_spec, phase, ref_spec)
    runs = tuple(
        ExperimentRun(
            label,
            spec,
            classify(spec, phase, ref_spec),
            fidelity(basis_state(2, label.index), rho),
        )
        for label, rho, spec in zip(ALL_LABELS, rhos, specs)
    )
    return ExperimentSet(ref_spec, ref_result, phase, runs, err)
