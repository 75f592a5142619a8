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
    synthesize_fid,
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
    """The reference plus the four labelled runs, with shared phasing."""

    reference_spectrum: Spectrum
    reference_result: ReadoutResult
    phase_deg: float
    runs: tuple[ExperimentRun, ...]

    @property
    def all_correct(self) -> bool:
        return all(run.correct for run in self.runs)

    def summary_documents(self, include_fidelity: bool = False) -> list[dict]:
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

    The reference is a plain detection of |00><00|; its phase correction and
    line integrals calibrate all four experiment spectra.  All five
    detections share one line basis.  Each label's oracle is compiled once,
    the f00 oracle doubling as every program's |00> reflection, and the
    four pulse programs share one propagator table, so each distinct pulse
    or delay is built once per set.
    """
    lines = synthesize_fid(sys, acq)
    ref_spec = detect(sys, pseudo_pure_00(1.0), acq, lines)
    phase = reference_phase(ref_spec)
    ref_result = classify(ref_spec, phase)
    ref_integrals = tuple(float(p.integral) for p in ref_result.peaks)

    oracles = {label: compile_oracle(label, sys) for label in ALL_LABELS}
    table = PropagatorTable(sys, err)
    runs = []
    for label in ALL_LABELS:
        rho0 = pseudo_pure_00(epsilon)
        rho = run_sequence(sys, grover_program(label, oracles), rho0, err, table)
        spec = detect(sys, rho, acq, lines)
        result = classify(spec, phase, ref_integrals)
        target = basis_state(2, label.index)
        runs.append(ExperimentRun(label, spec, result, fidelity(target, rho)))
    return ExperimentSet(ref_spec, ref_result, phase, tuple(runs))
