"""The four closed-loop workloads: seeded request inputs, the request itself,
and the check of its output.

Request ``index`` of a run with seed ``seed`` draws its inputs from
``numpy.random.default_rng([seed, index])``, so the same seed gives the same
inputs whatever ran before.  ``prepare`` does client-side work outside the
timed region; ``execute`` is the timed request and calls the package only
through module attributes (``experiment.run_experiments``, ``cli.main``,
``grover.grover_general``, ...), so a tracer that swaps those attributes sees
every call.  ``check`` raises ``CheckFailed`` on a wrong output and otherwise
returns the simulated outputs rounded to their acceptance tolerances, which
feed the run's checksum.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from spinsearch import cli, experiment, grover
from spinsearch.readout import AcquisitionParams
from spinsearch.spins import IDEAL, ErrorModel, SpinSystem

# Acceptance tolerances (tests/test_acceptance.py) used to round the checksum
# inputs and to check outputs.
HEIGHT_TOL = 1e-6
PROBABILITY_TOL = 1e-10
HEIGHT_DIGITS, FIDELITY_DIGITS, PROBABILITY_DIGITS = 6, 9, 10

LABELS = ("f00", "f01", "f10", "f11")

# Soft-pulse durations stop below ~3e-4 s, where the readout of some labels
# flips because the pulses scramble the state (scripts/pulse_error_scan.py).
TP_RANGE = (1e-6, 2e-4)


class CheckFailed(Exception):
    """The request completed but its output is wrong."""


def request_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def _epsilon(rng) -> float:
    """Purity drawn uniformly from (0.05, 1]."""
    return 1.0 - 0.95 * float(rng.random())


def _log_uniform(rng, lo: float, hi: float) -> float:
    return math.exp(float(rng.uniform(math.log(lo), math.log(hi))))


def _jittered_system(rng, on_grid: bool) -> SpinSystem:
    """Offsets within 10 Hz of +/-80 Hz and J in [6, 8] Hz: |nu1 - nu2| >= 140
    Hz stays above 10 J, and every line stays well inside 512 Hz.

    ``on_grid`` draws the offsets in steps of 0.5 Hz and J in steps of 0.5
    Hz, which puts every line on the 1024-point grid or halfway between two
    of its points.  At 1024 points some off-grid line positions (J near 5.1
    or 6.1 Hz with offsets away from +/-80 Hz) make ``reference_phase``
    reject the reference with AmbiguousReadoutError; at 4096 points no such
    position is known.
    """
    if on_grid:
        return SpinSystem(
            nu1=80.0 + 0.5 * int(rng.integers(-20, 21)),
            nu2=-80.0 + 0.5 * int(rng.integers(-20, 21)),
            j=6.0 + 0.5 * int(rng.integers(0, 5)),
        )
    return SpinSystem(
        nu1=80.0 + float(rng.uniform(-10, 10)),
        nu2=-80.0 + float(rng.uniform(-10, 10)),
        j=float(rng.uniform(6, 8)),
    )


def _rounded(value: float, digits: int) -> float:
    return round(value, digits) + 0.0  # + 0.0 folds -0.0 into 0.0


def _check_qubits(name: str, qubits, expected) -> None:
    if tuple(qubits) != tuple(expected):
        raise CheckFailed(f"{name}: read qubits {tuple(qubits)}, expected {tuple(expected)}")


def _label_bits(name: str) -> tuple[int, int]:
    return int(name[1]), int(name[2])


def _check_set(out) -> list:
    """Every labelled run reads back its own label; returns checksum values."""
    names = [run.label.name for run in out.runs]
    if names != list(LABELS):
        raise CheckFailed(f"experiment set has runs {names}")
    digest = []
    for run in out.runs:
        _check_qubits(run.label.name, run.result.qubits, _label_bits(run.label.name))
        digest.append([
            list(run.result.qubits),
            [_rounded(h, HEIGHT_DIGITS) for h in run.result.line_heights],
            _rounded(run.fidelity, FIDELITY_DIGITS),
        ])
    return digest


class Workload:
    name = ""
    pass_size = 1  # requests per whole pass; a run stops only between passes

    def make_input(self, seed: int, index: int):
        raise NotImplementedError

    def prepare(self, inp) -> None:
        """Client-side work before the request, outside the timed region."""

    def execute(self, inp, tracer=None):
        raise NotImplementedError

    def check(self, inp, out) -> list:
        raise NotImplementedError


@dataclass(frozen=True)
class PulseInput:
    system: SpinSystem
    epsilon: float
    error: ErrorModel


class PulseScan(Workload):
    """Soft-pulse experiment sets at the minimum acquisition."""

    name = "pulse_scan"
    acquisition = AcquisitionParams(spectral_width=512.0, n_points=1024)

    def make_input(self, seed, index):
        rng = request_rng(seed, index)
        return PulseInput(
            _jittered_system(rng, on_grid=True),
            _epsilon(rng),
            ErrorModel("soft-pulse", _log_uniform(rng, *TP_RANGE)),
        )

    def execute(self, inp, tracer=None):
        return experiment.run_experiments(inp.system, self.acquisition, inp.epsilon, inp.error)

    def check(self, inp, out):
        return _check_set(out)


class SpectraHires(Workload):
    """Ideal pulses in the acceptance suite's high-resolution configuration."""

    name = "spectra_hires"
    system = SpinSystem(nu1=200.0, nu2=-200.0, j=7.0, t2=4.0)
    acquisition = AcquisitionParams(spectral_width=1024.0, n_points=131072)

    def make_input(self, seed, index):
        return _epsilon(request_rng(seed, index))

    def execute(self, inp, tracer=None):
        return experiment.run_experiments(self.system, self.acquisition, inp, IDEAL)

    def check(self, inp, out):
        digest = _check_set(out)
        for run in out.runs:
            bits = _label_bits(run.label.name)
            for height, peak in zip(run.result.line_heights, run.result.peaks):
                # readout rule: qubit value 0 reads as a positive line, 1 negative
                expected = inp if bits[peak.assigned_spin - 1] == 0 else -inp
                if abs(height - expected) > HEIGHT_TOL:
                    raise CheckFailed(
                        f"{run.label.name}: line at {peak.center_hz} Hz has height "
                        f"{height!r}, expected {expected!r}"
                    )
        return digest


@dataclass(frozen=True)
class CliInput:
    config: str
    epsilon: float
    error_tp: float


class CliPulse(Workload):
    """``spinsearch pulse`` in-process with a generated config file; writes
    five CSVs and summary.json into ``workdir``."""

    name = "cli_pulse"
    outputs = ("ref.csv",) + tuple(f"{name}.csv" for name in LABELS) + ("summary.json",)

    def __init__(self, workdir: str):
        self.config_path = os.path.join(workdir, "pulse.cfg")
        self.out_dir = os.path.join(workdir, "out")

    def make_input(self, seed, index):
        rng = request_rng(seed, index)
        system = _jittered_system(rng, on_grid=False)
        config = (
            "# generated request config\n"
            f"nu1_hz = {system.nu1!r}\n"
            f"nu2_hz = {system.nu2!r}\n"
            f"j_hz = {system.j!r}\n"
            "t2_s = 1.0\n"
            "spectral_width_hz = 512\n"
            "n_points = 4096\n"
        )
        return CliInput(config, _epsilon(rng), _log_uniform(rng, *TP_RANGE))

    def prepare(self, inp):
        os.makedirs(self.out_dir, exist_ok=True)
        for name in self.outputs:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(self.out_dir, name))
        with open(self.config_path, "w") as fh:
            fh.write(inp.config)

    def execute(self, inp, tracer=None):
        argv = [
            "pulse", "--config", self.config_path, "--epsilon", repr(inp.epsilon),
            "--error-tp", repr(inp.error_tp), "--out", self.out_dir,
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check(self, inp, out):
        if out != cli.EXIT_OK:
            raise CheckFailed(f"spinsearch pulse exited with {out}")
        for name in self.outputs:
            if os.path.getsize(os.path.join(self.out_dir, name)) == 0:
                raise CheckFailed(f"{name} is empty")
        with open(os.path.join(self.out_dir, "summary.json")) as fh:
            docs = json.load(fh)
        names = [doc["experiment"] for doc in docs]
        if names != ["ref", *LABELS]:
            raise CheckFailed(f"summary.json lists {names}")
        digest = []
        for doc in docs:
            expected = (0, 0) if doc["experiment"] == "ref" else _label_bits(doc["experiment"])
            _check_qubits(doc["experiment"], doc["qubits"], expected)
            digest.append([
                doc["qubits"],
                [_rounded(p["height_rel"], HEIGHT_DIGITS) for p in doc["peaks"]],
            ])
            if "fidelity" in doc:
                digest[-1].append(_rounded(doc["fidelity"], FIDELITY_DIGITS))
        return digest


# The latency median falls among the small rows.  With one copy per pass, the
# median of a run sat between the slowest sample of one row and the fastest of
# the next; with several, it rests on the middle samples of one row.  The
# large rows take most of the time and run once.
SMALL_ROW_COPIES = 5


def _search_rows() -> tuple[tuple[int, int], ...]:
    """One pass of the complexity table: the rows for n = 2..14 with k in
    {1, N/4, N/2}, SMALL_ROW_COPIES times over, then the 16..20-qubit rows
    with k in {N/4, N/2} once, each block in ascending n."""
    small = []
    for n in range(2, 15):
        size = 2**n
        small += [(n, k) for k in sorted({1, size // 4, size // 2})]
    large = [(n, 2**n // f) for n in range(16, 21) for f in (4, 2)]
    return tuple(small * SMALL_ROW_COPIES + large)


@dataclass(frozen=True)
class SearchInput:
    n_qubits: int
    marked: tuple[int, ...]
    mc_seed: int


@dataclass(frozen=True)
class SearchRow:
    iterations: int
    p_success: float
    mc_mean: float
    mc_stderr: float


class SearchScan(Workload):
    """One complexity-table row per request, with random marked sets."""

    name = "search_scan"
    rows = _search_rows()
    pass_size = len(rows)
    trials = 2000

    def make_input(self, seed, index):
        n, k = self.rows[index % len(self.rows)]
        rng = request_rng(seed, index)
        marked = tuple(rng.choice(2**n, size=k, replace=False).tolist())
        return SearchInput(n, marked, int(rng.integers(2**63)))

    def execute(self, inp, tracer=None):
        problem = grover.SearchProblem(inp.n_qubits, inp.marked)
        m = grover.optimal_iterations(problem)
        p = grover.success_probability(problem, grover.grover_general(problem, m))
        rng = np.random.default_rng(inp.mc_seed)
        if tracer is not None:
            rng = tracer.counting(rng)
        mean, stderr = grover.monte_carlo_evaluations(problem.size, problem.k, self.trials, rng)
        return SearchRow(m, p, mean, stderr)

    def check(self, inp, out):
        size, k = 2**inp.n_qubits, len(inp.marked)
        expected = math.sin((2 * out.iterations + 1) * math.asin(math.sqrt(k / size))) ** 2
        if abs(out.p_success - expected) > PROBABILITY_TOL:
            raise CheckFailed(f"N={size} k={k}: p_success {out.p_success!r}, expected {expected!r}")
        classical = (size + 1) / (k + 1)
        if not abs(out.mc_mean - classical) <= 5 * out.mc_stderr:
            raise CheckFailed(
                f"N={size} k={k}: Monte-Carlo mean {out.mc_mean!r} is not within 5 stderr "
                f"({out.mc_stderr!r}) of {classical!r}"
            )
        return [size, k, out.iterations, _rounded(out.p_success, PROBABILITY_DIGITS),
                out.mc_mean]


WORKLOADS = {w.name: w for w in (PulseScan, SpectraHires, CliPulse, SearchScan)}


def make_workload(name: str, workdir: str) -> Workload:
    cls = WORKLOADS[name]
    return cls(workdir) if cls is CliPulse else cls()
