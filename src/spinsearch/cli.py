"""Command-line front end.

Subcommands:
  gate    run the exact two-qubit circuit and print the identified state
  pulse   run the pulse-level experiments and write spectra + summary JSON
  search  print complexity figures for the generalized N/k search

Exit codes: 0 success, 1 usage/config error, 2 classification failure.
The output directory for `pulse` can also be set with $SPINSEARCH_OUT.
"""

from __future__ import annotations

import argparse
import os
import sys as _sys
from dataclasses import dataclass, field

import numpy as np

from .core import ket_label
from .experiment import run_experiments
from .grover import (
    ALL_LABELS,
    ORACLE_LABELS,
    OracleLabel,
    SearchProblem,
    classical_approx_evaluations,
    classical_expected_evaluations,
    grover2_circuit,
    grover_general,
    monte_carlo_evaluations,
    optimal_iterations,
    read_bits,
    success_probability,
)
from .readout import (
    AcquisitionParams,
    AmbiguousReadoutError,
    write_spectrum_csv,
    write_summary_json,
)
from .spins import ErrorModel, IDEAL, SpinSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CLASSIFICATION = 2

CONFIG_KEYS = ("nu1_hz", "nu2_hz", "j_hz", "t2_s", "spectral_width_hz", "n_points", "epsilon")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for the pulse-level pipeline."""

    spin_system: SpinSystem = field(default_factory=SpinSystem)
    acquisition: AcquisitionParams = field(default_factory=AcquisitionParams)
    epsilon: float = 1.0
    error_model: ErrorModel = IDEAL
    out_dir: str = "."


def parse_config_file(path: str) -> dict[str, float]:
    """Read a `key = value` config file; '#' starts a comment."""
    values: dict[str, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = float(value.strip())
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, float] = {}
    if args.config:
        raw = parse_config_file(args.config)
    spin = SpinSystem(
        nu1=raw.get("nu1_hz", 80.0),
        nu2=raw.get("nu2_hz", -80.0),
        j=raw.get("j_hz", 7.0),
        t2=raw.get("t2_s", 1.0),
    )
    n_points = raw.get("n_points", 4096.0)
    if not n_points.is_integer():
        raise ValueError(f"n_points must be an integer, got {n_points!r}")
    acq = AcquisitionParams(
        spectral_width=raw.get("spectral_width_hz", 512.0),
        n_points=int(n_points),
    )
    epsilon = args.epsilon if args.epsilon is not None else raw.get("epsilon", 1.0)
    err = ErrorModel("soft-pulse", args.error_tp) if args.error_tp else IDEAL
    out_dir = os.environ.get("SPINSEARCH_OUT", args.out)
    return RunConfig(spin, acq, epsilon, err, out_dir)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # classification failures, so remap usage errors to exit code 1.
    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def cmd_gate(args: argparse.Namespace) -> int:
    labels = ALL_LABELS if args.all else (OracleLabel.from_name(args.label),)
    all_ok = True
    for label in labels:
        psi = grover2_circuit(label)
        a, b = read_bits(psi)
        prob = float(np.abs(psi[2 * a + b]) ** 2)
        amps = ", ".join(
            f"|{ket_label(i, 2)}>: {psi[i].real:+.3f}{psi[i].imag:+.3f}j" for i in range(4)
        )
        print(f"{label.name}: result: |{a}{b}>, probability {prob:.3f}  [{amps}]")
        all_ok = all_ok and (a, b) == (label.a, label.b)
    return EXIT_OK if all_ok else EXIT_CLASSIFICATION


def cmd_pulse(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    os.makedirs(config.out_dir, exist_ok=True)
    experiments = run_experiments(
        config.spin_system, config.acquisition, config.epsilon, config.error_model
    )
    write_spectrum_csv(os.path.join(config.out_dir, "ref.csv"), experiments.reference_spectrum)
    for run in experiments.runs:
        write_spectrum_csv(os.path.join(config.out_dir, f"{run.label.name}.csv"), run.spectrum)
    include_fidelity = config.error_model.mode != "none"
    docs = experiments.summary_documents(include_fidelity=include_fidelity)
    write_summary_json(os.path.join(config.out_dir, "summary.json"), docs)
    for doc in docs:
        line = f"{doc['experiment']}: qubits {doc['qubits']}"
        if "fidelity" in doc:
            line += f", fidelity {doc['fidelity']:.6f}"
        print(line)
    print(f"wrote {len(docs)} spectra and summary.json to {config.out_dir}")
    return EXIT_OK if experiments.all_correct else EXIT_CLASSIFICATION


def _search_row(n_qubits: int, k: int, m: int | None, seed: int | None, trials: int) -> str:
    problem = SearchProblem(n_qubits, np.arange(k))
    m_opt = optimal_iterations(problem)
    m_used = m_opt if m is None else m
    p = success_probability(problem, grover_general(problem, m_used))
    exact = classical_expected_evaluations(problem.size, k)
    approx = classical_approx_evaluations(problem.size, k)
    row = (
        f"N={problem.size:<6d} k={k:<5d} m={m_used:<3d} "
        f"p_success={p:.6f} classical_exact={exact:.4f} classical_approx={approx:.4f}"
    )
    if seed is not None:
        rng = np.random.default_rng(seed)
        mc, stderr = monte_carlo_evaluations(problem.size, k, trials, rng)
        row += f" monte_carlo={mc:.4f} (stderr {stderr:.4f})"
    return row


def cmd_search(args: argparse.Namespace) -> int:
    if args.scan:
        for n_qubits in range(2, args.n + 1):
            size = 2**n_qubits
            for k in sorted({1, size // 4, size // 2}):
                print(_search_row(n_qubits, k, None, args.seed, args.trials))
        return EXIT_OK
    if args.k > 2**args.n:
        raise ValueError("k cannot exceed N = 2**n")
    print(_search_row(args.n, args.k, args.m, args.seed, args.trials))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinsearch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="run the exact two-qubit search circuit")
    p_gate.add_argument("label", nargs="?", choices=ORACLE_LABELS, metavar="label",
                        help="one of f00, f01, f10, f11")
    p_gate.add_argument("--all", action="store_true", help="run all four functions")
    p_gate.set_defaults(func=cmd_gate)

    p_pulse = sub.add_parser("pulse", help="run the pulse-level experiments")
    p_pulse.add_argument("--config", default=None, help="key = value config file")
    p_pulse.add_argument("--epsilon", type=float, default=None,
                         help="effective pure-state purity (default from config or 1.0)")
    p_pulse.add_argument("--error-tp", type=float, default=None,
                         help="soft-pulse duration in seconds (default: ideal pulses)")
    p_pulse.add_argument("--out", default=".", help="output directory")
    p_pulse.set_defaults(func=cmd_pulse)

    p_search = sub.add_parser("search", help="search-complexity table")
    p_search.add_argument("--n", type=int, default=2, help="number of qubits (N = 2**n)")
    p_search.add_argument("--k", type=int, default=1, help="number of marked elements")
    p_search.add_argument("--m", type=int, default=None,
                          help="iteration count (default: the optimum)")
    p_search.add_argument("--scan", action="store_true",
                          help="tabulate k in {1, N/4, N/2} for 2..n qubits")
    p_search.add_argument("--seed", type=int, default=None,
                          help="seed Monte-Carlo confirmation of the classical count")
    p_search.add_argument("--trials", type=int, default=100_000)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    if args.command == "gate" and (args.label is None) == (not args.all):
        parser.error("provide exactly one of a label or --all")
    if args.command == "search" and args.n > 20:
        parser.error("n must be <= 20 (desk scale)")
    try:
        return args.func(args)
    except AmbiguousReadoutError as exc:
        print(f"spinsearch: readout failed: {exc}", file=_sys.stderr)
        return EXIT_CLASSIFICATION
    except (ValueError, OSError) as exc:
        print(f"spinsearch: error: {exc}", file=_sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
