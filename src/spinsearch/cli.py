"""Command-line front end.

Subcommands:
  gate    run the two-qubit search as one N/k iterate at N = 4, k = 1 and
          print the identified state (the dense five-gate circuit is now
          only the tests' reference)
  pulse   run the pulse-level experiments and write spectra + summary JSON
  search  print complexity figures for the generalized N/k search

Exit codes: 0 success, 1 usage/config error, 2 classification failure.
The output directory for `pulse` can also be set with $SPINSEARCH_OUT.
"""

from __future__ import annotations

import argparse
import os
import re
import sys as _sys
from dataclasses import dataclass

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

# config key -> field of SpinSystem or AcquisitionParams
_SPIN_FIELDS = {"nu1_hz": "nu1", "nu2_hz": "nu2", "j_hz": "j", "t2_s": "t2"}
_ACQUISITION_FIELDS = {"spectral_width_hz": "spectral_width", "n_points": "n_points"}
CONFIG_KEYS = (*_SPIN_FIELDS, *_ACQUISITION_FIELDS, "epsilon")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration for the pulse-level pipeline.  A setting that
    neither the config file nor a flag gives takes the default of the class
    or function it belongs to; ``epsilon`` is None then."""

    spin_system: SpinSystem
    acquisition: AcquisitionParams
    epsilon: float | None
    error_model: ErrorModel
    out_dir: str


def parse_config_file(path: str) -> dict[str, float]:
    """Read a `key = value` config file; '#' starts a comment and a key may
    appear once."""
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
            if key in values:
                raise ValueError(f"{path}:{lineno}: repeated key {key!r}")
            value = value.strip()
            try:
                values[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} must be a number, got {value!r}") from None
    return values


def build_run_config(args: argparse.Namespace) -> RunConfig:
    raw: dict[str, float] = parse_config_file(args.config) if args.config else {}
    spin = SpinSystem(**{name: raw[key] for key, name in _SPIN_FIELDS.items() if key in raw})
    acq_fields = {name: raw[key] for key, name in _ACQUISITION_FIELDS.items() if key in raw}
    if "n_points" in acq_fields:
        if not acq_fields["n_points"].is_integer():
            raise ValueError(f"n_points must be an integer, got {acq_fields['n_points']!r}")
        acq_fields["n_points"] = int(acq_fields["n_points"])
    acq = AcquisitionParams(**acq_fields)
    epsilon = args.epsilon if args.epsilon is not None else raw.get("epsilon")
    err = ErrorModel("soft-pulse", args.error_tp) if args.error_tp is not None else IDEAL
    out_dir = os.environ.get("SPINSEARCH_OUT", args.out)
    return RunConfig(spin, acq, epsilon, err, out_dir)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Python 3.10 and 3.11 read a negative number only as digits with an
        # optional fraction, so "--error-tp -1e-4" or "-inf" was taken for an
        # option; accept an exponent and float()'s inf, infinity and nan
        # spellings too, so such a value reaches the package's checks.
        # Sub-parsers are built from this class and inherit the pattern.
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf|infinity|nan)$", re.IGNORECASE
        )

    # argparse exits with 2 on usage errors; this CLI reserves 2 for
    # classification failures, so remap usage errors to exit code 1.
    def error(self, message):
        self.print_usage(_sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def cmd_gate(args: argparse.Namespace) -> int:
    labels = ALL_LABELS if args.all else (OracleLabel.from_name(args.label),)
    all_ok = True
    for label in labels:
        problem = SearchProblem(2, (label.index,))
        psi = grover_general(problem, optimal_iterations(problem))
        a, b = read_bits(psi)
        prob = psi[2 * a + b] ** 2
        # the state is real; adding 0.0 turns a -0.0 amplitude into +0.0
        amps = ", ".join(
            f"|{ket_label(i, 2)}>: {amp + 0.0:+.3f}+0.000j"
            for i, amp in enumerate(psi.tolist())
        )
        print(f"{label.name}: result: |{a}{b}>, probability {prob:.3f}  [{amps}]")
        all_ok = all_ok and (a, b) == (label.a, label.b)
    return EXIT_OK if all_ok else EXIT_CLASSIFICATION


def cmd_pulse(args: argparse.Namespace) -> int:
    config = build_run_config(args)
    purity = {} if config.epsilon is None else {"epsilon": config.epsilon}
    experiments = run_experiments(
        config.spin_system, config.acquisition, err=config.error_model, **purity
    )
    # only a set that was read writes anything, its directory included
    os.makedirs(config.out_dir, exist_ok=True)
    write_spectrum_csv(os.path.join(config.out_dir, "ref.csv"), experiments.reference_spectrum)
    for run in experiments.runs:
        write_spectrum_csv(os.path.join(config.out_dir, f"{run.label.name}.csv"), run.spectrum)
    docs = experiments.summary_documents()
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
    # checked with or without --seed: one trial has no standard error
    if args.trials < 2:
        raise ValueError(f"--trials must be at least 2, got {args.trials}")
    if args.scan:
        for n_qubits in range(2, args.n + 1):
            size = 2**n_qubits
            for k in sorted({1, size // 4, size // 2}):
                print(_search_row(n_qubits, k, None, args.seed, args.trials))
        return EXIT_OK
    k = 1 if args.k is None else args.k
    if k > 2**args.n:
        raise ValueError("k cannot exceed N = 2**n")
    print(_search_row(args.n, k, args.m, args.seed, args.trials))
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spinsearch", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gate = sub.add_parser("gate", help="run the two-qubit search as one N/k iterate at "
                            "N = 4 (the dense circuit is a test reference)")
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
    p_search.add_argument("--k", type=int, default=None,
                          help="number of marked elements (default 1)")
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
    if args.command == "search" and args.scan and args.n < 2:
        parser.error("--scan tabulates 2..n qubits and needs n >= 2")
    if args.command == "search" and args.scan:
        fixed = [flag for flag, value in (("--k", args.k), ("--m", args.m)) if value is not None]
        if fixed:
            parser.error(f"--scan chooses k and m itself; drop {' and '.join(fixed)}")
    if args.command == "search" and not 1 <= args.n <= 20:
        parser.error(f"n must be between 1 and 20 (desk scale), got {args.n}")
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
