#!/usr/bin/env python3
"""Scan the soft-pulse duration and tabulate, per search function, the final
state fidelity and the spectral readout.  Each row is the experiment set that
`spinsearch pulse --error-tp <t_p>` runs (`run_experiments`); a row whose set
cannot be read prints ?? in every cell.

The interesting regime is t_p between ~1 us (errors invisible) and ~1 ms
(state scrambled); the variability between the four functions shows which
pulse sequences are most sensitive to selective-pulse imperfections.

Usage:
    python scripts/pulse_error_scan.py [--points 12] [--tp-min 1e-6]
        [--tp-max 2e-3] [--epsilon 1.0] [--csv out.csv]
"""

import argparse
import csv
import sys

import numpy as np

from spinsearch.experiment import run_experiments
from spinsearch.grover import ALL_LABELS
from spinsearch.readout import AcquisitionParams, AmbiguousReadoutError
from spinsearch.spins import ErrorModel, SpinSystem


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=12)
    ap.add_argument("--tp-min", type=float, default=1e-6)
    ap.add_argument("--tp-max", type=float, default=2e-3)
    ap.add_argument("--epsilon", type=float, default=1.0)
    ap.add_argument("--csv", default=None, help="optionally dump the table as CSV")
    args = ap.parse_args()

    sys_ = SpinSystem()
    acq = AcquisitionParams()
    rows = []
    header = ["t_p_s"] + [f"{lab.name}_fidelity" for lab in ALL_LABELS] + [
        f"{lab.name}_readout" for lab in ALL_LABELS
    ]
    print(" ".join(f"{h:>14s}" for h in header))
    for t_p in np.geomspace(args.tp_min, args.tp_max, args.points):
        err = ErrorModel("soft-pulse", float(t_p))
        try:
            runs = run_experiments(sys_, acq, args.epsilon, err).runs
            cells = [f"{run.fidelity:.6f}" for run in runs]
            cells += ["".join(map(str, run.result.qubits)) for run in runs]
        except AmbiguousReadoutError:
            cells = ["??"] * (len(header) - 1)
        rows.append([f"{t_p:.6e}"] + cells)
        print(" ".join(f"{cell:>14s}" for cell in rows[-1]))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
