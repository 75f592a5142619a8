#!/usr/bin/env python3
"""Scan the soft-pulse duration and tabulate, per search function, the final
state fidelity and whether the spectral readout still classifies correctly.

The interesting regime is t_p between ~1 us (errors invisible) and ~1 ms
(state scrambled); the variability between the four functions shows which
pulse sequences are most sensitive to selective-pulse imperfections.

Usage:
    python scripts/pulse_error_scan.py [--points 12] [--tp-min 1e-6]
        [--tp-max 2e-3] [--csv out.csv]
"""

import argparse
import csv
import sys

import numpy as np

from spinsearch.core import basis_state, fidelity
from spinsearch.grover import ALL_LABELS
from spinsearch.readout import (
    AcquisitionParams,
    AmbiguousReadoutError,
    classify,
    detect,
    reference_phase,
    synthesize_fid,
)
from spinsearch.sequence import PropagatorTable, grover_program, run_sequence
from spinsearch.spins import ErrorModel, SpinSystem, pseudo_pure_00, state_00


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
    lines = synthesize_fid(sys_, acq)
    ref = detect(sys_, state_00(), acq, lines)
    phase = reference_phase(ref)
    ref_integrals = tuple(float(p.integral) for p in classify(ref, phase).peaks)

    rows = []
    header = ["t_p_s"] + [f"{lab.name}_fidelity" for lab in ALL_LABELS] + [
        f"{lab.name}_readout" for lab in ALL_LABELS
    ]
    print(" ".join(f"{h:>14s}" for h in header))
    for t_p in np.geomspace(args.tp_min, args.tp_max, args.points):
        err = ErrorModel("soft-pulse", float(t_p))
        table = PropagatorTable(sys_, err)
        fids, reads = [], []
        for label in ALL_LABELS:
            rho = run_sequence(
                sys_, grover_program(label, sys_), pseudo_pure_00(args.epsilon), err, table
            )
            fids.append(fidelity(basis_state(2, label.index), rho))
            try:
                result = classify(detect(sys_, rho, acq, lines), phase, ref_integrals)
                reads.append(f"{result.qubit1}{result.qubit2}")
            except AmbiguousReadoutError:
                reads.append("??")
        rows.append([f"{t_p:.6e}"] + [f"{f:.6f}" for f in fids] + reads)
        print(" ".join(f"{cell:>14s}" for cell in rows[-1]))

    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
