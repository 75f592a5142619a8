#!/usr/bin/env python3
"""spinsearch benchmark: one seeded workload as a closed loop.

One client sends each request when the previous one has completed.  Inputs
come from ``--seed``; every output is checked, and a wrong output or an
exception counts as a failed request without stopping the run.  Runs stop
between whole passes of the workload's request mix (one request, or one
complexity table for ``search_scan``), once ``--seconds`` have passed and at
least 100 requests have completed.  Input generation and output checks run
outside the timed region.

    python3 perfbench/run.py --workload pulse_scan --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``setup_s`` is the median
wall time of three fresh processes that each import the package and complete
request 0.  ``--trace 1`` spends half of ``--seconds`` untraced and half
traced and reports the per-layer metrics, writing the spans of the traced
half to ``bench_out/spans-<workload>.jsonl.gz``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# The cap must be in the environment before numpy loads its BLAS.
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = str(NPROC)
# cli.main would write to $SPINSEARCH_OUT instead of the benchmark's directory.
os.environ.pop("SPINSEARCH_OUT", None)

if not (ROOT / "src" / "spinsearch" / "__init__.py").is_file():
    sys.exit(f"perfbench: no package source at {ROOT / 'src' / 'spinsearch'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed, make_workload  # noqa: E402

MIN_REQUESTS = 100  # so that ten latency samples lie beyond p90
SETUP_RUNS = 3
SETUP_TIMEOUT_S = 150
CHECKSUM_REQUESTS = 20  # or one whole pass, if longer
MAX_REPORTED_FAILURES = 5

END_TO_END = {
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class LoopResult:
    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    digests: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def requests_per_s(self) -> float:
        return self.attempted / math.fsum(self.latencies)


def closed_loop(workload, seed: int, seconds: float, min_requests: int, tracer=None) -> LoopResult:
    """Send requests 0, 1, 2, ... one at a time until ``seconds`` have passed
    and ``min_requests`` have been sent, stopping only between whole passes."""
    result = LoopResult()
    checksum_requests = max(CHECKSUM_REQUESTS, workload.pass_size)
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for _ in range(workload.pass_size):
            inp = workload.make_input(seed, index)
            workload.prepare(inp)
            span = tracer.request(index) if tracer is not None else nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    out = workload.execute(inp, tracer)
                elapsed = time.perf_counter() - start
                digest = workload.check(inp, out)
            except Exception as exc:  # a failed request must not stop the run
                elapsed = time.perf_counter() - start
                result.failed += 1
                digest = f"failed: {type(exc).__name__}"
                if result.failed <= MAX_REPORTED_FAILURES:
                    detail = str(exc) if isinstance(exc, CheckFailed) else traceback.format_exc()
                    print(f"request {index} failed: {detail}", file=sys.stderr)
            result.latencies.append(elapsed)
            if index < checksum_requests:
                result.digests.append(digest)
            index += 1
        if time.perf_counter() >= deadline and result.attempted >= min_requests:
            return result


def checksum(digests) -> str:
    return hashlib.sha256(json.dumps(digests).encode()).hexdigest()[:16]


def nearest_rank(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(fraction * len(ordered)) - 1, 0)]


def first_request(workload, seed: int) -> None:
    """Request 0, untimed and checked: the set-up probe's request, and the
    warm-up that finishes lazy set-up before timing starts."""
    inp = workload.make_input(seed, 0)
    workload.prepare(inp)
    workload.check(inp, workload.execute(inp))


def measure_setup(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return times


def machine_facts() -> str:
    return (
        f"nproc={NPROC} blas_threads={os.environ['OMP_NUM_THREADS']} "
        f"python={platform.python_version()} numpy={np.__version__} scipy={scipy.__version__}"
    )


def report(workload, seed, loops: list[LoopResult], metrics: dict[str, tuple[float, str]]) -> int:
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"workload {workload.name} seed {seed}: {machine_facts()}")
    print(f"requests {attempted}, failed {failed}, failed_ratio {failed / attempted} "
          "(carried by the result's attempted/failed fields)")
    print(f"checksum {checksum(loops[0].digests)} over the first {len(loops[0].digests)} requests")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def run_untraced(workload, seed, seconds) -> int:
    setup = measure_setup(workload.name, seed)
    first_request(workload, seed)
    loop = closed_loop(workload, seed, seconds, MIN_REQUESTS)
    values = {
        "requests_per_s": loop.requests_per_s,
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_p90_ms": nearest_rank(loop.latencies, 0.9) * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return report(workload, seed, [loop], {k: (values[k], END_TO_END[k]) for k in END_TO_END})


def run_traced(workload, seed, seconds) -> int:
    first_request(workload, seed)
    min_requests = max(CHECKSUM_REQUESTS, workload.pass_size)
    untraced = closed_loop(workload, seed, seconds / 2, min_requests)
    tracer = Tracer()
    with tracer.installed():
        traced = closed_loop(workload, seed, seconds / 2, min_requests, tracer)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}.jsonl.gz"
    tracer.write_spans(str(spans_path))
    values = tracer.layer_metrics()
    values["trace.overhead_rps"] = traced.requests_per_s - untraced.requests_per_s
    layer_ms = sum(v for k, v in values.items()
                   if k.endswith("_ms") and not k.startswith("request."))
    print(f"layer self times {layer_ms!r} ms + untraced {values['request.untraced_ms']!r} ms"
          f" = request wall {values['request.wall_ms']!r} ms; {len(tracer.spans)} spans"
          f" written to {spans_path.relative_to(ROOT)}")
    metrics = {k: (values[k], unit) for k, (unit, _) in LAYER_METRICS.items()}
    return report(workload, seed, [untraced, traced], metrics)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = make_workload(args.workload, str(workdir))
        if args.setup_probe:
            first_request(workload, args.seed)
            return 0
        run = run_traced if args.trace else run_untraced
        return run(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
