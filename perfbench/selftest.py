#!/usr/bin/env python3
"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

They check that a seed fixes the generated inputs, that a wrong output is
counted as a failed request, that the printed metric names are exactly the
ones BENCHMARK.json lists, and that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

import run
from spinsearch.readout import AmbiguousReadoutError
from tracer import LAYER_METRICS
from workloads import WORKLOADS, make_workload

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _workdir(test: unittest.TestCase) -> str:
    run.OUT_DIR.mkdir(exist_ok=True)
    path = tempfile.mkdtemp(dir=run.OUT_DIR)
    test.addCleanup(shutil.rmtree, path, ignore_errors=True)
    return path


def _run_benchmark(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class Tampered:
    """A workload whose request output is altered before the check, with
    short passes so the loop stops after a few requests."""

    pass_size = 2

    def __init__(self, inner, corrupt):
        self.inner = inner
        self.corrupt = corrupt
        self.name = inner.name

    def make_input(self, seed, index):
        return self.inner.make_input(seed, index)

    def prepare(self, inp):
        self.inner.prepare(inp)

    def execute(self, inp, tracer=None):
        return self.corrupt(self.inner.execute(inp, tracer), self.inner)

    def check(self, inp, out):
        return self.inner.check(inp, out)


def _swap_qubits(out, workload):
    run_ = out.runs[1]
    result = dataclasses.replace(run_.result, qubit1=run_.result.qubit2, qubit2=run_.result.qubit1)
    runs = (out.runs[0], dataclasses.replace(run_, result=result)) + out.runs[2:]
    return dataclasses.replace(out, runs=runs)


def _shift_height(out, workload):
    run_ = out.runs[0]
    heights = (run_.result.line_heights[0] + 1e-5,) + run_.result.line_heights[1:]
    result = dataclasses.replace(run_.result, line_heights=heights)
    return dataclasses.replace(out, runs=(dataclasses.replace(run_, result=result),) + out.runs[1:])


def _rewrite_summary(rc, workload):
    path = Path(workload.out_dir) / "summary.json"
    docs = json.loads(path.read_text())
    docs[2]["qubits"] = [1, 1]
    path.write_text(json.dumps(docs))
    return rc


def _shift_probability(out, workload):
    return dataclasses.replace(out, p_success=out.p_success + 1e-9)


def _shift_monte_carlo(out, workload):
    return dataclasses.replace(out, mc_mean=out.mc_mean + 11 * out.mc_stderr)


def _ambiguous(out, workload):
    raise AmbiguousReadoutError("injected")


class InputTest(unittest.TestCase):
    def test_same_seed_gives_identical_inputs(self):
        for name in WORKLOADS:
            workload = make_workload(name, _workdir(self))
            indices = range(workload.pass_size + 2)
            first = [workload.make_input(7, i) for i in indices]
            self.assertEqual(first, [workload.make_input(7, i) for i in indices], name)
            self.assertNotEqual(first, [workload.make_input(8, i) for i in indices], name)


class CheckerTest(unittest.TestCase):
    def _failed(self, name, corrupt):
        workload = Tampered(make_workload(name, _workdir(self)), corrupt)
        result = run.closed_loop(workload, seed=3, seconds=0, min_requests=2)
        return result.failed, result.attempted

    def test_unaltered_outputs_pass(self):
        for name in ("pulse_scan", "search_scan"):
            self.assertEqual(self._failed(name, lambda out, w: out), (0, 2), name)

    def test_wrong_outputs_count_as_failed(self):
        cases = [
            ("pulse_scan", _swap_qubits),
            ("spectra_hires", _shift_height),
            ("cli_pulse", _rewrite_summary),
            ("search_scan", _shift_probability),
            ("search_scan", _shift_monte_carlo),
            ("pulse_scan", _ambiguous),
        ]
        for name, corrupt in cases:
            with self.subTest(workload=name, corruption=corrupt.__name__):
                self.assertEqual(self._failed(name, corrupt), (2, 2))


class MetricNameTest(unittest.TestCase):
    def test_benchmark_json_lists_the_code_tables(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        self.assertEqual(
            {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}, run.END_TO_END
        )
        self.assertEqual(
            {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]}, LAYER_METRICS
        )

    def test_printed_metric_names_match_benchmark_json(self):
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = _run_benchmark("--workload", "pulse_scan", "--seed", "1",
                                  "--seconds", "0.5", "--trace", trace)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            self.assertTrue(result["correct"])
            self.assertEqual(list(result["metrics"]), [m["name"] for m in BENCHMARK[section]])
            for metric in BENCHMARK[section]:
                self.assertEqual(result["metrics"][metric["name"]]["unit"], metric["unit"])


class StandaloneTest(unittest.TestCase):
    def test_refuses_to_run_without_package_source(self):
        bare = Path(_workdir(self))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run_benchmark("--workload", "pulse_scan", "--seed", "1",
                              "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
