"""In-memory span tracer that wraps the package's public functions from the
outside.

Every module-level name that refers to a traced function is swapped for a
wrapper while the tracer is installed, in every ``spinsearch`` module that
holds it.  Calls inside the package look their callees up in their own
module's globals at call time, so ``sequence.run_sequence`` calling
``event_operator`` or ``apply_unitary`` goes through the wrapper without any
change under ``src/``.

A span is (name, start, end, parent, request id).  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its duration
minus the time its child spans cover; time spent in untraced helpers counts
toward the nearest traced caller.  The benchmark's own ``request`` span is
the root of each request, so its self time is the part of the request that no
layer span covers.
"""

from __future__ import annotations

import gzip
import importlib
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = ("cli", "experiment", "sequence", "spins", "readout", "grover", "core")
REQUEST = "request"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _events(args, kwargs, result):
    seq = _arg(args, kwargs, 1, "seq")
    return len(getattr(seq, "events", seq))


def _points(args, kwargs, result):
    return _arg(args, kwargs, 2, "acq").n_points


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Traced function ("module.function") -> the self-time metric it adds to.
# Each traced function feeds exactly one time metric, so the time metrics
# plus the request span's self time add up to the request wall time.
SPAN_METRICS = {
    "cli.main": "cli.main_ms",
    "experiment.run_experiments": "experiment.run_ms",
    "sequence.compile_oracle": "sequence.compile_ms",
    "sequence.grover_program": "sequence.compile_ms",
    "sequence.run_sequence": "sequence.run_ms",
    "sequence.event_operator": "sequence.run_ms",
    "sequence.pulse_operator": "sequence.run_ms",
    "spins.soft_pulse": "spins.soft_pulse_ms",
    "spins.ideal_pulse": "spins.ideal_pulse_ms",
    "spins.free_evolution": "spins.free_evolution_ms",
    "spins.gradient_crush": "spins.gradient_crush_ms",
    "core.apply_unitary": "core.apply_unitary_ms",
    "core.apply_single_qubit": "core.apply_single_qubit_ms",
    "core.fidelity": "core.fidelity_ms",
    "readout.detect": "readout.detect_ms",
    "readout.synthesize_fid": "readout.synthesize_fid_ms",
    "readout.classify": "readout.classify_ms",
    "readout.reference_phase": "readout.classify_ms",
    "readout.write_spectrum_csv": "readout.export_ms",
    "readout.write_summary_json": "readout.export_ms",
    "grover.grover_general": "grover.general_ms",
    "grover.optimal_iterations": "grover.general_ms",
    "grover.success_probability": "grover.general_ms",
    "grover.grover_iterate": "grover.iterate_ms",
    "grover.monte_carlo_evaluations": "grover.mc_ms",
}

# Count metric -> the traced function whose calls it counts.
CALL_COUNTS = {
    "experiment.sets": "experiment.run_experiments",
    "sequence.propagators": "sequence.event_operator",
    "spins.soft_pulses": "spins.soft_pulse",
    "spins.ideal_pulses": "spins.ideal_pulse",
    "core.apply_unitary_calls": "core.apply_unitary",
    "core.apply_single_qubit_calls": "core.apply_single_qubit",
    "readout.detect_calls": "readout.detect",
    "grover.iterates": "grover.grover_iterate",
}

# Traced function -> (count metric, amount read off the call's arguments
# or result), summed over calls.
BOUNDARY_COUNTS = {
    "sequence.run_sequence": ("sequence.events", _events),
    "readout.detect": ("readout.points", _points),
    "readout.write_spectrum_csv": ("readout.export_bytes", _file_bytes),
    "readout.write_summary_json": ("readout.export_bytes", _file_bytes),
}

# Per-layer metrics as BENCHMARK.json lists them: name -> (unit, better).
# Times and counts are means per traced request.
LAYER_METRICS = {
    **{name: ("ms", "lower") for name in dict.fromkeys(SPAN_METRICS.values())},
    "sequence.events": ("count", "lower"),
    "sequence.propagators": ("count", "lower"),
    "sequence.propagator_distinct_ratio": ("ratio", "higher"),
    "spins.soft_pulses": ("count", "lower"),
    "spins.ideal_pulses": ("count", "lower"),
    "core.apply_unitary_calls": ("count", "lower"),
    "core.apply_single_qubit_calls": ("count", "lower"),
    "experiment.sets": ("count", "lower"),
    "readout.detect_calls": ("count", "lower"),
    "readout.points": ("count", "lower"),
    "readout.export_bytes": ("bytes", "lower"),
    "grover.iterates": ("count", "lower"),
    "grover.mc_draws": ("count", "lower"),
    "grover.statevector_bytes": ("B_computed", "lower"),
    "request.wall_ms": ("ms", "lower"),
    "request.untraced_ms": ("ms", "lower"),
    "trace.overhead_rps": ("1/s", "higher"),
}


class CountingGenerator:
    """Pass-through proxy around a numpy Generator that counts the uniform
    variates drawn through ``random``."""

    def __init__(self, rng: np.random.Generator, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def random(self, size=None, *args, **kwargs):
        self._tracer.counts["grover.mc_draws"] += 1 if size is None else int(np.prod(size))
        return self._rng.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Collects spans and boundary counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.propagator_keys: set = set()
        self.statevector_bytes = 0
        self.request_wall = 0.0
        self.requests = 0
        self._stack: list[list] = []
        self._request_id = -1
        self._patched: list[tuple] = []

    def _enter(self):
        frame = [len(self.spans), 0.0]  # span index, time covered by children
        self.spans.append(None)
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, start, end):
        stack = self._stack
        stack.pop()
        duration = end - start
        parent = stack[-1] if stack else None
        self.spans[frame[0]] = (
            name, start, end, parent[0] if parent else -1, self._request_id
        )
        self.self_time[name] += duration - frame[1]
        self.calls[name] += 1
        if parent is not None:
            parent[1] += duration
        return duration

    def _wrap(self, name, fn):
        boundary = BOUNDARY_COUNTS.get(name)
        propagator = name == "sequence.event_operator"
        statevector = name == "grover.grover_general"

        def traced(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, frame, start, perf_counter())
            if boundary is not None:
                self.counts[boundary[0]] += boundary[1](args, kwargs, result)
            if propagator:
                self.propagator_keys.add((args, tuple(sorted(kwargs.items()))))
            if statevector:
                self.statevector_bytes = max(self.statevector_bytes, result.nbytes)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper in all package
        modules; restore the originals on exit."""
        package = importlib.import_module("spinsearch")
        modules = [package] + [importlib.import_module(f"spinsearch.{m}") for m in LAYERS]
        try:
            for name in SPAN_METRICS:
                module, attr = name.split(".")
                original = getattr(importlib.import_module(f"spinsearch.{module}"), attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patched.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            while self._patched:
                mod, key, value = self._patched.pop()
                setattr(mod, key, value)

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request."""
        self._request_id = request_id
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self.request_wall += self._exit(REQUEST, frame, start, perf_counter())
            self.requests += 1
            self._request_id = -1

    def counting(self, rng: np.random.Generator) -> CountingGenerator:
        return CountingGenerator(rng, self)

    def layer_metrics(self) -> dict[str, float]:
        """Every layer metric except ``trace.overhead_rps``, as means per
        traced request (0 for layers the workload never enters)."""
        n = max(self.requests, 1)
        values = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_rps"}
        for span, metric in SPAN_METRICS.items():
            values[metric] += self.self_time[span] * 1e3 / n
        for metric, span in CALL_COUNTS.items():
            values[metric] = self.calls[span] / n
        for metric, amount in self.counts.items():
            values[metric] = amount / n
        propagators = self.calls["sequence.event_operator"]
        if propagators:
            values["sequence.propagator_distinct_ratio"] = len(self.propagator_keys) / propagators
        values["grover.statevector_bytes"] = float(self.statevector_bytes)
        values["request.wall_ms"] = self.request_wall * 1e3 / n
        values["request.untraced_ms"] = self.self_time[REQUEST] * 1e3 / n
        return values

    def write_spans(self, path: str) -> None:
        """Write the spans as gzipped JSON lines, times in seconds from the
        first span's start; ``parent`` is the parent's line number, -1 for
        a root."""
        origin = self.spans[0][1] if self.spans else 0.0
        lines = [
            f'{{"name":"{n}","start":{s - origin:.9f},"end":{e - origin:.9f},'
            f'"parent":{p},"request":{r}}}\n'
            for n, s, e, p, r in self.spans
        ]
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.writelines(lines)
