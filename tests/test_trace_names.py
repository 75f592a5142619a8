"""The benchmark tracer (perfbench/tracer.py) times package functions that it
looks up by "module.function" name, so deleting or renaming one breaks
``perfbench/run.py --trace 1``.  These tests read the tracer's tables and
resolve every name in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    """perfbench/tracer.py as a module of its own, without writing its
    bytecode next to it or registering it in sys.modules."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


_tracer = _load_tracer()
TRACED_NAMES = sorted(
    {*_tracer.SPAN_METRICS, *_tracer.CALL_COUNTS.values(), *_tracer.BOUNDARY_COUNTS}
)


@pytest.mark.parametrize("name", TRACED_NAMES)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    function = getattr(importlib.import_module(f"spinsearch.{module}"), attr, None)
    assert callable(function), f"perfbench/tracer.py traces {name}, which spinsearch lacks"
