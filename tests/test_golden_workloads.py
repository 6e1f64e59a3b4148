"""The benchmark's golden outputs, checked without running the benchmark.

``perfbench/golden.json`` records each workload's outputs at seed 1. The
benchmark's own smoke test runs a clean golden check only on trace_ultra,
so this test drives the other two workloads' units through
``perfbench/workloads.py`` (loaded by path, as the benchmark loads it) and
compares them with their records: unit 0 of fer_flexible and the first
four files of cli_decode_sc.
"""

import importlib
import importlib.util
import json
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = ("cli", "config", "codes", "channel", "qarith", "engine", "cycles",
          "reference")


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name, units", [("fer_flexible", 1),
                                         ("cli_decode_sc", 4)])
def test_workload_units_match_golden_json(tmp_path, name, units):
    workloads = load_workloads()
    layers = types.SimpleNamespace(**{
        m: importlib.import_module("polarscl." + m) for m in LAYERS})
    golden = json.loads((PERFBENCH / "golden.json").read_text())[name]
    w = workloads.WORKLOADS[name](layers, workloads.DEFAULT_SEED,
                                  str(tmp_path))
    w.setup()
    w.prepare()
    for unit in range(units):
        w.collect(unit, w.call(unit))
    assert w.golden_outputs() == golden["outputs"][:units]
