"""Short-mode tests of the benchmark itself.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
Each test starts the runner as a separate process, as it is run for real.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fer_flexible", "cli_decode_sc", "trace_ultra")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def result(out):
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_bit_counts_as_failure(workload):
    out = bench("--workload", workload, "--inject-corruption")
    res = result(out)
    assert out.returncode == 1
    assert res["correct"] is False
    assert 1 <= res["failed"] <= res["attempted"]


@pytest.mark.parametrize("trace", ("0", "1"))
def test_clean_run_passes(trace):
    out = bench("--workload", "trace_ultra", "--trace", trace)
    assert out.returncode == 0, out.stderr
    res = result(out)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = bench("--workload", "trace_ultra", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
