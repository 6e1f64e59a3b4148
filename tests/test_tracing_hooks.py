"""The benchmark's tracer still finds every attribute it wraps.

``perfbench/tracing.py`` replaces module and class attributes of polarscl
by name, so a rename in the package breaks ``perfbench/run.py --trace 1``.
This test installs the tracer on the package, runs one tiny decode and
takes the wrappers off again.
"""

import importlib.util
from pathlib import Path

import numpy as np

import polarscl as pl
import polarscl.cli  # noqa: F401  (install reaches the layers as pl.cli, ...)
from polarscl.codes import construct_code

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_records_and_unwraps():
    tracing = load_tracing()
    read = pl.engine.PathStore.__dict__["read"]
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, pl)
        spec = construct_code(16, 8, method="bhattacharyya", design_param=0.5)
        llrs = np.random.default_rng(0).normal(1.0, 1.0, (2, 16))
        pl.engine.decode_batch(llrs, spec, "flexible", L=4)
    finally:
        tracer.unwrap()
    names = {span[0] for span in tracer.spans}
    assert {"engine.store.read", "qarith.f", "qarith.g",
            "qarith.channel"} <= names
    assert tracer.counts["engine.store.unique_rows"] > 0
    assert pl.engine.PathStore.__dict__["read"] is read


def test_single_path_reads_still_pass_through_the_store():
    """Each bank holds one row per path, so at L=1 one row per frame; the
    reads must still go through ``PathStore.read``, where the tracer
    counts them."""
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, pl)
        spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
        llrs = np.random.default_rng(1).normal(1.0, 1.0, (3, 64))
        pl.engine.decode_batch(llrs, spec, "sc", L=1)
    finally:
        tracer.unwrap()
    assert tracer.counts["engine.store.read.calls"] > 0
    assert tracer.counts["engine.store.unique_rows"] == \
        tracer.counts["engine.store.path_rows"] > 0
