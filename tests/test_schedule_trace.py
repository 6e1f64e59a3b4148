"""The cycle trace is a function of the decode schedule alone.

``engine.schedule_trace`` walks the plan with path counts only, without
decoding. The digests below were recorded from a decoder that emitted its
trace from inside the decode loop. They cover every profile, list sizes
1, 4 and the profile maximum, leaf widths 1-8, storage strides 1-4,
special-node caps 0, 4 and 32, and the frozen-prefix skip on and off. The
codes are N = 8 to 256, plain and with a CRC8 (from N = 32), two parity
constraints and good bits: 8,064 configurations in all.
"""

import gc
import hashlib
import weakref

import numpy as np
import pytest

from polarscl import engine
from polarscl.cli import main
from polarscl.codes import CrcSpec, ParityCheckSpec, construct_code


def grid_codes():
    """Two codes per n from 3 to 8: a plain rate-1/2 code, and one with a
    CRC8 (when N >= 32), two parity constraints and good bits."""
    codes = []
    for n in range(3, 9):
        N = 1 << n
        crc = CrcSpec(8) if N >= 32 else None
        width = crc.width if crc is not None else 0
        base = construct_code(N, N // 2, "bhattacharyya", 0.5, crc=crc)
        targets = base.nonfrozen_positions[:N // 2 - width][-2:]
        pc = ParityCheckSpec([(int(p), sorted({0, int(p) // 2}))
                              for p in targets])
        codes.append(construct_code(N, N // 2, "bhattacharyya", 0.5))
        codes.append(construct_code(N, N // 2, "bhattacharyya", 0.5, crc=crc,
                                    pc=pc, good_threshold=0.3))
    return codes


def grid(kind, stride, codes):
    """(spec, profile, L) of every configuration of one (profile, stride)."""
    l_max = engine.profile_for(kind).l_max
    for spec in codes:
        for W in (1, 2, 4, 8):
            for cap in (0, 4, 32):
                for skip in (False, True):
                    profile = engine.profile_for(
                        kind, leaf_width=W, storage_stride=stride,
                        max_special_node=cap, skip_frozen_prefix=skip)
                    for L in sorted({1, min(4, l_max), l_max}):
                        yield spec, profile, L


def events_digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(repr(trace.events).encode())
    return h.hexdigest()[:16]


PINNED = {
    ("sc", 1): "cc078a53fac5f62b",
    ("sc", 2): "5cec2e693bfc1dd2",
    ("sc", 3): "e3640d219dddde19",
    ("sc", 4): "1d306b16ce731cd4",
    ("flexible", 1): "0a26b6172f2cd899",
    ("flexible", 2): "cb1e95f54d1947ea",
    ("flexible", 3): "8463af7e4cb7975c",
    ("flexible", 4): "6dc4eda5c736823d",
    ("ultra", 1): "a4abb2380efb498e",
    ("ultra", 2): "12ae989cebb18c4a",
    ("ultra", 3): "7ba12731a6d4daf4",
    ("ultra", 4): "980109741deddafb",
}


@pytest.fixture(scope="module")
def codes():
    return grid_codes()


@pytest.mark.parametrize("kind, stride", sorted(PINNED))
def test_schedule_trace_matches_pinned_digest(codes, kind, stride):
    traces = [engine.schedule_trace(spec, profile, L)
              for spec, profile, L in grid(kind, stride, codes)]
    assert events_digest(traces) == PINNED[kind, stride]


@pytest.mark.parametrize("kind", ["sc", "flexible", "ultra"])
def test_plan_computes_each_node_once_at_any_stride(codes, kind):
    """The decode computes every tree node once: no (t, v) is in two
    chains of a plan. The stride acts on the trace and the copy counters
    only, so profiles that differ in it alone share one plan."""
    for configs in zip(*(grid(kind, stride, codes) for stride in (1, 2, 3, 4))):
        plans = [engine._plan_for(spec, profile) for spec, profile, _L in configs]
        assert all(plan is plans[0] for plan in plans)
        nodes = [node for step in plans[0][0] for node in step.chain]
        assert len(nodes) == len(set(nodes))


def test_latency_total_cycles_pinned(capsys):
    """The report of ``polarscl latency`` on the ultra profile at N=256,
    k=128 (every other setting at its default), as the decode-loop trace
    priced it."""
    assert main(["latency", "--set", "code.n=256", "--set", "code.k=128",
                 "--profile", "ultra", "-q"]) == 0
    out = dict(ln.split(" = ") for ln in capsys.readouterr().out.splitlines())
    assert (out["total_cycles"], out["events"]) == ("4900", "443")


def test_plan_is_freed_with_its_spec():
    """A plan holds no reference cycle, so it goes with its spec even
    while the cyclic garbage collector is off."""
    gc.collect()
    gc.disable()
    try:
        spec = construct_code(64, 32, "bhattacharyya", 0.5)
        engine.decode_batch(np.ones((2, 64)), spec, "flexible", L=4,
                            collect_trace=True)
        steps, _w = engine._plan_for(spec, engine.profile_for("flexible"))
        step = weakref.ref(steps[0])
        del steps, spec
        assert step() is None
    finally:
        gc.enable()
