import math
from dataclasses import replace

import numpy as np
import pytest

from polarscl.codes import CrcSpec, ParityCheckSpec, construct_code
from polarscl.cycles import (
    ArchParams, CycleReport, DecodeTrace, calibrate_sort_latency,
    double_package, latency, throughput,
)
from polarscl.engine import decode, schedule_trace


def test_serial_stage_pricing():
    # width 2^t > parallel_threshold runs in PE waves:
    # paths * ceil(width / pe_count_serial) * cycles_per_pe_pass
    arch = ArchParams()
    tr = DecodeTrace(N=1024, k=512, L=8)
    tr.stage(8, "f", 8)
    rep = latency(tr, arch)
    assert rep.total_cycles == 8 * math.ceil(256 / 64) * 1 == 32
    assert rep.breakdown == {"serial": 32, "semi_parallel": 0,
                             "parallel": 0, "sort": 0}

    # one extra pass when the width is not a PE-count multiple
    tr = DecodeTrace(N=1024, k=512, L=8)
    tr.stage(5, "g", 3)  # width 32 > 16, ceil(32/64) = 1
    assert latency(tr, arch).total_cycles == 3

    slow = replace(arch, cycles_per_pe_pass=2)
    assert latency(tr, slow).total_cycles == 6


def test_parallel_stage_pricing_is_path_independent():
    arch = ArchParams()
    for paths in (1, 8, 32):
        tr = DecodeTrace(N=64, k=32, L=32)
        tr.stage(3, "f", paths)  # width 8 <= threshold
        assert latency(tr, arch).total_cycles == arch.parallel_unit_latency


def test_semi_parallel_stage_pricing():
    arch = ArchParams()
    tr = DecodeTrace(N=2048, k=1024, L=32,
                     semi_parallel_stages=(4, 3), semi_parallel_group=4)
    tr.stage(4, "f", 32)
    tr.stage(3, "g", 5)
    rep = latency(tr, arch)
    # ceil(32/4) + ceil(5/4) waves of one cycle each
    assert rep.breakdown["semi_parallel"] == 8 + 2
    assert rep.total_cycles == 10
    # the same stage without the semi-parallel listing is a parallel pass
    tr2 = DecodeTrace(N=2048, k=1024, L=32)
    tr2.stage(4, "f", 32)
    assert latency(tr2, arch).breakdown["parallel"] == arch.parallel_unit_latency


def test_leaf_pricing_bills_each_pruning_sort():
    arch = ArchParams()
    tr = DecodeTrace(N=64, k=32, L=8)
    tr.leaf(2, 16, 8, 3)
    rep = latency(tr, arch)
    assert rep.breakdown["parallel"] == arch.parallel_unit_latency
    assert rep.breakdown["sort"] == 3 * arch.sort_latency_for(8) == 36
    assert rep.idle_pe_cycles == rep.breakdown["sort"]

    # a single surviving path never sorts
    tr = DecodeTrace(N=64, k=32, L=1)
    tr.leaf(2, 2, 1, 4)
    assert latency(tr, arch).breakdown["sort"] == 0


def test_special_node_pricing_and_breakdown_sums():
    arch = ArchParams()
    tr = DecodeTrace(N=256, k=128, L=8)
    tr.stage(7, "f", 1)
    tr.stage(2, "g", 8)
    tr.special("rate0", 4, 8)
    tr.leaf(1, 8, 8, 1)
    rep = latency(tr, arch)
    assert sum(rep.breakdown.values()) == rep.total_cycles
    assert rep.n_events == 4
    assert rep.meta == {"N": 256, "k": 128, "L": 8, "kind": "custom"}


def test_unknown_event_rejected():
    tr = DecodeTrace(N=8, k=4, L=2)
    tr.events.append(("warp", 3))
    with pytest.raises(ValueError):
        latency(tr)


def test_sort_latency_for_unknown_size():
    arch = ArchParams()
    assert arch.sort_latency_for(8) == 12
    with pytest.raises(ValueError):
        arch.sort_latency_for(3)


def test_throughput_arithmetic():
    # 512 info bits, 1 GHz, 2500 cycles, 5 cores -> 1.024 Gbps
    assert throughput(512, 1.0e9, 2500, 5) == 1.024e9
    rng = np.random.default_rng(7)
    for _ in range(100):
        k = int(rng.integers(1, 4096))
        f = float(rng.uniform(1e8, 2e9))
        cyc = int(rng.integers(1, 100000))
        cores = int(rng.integers(1, 8))
        want = (k * cores) * (f / cyc)
        assert throughput(k, f, cyc, cores) == pytest.approx(want, rel=1e-12)


def test_throughput_validation():
    for bad in ((512, 1e9, 0, 1), (512, 1e9, 100, 0),
                (0, 1e9, 100, 1), (512, 0.0, 100, 1)):
        with pytest.raises(ValueError):
            throughput(*bad)


def test_report_throughput_uses_arch_clock_and_cores():
    arch = ArchParams(f_clk_hz=5.0e8, num_cores=2)
    tr = DecodeTrace(N=1024, k=512, L=8)
    tr.stage(8, "f", 8)
    rep = latency(tr, arch)
    assert rep.throughput_bps(arch) == throughput(512, 5.0e8, rep.total_cycles, 2)


def test_double_package_degenerate_cases():
    arch = ArchParams()
    tr = DecodeTrace(N=1024, k=512, L=8)
    tr.stage(8, "f", 8)
    tr.leaf(1, 16, 8, 1)
    tr.stage(6, "g", 8)
    single = latency(tr, arch).total_cycles

    empty = DecodeTrace(N=1024, k=512, L=8)
    out = double_package(tr, empty, arch)
    assert out["total_cycles"] == single
    assert out["ratio_vs_single"] == 1.0

    # two sort-free packages fight over the one PE array: no overlap
    pe_only = DecodeTrace(N=1024, k=512, L=8)
    pe_only.stage(8, "f", 8)
    pe_only.stage(7, "g", 8)
    t1 = latency(pe_only, arch).total_cycles
    out = double_package(pe_only, pe_only, arch)
    assert out["total_cycles"] == 2 * t1
    assert out["ratio_vs_single"] == 2.0
    assert out["throughput_gain"] == 1.0


def test_double_package_pipelined_sorter_hand_schedule():
    # each package: two 2-cycle PE passes (stage + leaf decision), then one
    # 12-cycle sort (L=8). greedy earliest-fit, unit initiation interval:
    #   pkg0 PE [0,2) [2,4)  sort [4,16)
    #   pkg1 PE [4,6) [6,8)  sort [8,20)   (sorter reissues after 1 cycle;
    # an exclusive sorter could not start pkg1's sort before cycle 16)
    arch = ArchParams()
    tr = DecodeTrace(N=64, k=32, L=8)
    tr.stage(2, "f", 8)
    tr.leaf(0, 16, 8, 1)
    assert latency(tr, arch).total_cycles == 16
    out = double_package(tr, tr, arch)
    assert out["package_finish"] == (16, 20)
    assert out["total_cycles"] == 20
    assert out["ratio_vs_single"] == pytest.approx(20 / 16)
    assert out["throughput_gain"] == pytest.approx(32 / 20)


def random_trace_pairs():
    """20 pairs of random traces of stages, leaves and special nodes."""
    rng = np.random.default_rng(11)
    for _ in range(20):
        traces = []
        for _t in range(2):
            tr = DecodeTrace(N=1 << 10, k=512, L=8)
            for _e in range(int(rng.integers(1, 30))):
                kind = rng.integers(0, 3)
                if kind == 0:
                    tr.stage(int(rng.integers(1, 10)), "f", int(rng.integers(1, 9)))
                elif kind == 1:
                    tr.leaf(int(rng.integers(0, 3)), 16, 8, int(rng.integers(0, 4)))
                else:
                    tr.special("rep", 3, 8)
            traces.append(tr)
        yield traces


def test_double_package_bounds_and_determinism():
    arch = ArchParams()
    for traces in random_trace_pairs():
        t1 = latency(traces[0], arch).total_cycles
        t2 = latency(traces[1], arch).total_cycles
        out = double_package(traces[0], traces[1], arch)
        again = double_package(traces[0], traces[1], arch)
        assert out == again
        assert max(t1, t2) <= out["total_cycles"] <= t1 + t2
        assert out["package_cycles"] == (t1, t2)


def _flexible_trace(N, k, seed=0):
    spec = construct_code(N, k, method="bhattacharyya", design_param=0.5)
    llr = np.full(N, 12.0)
    res = decode(llr, spec, "flexible", L=8, collect_trace=True)
    return res.trace


def test_engine_trace_latency_monotone_in_block_length():
    totals = [latency(_flexible_trace(N, N // 2)).total_cycles
              for N in (256, 1024, 4096)]
    assert totals[0] < totals[1] < totals[2]


def test_engine_trace_throughput_monotone_in_rate():
    # higher-rate codes decode more info bits per frame and spend fewer
    # cycles on frozen-heavy subtrees, so info throughput rises with rate
    N = 1024
    arch = ArchParams()
    tput = []
    for k in (N // 4, N // 2, 2 * N // 3, 3 * N // 4, 8 * N // 9):
        rep = latency(_flexible_trace(N, k), arch)
        tput.append(rep.throughput_bps(arch))
    assert all(a < b for a, b in zip(tput, tput[1:]))


def test_trace_schedule_is_data_independent():
    # two different received frames produce the same event stream prices
    spec = construct_code(512, 256, method="bhattacharyya", design_param=0.5)
    rng = np.random.default_rng(3)
    reps = []
    for _ in range(2):
        llr = rng.normal(0.0, 4.0, 512)
        res = decode(llr, spec, "flexible", L=8, collect_trace=True)
        reps.append(latency(res.trace))
    assert reps[0].total_cycles == reps[1].total_cycles
    assert reps[0].breakdown == reps[1].breakdown


def test_calibrate_sort_latency_consistent_with_schedule():
    trace = _flexible_trace(2048, 1024)
    arch = ArchParams()
    hits = calibrate_sort_latency(trace, arch)
    assert hits, "no sorter latency lands the two-package ratio in band"
    lo, hi = 2.0 / 1.586, 1.30
    for cyc, ratio in hits:
        assert lo <= ratio <= hi
        table = tuple((s, cyc if s == 8 else c) for s, c in arch.sort_latency)
        redo = double_package(trace, trace, replace(arch, sort_latency=table))
        assert redo["ratio_vs_single"] == pytest.approx(ratio)


@pytest.mark.parametrize("field, value, message", [
    ("pe_count_serial", 0, "pe_count_serial must be at least 1"),
    ("parallel_threshold", 0, "parallel_threshold must be at least 1"),
    ("cycles_per_pe_pass", 0, "cycles_per_pe_pass must be at least 1"),
    ("sort_initiation_interval", 0,
     "sort_initiation_interval must be at least 1"),
    ("num_cores", 0, "num_cores must be at least 1"),
    ("parallel_unit_latency", -1, "parallel_unit_latency must not be negative"),
    ("sort_latency", ((1, 0), (8, -3)),
     "sort_latency of list size 8 must not be negative"),
    ("sort_latency", ((8, 2.5),), "sort_latency entries must be an integer"),
    ("sort_latency", ((1.0, 0),), "sort_latency entries must be an integer"),
    ("sort_latency", ((0, 1), (8, 12)), "list size >= 1"),
    ("sort_latency", ((8, 3), (8, 40)), "sort_latency lists a list size twice"),
    ("f_clk_hz", 0.0, "f_clk_hz must be finite and positive"),
    ("f_clk_hz", float("nan"), "f_clk_hz must be finite and positive"),
    ("f_clk_hz", float("inf"), "f_clk_hz must be finite and positive"),
    ("parallel_unit_latency", 2.5, "parallel_unit_latency must be an integer"),
    ("pe_count_serial", 64.5, "pe_count_serial must be an integer"),
    ("parallel_threshold", 16.0, "parallel_threshold must be an integer"),
    ("cycles_per_pe_pass", 1.5, "cycles_per_pe_pass must be an integer"),
    ("sort_initiation_interval", 1.5,
     "sort_initiation_interval must be an integer"),
    ("num_cores", 2.5, "num_cores must be an integer"),
])
def test_arch_params_reject_values_the_model_cannot_price(field, value,
                                                          message):
    with pytest.raises(ValueError, match=message):
        ArchParams(**{field: value})


def test_arch_params_accept_zero_latencies():
    arch = ArchParams(parallel_unit_latency=0, sort_latency=((1, 0), (2, 0)))
    assert arch.sort_latency_for(2) == 0


# -- the pricing as it was written before it priced each distinct event
# once and scheduled two packages in a loop on locals: the oracle below.

def oracle_segments(trace, arch):
    segs = []
    semi = set(trace.semi_parallel_stages)
    for ev in trace.events:
        if ev[0] == "stage":
            _, t, _op, paths, _fresh = ev
            width = 1 << t
            if width > arch.parallel_threshold:
                waves = paths * -(-width // arch.pe_count_serial)
                segs.append(("pe", waves * arch.cycles_per_pe_pass, "serial"))
            elif t in semi:
                waves = -(-paths // trace.semi_parallel_group)
                segs.append(("pe", waves * arch.cycles_per_pe_pass,
                             "semi_parallel"))
            else:
                segs.append(("pe", arch.parallel_unit_latency, "parallel"))
        elif ev[0] == "leaf":
            _, _w, candidates, kept, sorts = ev
            segs.append(("pe", arch.parallel_unit_latency, "parallel"))
            if kept >= 2:
                for _ in range(int(sorts)):
                    segs.append(("sort", arch.sort_latency_for(kept), "sort"))
        elif ev[0] == "special":
            segs.append(("pe", arch.parallel_unit_latency, "parallel"))
        else:
            raise ValueError("unknown trace event %r" % (ev[0],))
    return segs


def oracle_latency(trace, arch):
    breakdown = {"serial": 0, "semi_parallel": 0, "parallel": 0, "sort": 0}
    total = 0
    for _res, cyc, label in oracle_segments(trace, arch):
        breakdown[label] += cyc
        total += cyc
    return CycleReport(
        total_cycles=total, breakdown=breakdown,
        idle_pe_cycles=breakdown["sort"], n_events=len(trace.events),
        meta={"N": trace.N, "k": trace.k, "L": trace.L, "kind": trace.kind})


def oracle_double_package(trace_a, trace_b, arch):
    streams = [oracle_segments(trace_a, arch), oracle_segments(trace_b, arch)]
    singles = [sum(c for _r, c, _l in s) for s in streams]
    ready = [0, 0]
    pos = [0, 0]
    free = {"pe": 0, "sort": 0}
    while pos[0] < len(streams[0]) or pos[1] < len(streams[1]):
        best = None
        for s in (0, 1):
            if pos[s] >= len(streams[s]):
                continue
            res, cyc, _label = streams[s][pos[s]]
            start = max(ready[s], free[res])
            if best is None or start < best[0]:
                best = (start, s, res, cyc)
        start, s, res, cyc = best
        ready[s] = start + cyc
        busy = cyc if res == "pe" else min(cyc, arch.sort_initiation_interval)
        free[res] = start + busy
        pos[s] += 1
    total = max(ready)
    single = max(singles) if any(singles) else 0
    return {
        "total_cycles": total,
        "package_cycles": tuple(singles),
        "package_finish": tuple(ready),
        "ratio_vs_single": (total / single) if single else 0.0,
        "throughput_gain": (sum(singles) / total) if total else 1.0,
    }


def schedule_traces():
    """Plan traces of every profile, on a plain code and on one with a
    CRC, parity constraints and good bits, at two list sizes each."""
    plain = construct_code(256, 128, "bhattacharyya", 0.5)
    mixed = construct_code(256, 128, "bhattacharyya", 0.5, crc=CrcSpec(8),
                           pc=ParityCheckSpec([(120, [3, 60]),
                                               (200, [7, 100])]),
                           good_threshold=0.3)
    for spec in (plain, mixed):
        for kind, lists in (("sc", (1,)), ("flexible", (4, 8)),
                            ("ultra", (8, 32))):
            for L in lists:
                yield schedule_trace(spec, kind, L)


ARCHS = [ArchParams(), ArchParams(sort_initiation_interval=3),
         ArchParams(parallel_threshold=4, cycles_per_pe_pass=2,
                    parallel_unit_latency=0, sort_initiation_interval=3)]


@pytest.mark.parametrize("arch", ARCHS)
def test_pricing_matches_the_event_by_event_oracle(arch):
    """latency and double_package give the oracle's report and dict, on
    plan traces, on pairs of different traces, on random traces and with
    an empty package on either side."""
    plans = list(schedule_traces())
    empty = DecodeTrace(N=256, k=128, L=8)
    pairs = [(t, t) for t in plans] + list(zip(plans, plans[1:] + plans[:1]))
    pairs += [(t, empty) for t in plans] + [(empty, t) for t in plans]
    pairs += [(empty, empty)] + [tuple(p) for p in random_trace_pairs()]
    for a, b in pairs:
        assert latency(a, arch) == oracle_latency(a, arch)
        assert double_package(a, b, arch) == oracle_double_package(a, b,
                                                                   arch)


def test_calibration_hits_match_the_oracle():
    for trace in schedule_traces():
        if trace.L < 2:
            continue
        arch = ArchParams()
        want = []
        for cyc in range(2, 17):
            table = tuple((s, cyc if s == trace.L else c)
                          for s, c in arch.sort_latency)
            ratio = oracle_double_package(
                trace, trace, replace(arch, sort_latency=table))[
                    "ratio_vs_single"]
            if 2.0 / 1.586 <= ratio <= 1.30:
                want.append((cyc, ratio))
        assert calibrate_sort_latency(trace, arch) == want
