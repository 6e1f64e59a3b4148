"""Cycle-level latency model of the decoder datapath.

A DecodeTrace is an ordered list of events in successive-cancellation
dependency order. The schedule does not depend on the data, so
``engine.schedule_trace`` builds it from the decode plan without
decoding (``decode(..., collect_trace=True)`` attaches the same trace).
This module prices the events
against an ArchParams configuration (a calibration model of processing
waves, not a register-accurate netlist), schedules two packages against
each other for the interleaved two-frame mode, and converts cycle counts
into throughput.

Pricing rules:
  * a stage computation wider than ``parallel_threshold`` runs on the
    serial unit: paths * ceil(width / pe_count_serial) waves;
  * stages listed as semi-parallel (the ultra-reliable profile) batch
    ``semi_parallel_group`` paths per wave;
  * everything else (narrow stages, leaf-block decisions, special nodes)
    is one parallel-unit pass at ``parallel_unit_latency`` cycles;
  * each pruning sort costs sort_latency(L) on the sorter, during which
    the processing units would sit idle in single-frame mode. A multi-bit
    leaf block prunes once per free leaf once the list is full (the block
    is W chained 1-bit splits), so its event carries a sort count.
"""

import math
import numbers
from dataclasses import dataclass, field, replace

PE = "pe"
SORTER = "sort"


@dataclass
class DecodeTrace:
    """Event stream of one decode plus the metadata pricing needs."""
    N: int
    k: int
    L: int
    kind: str = "custom"
    semi_parallel_stages: tuple = ()
    semi_parallel_group: int = 4
    events: list = field(default_factory=list)

    def stage(self, t, op, paths, fresh=True):
        self.events.append(("stage", t, op, paths, fresh))

    def leaf(self, width_log, candidates, kept, sorts):
        self.events.append(("leaf", width_log, candidates, kept, sorts))

    def special(self, kind, t, paths, is_prefix=False):
        self.events.append(("special", kind, t, paths, is_prefix))


@dataclass(frozen=True)
class ArchParams:
    """Calibration parameters of the cycle model (not RTL-derived)."""
    pe_count_serial: int = 64
    parallel_threshold: int = 16
    parallel_unit_latency: int = 2
    cycles_per_pe_pass: int = 1
    sort_latency: tuple = ((1, 0), (2, 2), (4, 6), (8, 12), (16, 14), (32, 16))
    sort_initiation_interval: int = 1
    f_clk_hz: float = 1.0e9
    num_cores: int = 5

    def __post_init__(self):
        for name in ("pe_count_serial", "parallel_threshold",
                     "cycles_per_pe_pass", "sort_initiation_interval",
                     "num_cores", "parallel_unit_latency"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral):
                raise ValueError("%s must be an integer, got %r"
                                 % (name, value))
            if value < 1 and name != "parallel_unit_latency":
                raise ValueError("%s must be at least 1, got %r"
                                 % (name, value))
        if self.parallel_unit_latency < 0:
            raise ValueError("parallel_unit_latency must not be negative, "
                             "got %r" % (self.parallel_unit_latency,))
        for size, cyc in self.sort_latency:
            if not (isinstance(size, numbers.Integral) and size >= 1
                    and isinstance(cyc, numbers.Integral)):
                raise ValueError("sort_latency entries must be an integer "
                                 "list size >= 1 and integer cycles, got "
                                 "%r:%r" % (size, cyc))
            if cyc < 0:
                raise ValueError("sort_latency of list size %r must not be "
                                 "negative, got %r" % (size, cyc))
        sizes = [size for size, _cyc in self.sort_latency]
        if len(set(sizes)) != len(sizes):
            raise ValueError("sort_latency lists a list size twice: %s"
                             % " ".join("%d:%d" % p for p in self.sort_latency))
        if not (math.isfinite(self.f_clk_hz) and self.f_clk_hz > 0):
            raise ValueError("f_clk_hz must be finite and positive, got %r"
                             % (self.f_clk_hz,))

    def sort_latency_for(self, list_size):
        for size, cyc in self.sort_latency:
            if size == list_size:
                return cyc
        raise ValueError("no sort latency configured for list size %d" % list_size)


@dataclass
class CycleReport:
    """Latency of one decode: total cycles and where they went."""
    total_cycles: int
    breakdown: dict
    idle_pe_cycles: int
    n_events: int
    meta: dict

    def throughput_bps(self, arch):
        return throughput(self.meta["k"], arch.f_clk_hz, self.total_cycles,
                          arch.num_cores)


def _segments(trace, arch):
    """Price each event: a list of (resource, cycles) in dependency order."""
    segs = []
    semi = set(trace.semi_parallel_stages)
    for ev in trace.events:
        if ev[0] == "stage":
            _, t, _op, paths, _fresh = ev
            width = 1 << t
            if width > arch.parallel_threshold:
                waves = paths * -(-width // arch.pe_count_serial)
                segs.append((PE, waves * arch.cycles_per_pe_pass, "serial"))
            elif t in semi:
                waves = -(-paths // trace.semi_parallel_group)
                segs.append((PE, waves * arch.cycles_per_pe_pass, "semi_parallel"))
            else:
                segs.append((PE, arch.parallel_unit_latency, "parallel"))
        elif ev[0] == "leaf":
            _, _w, candidates, kept, sorts = ev
            segs.append((PE, arch.parallel_unit_latency, "parallel"))
            if kept >= 2:
                for _ in range(int(sorts)):
                    segs.append((SORTER, arch.sort_latency_for(kept), "sort"))
        elif ev[0] == "special":
            segs.append((PE, arch.parallel_unit_latency, "parallel"))
        else:
            raise ValueError("unknown trace event %r" % (ev[0],))
    return segs


def latency(trace, arch=None):
    """Price a single decode; the breakdown sums exactly to the total."""
    arch = arch or ArchParams()
    breakdown = {"serial": 0, "semi_parallel": 0, "parallel": 0, "sort": 0}
    total = 0
    for _res, cyc, label in _segments(trace, arch):
        breakdown[label] += cyc
        total += cyc
    return CycleReport(
        total_cycles=total,
        breakdown=breakdown,
        idle_pe_cycles=breakdown["sort"],
        n_events=len(trace.events),
        meta={"N": trace.N, "k": trace.k, "L": trace.L, "kind": trace.kind},
    )


def double_package(trace_a, trace_b, arch=None):
    """Greedy earliest-fit schedule of two decodes over one PE set + sorter.

    Within each package events stay in dependency order. The PE array is
    exclusive, so one package's f/g work can hide behind the other's
    sorting; the sorter is a pipelined selection network that accepts a
    new 2L->L pass every ``sort_initiation_interval`` cycles while each
    pass still takes sort_latency to come out, which is what lets the
    packages alternate compute and sort phases. Returns a dict with the
    combined cycle count, each package's finish time, and the ratio to
    the longer single-package latency.
    """
    arch = arch or ArchParams()
    streams = [_segments(trace_a, arch), _segments(trace_b, arch)]
    singles = [sum(c for _r, c, _l in s) for s in streams]
    ready = [0, 0]
    pos = [0, 0]
    free = {PE: 0, SORTER: 0}
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
        busy = cyc if res == PE else min(cyc, arch.sort_initiation_interval)
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


def throughput(k, f_clk_hz, cycles, num_cores=1):
    """Decoded information bits per second: k * f_clk / cycles * cores."""
    if cycles <= 0:
        raise ValueError("cycle count must be positive")
    if num_cores <= 0:
        raise ValueError("core count must be positive")
    if k <= 0 or f_clk_hz <= 0:
        raise ValueError("k and f_clk must be positive")
    return k * f_clk_hz / cycles * num_cores


def calibrate_sort_latency(trace, arch=None, list_size=None,
                           lo=2, hi=16, band=(2.0 / 1.586, 1.30)):
    """Find sorter latencies that land the two-package ratio in the band.

    Scans integer sort costs for the given list size (default: the trace's
    L) and returns the values whose double-package ratio_vs_single falls
    inside [band[0], band[1]] along with the achieved ratios.
    """
    arch = arch or ArchParams()
    list_size = list_size or trace.L
    hits = []
    for cyc in range(lo, hi + 1):
        table = tuple((s, cyc if s == list_size else c)
                      for s, c in arch.sort_latency)
        cand = replace(arch, sort_latency=table)
        ratio = double_package(trace, trace, cand)["ratio_vs_single"]
        if band[0] <= ratio <= band[1]:
            hits.append((cyc, ratio))
    return hits
