#!/usr/bin/env python3
"""Benchmark of polarscl: three closed-loop workloads with checked outputs.

Run from the repository root; the package is imported from ./src:

    python3 perfbench/run.py --workload trace_ultra --seed 1 --seconds 30 --trace 0

Load comes from one process and one thread: a closed loop whose single
caller sends the next call only when the last one has returned. Inputs are
made from --seed before any timing starts. After the loop every output is
checked (golden records at the default seed, cross-checks at any seed),
and the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics:
  frames_per_s    median over timed calls of frames per second
  setup_s         median over fresh processes of construct_code plus the
                  first warm-up frame (cli_decode_sc: one CLI call, which
                  also loads the config)
  frame_ms.p50/90 trace_ultra: each frame's latency; fer_flexible and
                  cli_decode_sc: each call's time divided by its frames
  peak_rss_mb     peak resident memory of the benchmark process

--trace 1 alternates untraced and traced passes over a fixed set of units,
with a span around each layer's public callables (see tracing.py), and
reports the per-layer metrics: times are seconds per frame unless the
unit says otherwise, and counts are exact and must repeat from one pass to
the next. Spans are written to perfbench/out/.

Other modes: --setup-probe (one set-up in this process, used by --trace 0),
--write-golden (record golden.json at the default seed) and
--inject-corruption (flip one decoded bit in the benchmark's copy of the
output, which the checks must count as a failure).
"""

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import numpy as np

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_PROBES = 6
LAYERS = ("cli", "config", "codes", "channel", "qarith", "engine", "cycles",
          "reference")


def load_package():
    """Import polarscl from this checkout's src/, and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "polarscl", "__init__.py")):
        sys.exit("perfbench: no polarscl package under %s" % src)
    sys.path.insert(0, src)
    mods = {m: importlib.import_module("polarscl." + m) for m in LAYERS}
    pkg = importlib.import_module("polarscl")
    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != src:
        sys.exit("perfbench: polarscl was imported from %s, not %s"
                 % (pkg.__file__, src))
    return types.SimpleNamespace(**mods)


def git_revision():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    lines = out.stdout.split()
    if out.returncode or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def timed_setup(w):
    t0 = time.perf_counter()
    w.setup()
    return time.perf_counter() - t0


def setup_probe(args):
    """Time one set-up in a fresh process, where no cache is filled yet."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=150)
    if out.returncode:
        raise RuntimeError("set-up probe failed: %s" % out.stderr.strip())
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def run_units(w, units, seconds):
    """Closed loop over units until seconds have passed (one pass at least).

    Returns one (seconds, frames) pair per call; only the call is timed.
    """
    samples = []
    start = time.perf_counter()
    k = 0
    while not samples or time.perf_counter() - start < seconds:
        unit = units(k)
        if unit is None:
            break
        t0 = time.perf_counter()
        out = w.call(unit)
        dt = time.perf_counter() - t0
        before = len(w.runs)
        w.collect(unit, out)
        samples.append((dt, sum(r[1] for r in w.runs[before:])))
        k += 1
    return samples


def end_to_end(w, args, setup_samples):
    samples = run_units(w, lambda k: k, args.seconds)
    frames = sum(f for _dt, f in samples)
    per_frame_ms = [1e3 * dt / f for dt, f in samples]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Medians over calls: a co-tenant's burst on this CPU slows a minority
    # of calls, which a mean over the run would carry into the result.
    metrics = {
        "frames_per_s": (statistics.median(f / dt for dt, f in samples),
                         "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "frame_ms.p50": (float(np.percentile(per_frame_ms, 50)), "ms"),
        "frame_ms.p90": (float(np.percentile(per_frame_ms, 90)), "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    info = {"calls": len(samples), "frames": frames,
            "frame_ms_samples": len(per_frame_ms),
            "frame_ms": per_frame_ms,
            "setup_samples": setup_samples}
    return metrics, info


def run_set(w, tracer=None):
    """One pass over the workload's fixed unit set: (seconds, frames, counts).

    counts are the tracer's counts made during the pass.
    """
    units = list(w.trace_units)
    base = dict(tracer.counts) if tracer is not None else {}
    t0 = time.perf_counter()
    samples = run_units(w, lambda k: units[k] if k < len(units) else None,
                        float("inf"))
    wall = time.perf_counter() - t0
    counts = {}
    if tracer is not None:
        counts = {k: v - base.get(k, 0) for k, v in tracer.counts.items()
                  if v != base.get(k, 0)}
    return wall, sum(f for _dt, f in samples), counts


def per_layer(w, args, pl):
    """Alternate untraced and traced passes over the fixed set.

    Alternating lets both kinds of pass see the same machine state, which
    on a shared host drifts over tens of seconds; the overhead compares
    their median pass times. Counts are checked only to repeat within the
    run: they are what an optimisation is meant to change, so no recorded
    value binds them. Returns (metrics, info, problems).
    """
    sched = workloads.schedule_counts(pl, w.schedule_trace())
    tracer = tracing.Tracer()
    tracing.install(tracer, pl)
    try:
        w.setup()           # traced once, for codes.construct_s
    finally:
        tracer.unwrap()
    mark = len(tracer.spans)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain.append(run_set(w))
        tracing.install(tracer, pl)
        try:
            traced.append(run_set(w, tracer))
        finally:
            tracer.unwrap()
    tracer.write(os.path.join(OUT, "spans-%s.csv" % w.name))

    problems = []
    counts = traced[0][2]
    if any(c != counts for _wall, _frames, c in traced[1:]):
        problems.append("counts differ between traced repetitions")
    again = workloads.schedule_counts(pl, w.schedule_trace())
    if again != sched:
        problems.append("schedule counts %r differ from the run's first %r"
                        % (again, sched))

    dur, own = tracer.totals(mark)
    dur_all, _ = tracer.totals(0)
    frames = sum(f for _w, f, _c in traced)
    reps = len(traced)
    F = float(frames)

    def d(*names):
        return sum(dur.get(n, 0.0) for n in names)

    def o(*names):
        return sum(own.get(n, 0.0) for n in names)

    def c(*names):
        return sum(counts.get(n, 0) for n in names) * reps

    def ratio(a, b):
        return a / b if b else 0.0

    decodes = ("engine.decode", "engine.decode_batch")
    store = ("engine.store.read", "engine.store.write", "engine.store.reassign")
    fg = ("qarith.f", "qarith.g")
    cli_calls = c("cli.main.calls")
    construct_calls = tracer.counts.get("codes.construct_code.calls", 0)
    untraced_s = statistics.median(wl for wl, _f, _c in plain)
    traced_s = statistics.median(wl for wl, _f, _c in traced)
    fps_traced = frames / sum(wl for wl, _f, _c in traced)
    fps_plain = sum(f for _w, f, _c in plain) / \
        sum(wl for wl, _f, _c in plain)
    m = {
        "cli.self_s": (o("cli.main") / F, "s/frame"),
        "cli.decode_calls": (ratio(c("engine.decode.calls"), cli_calls),
                             "count/call"),
        "config.load_s": (ratio(o("config.load_config", "config.build_spec",
                                  "config.build_profile"), cli_calls),
                          "s/call"),
        "codes.construct_s": (ratio(dur_all.get("codes.construct_code", 0.0),
                                    construct_calls), "s/call"),
        "codes.message_s": (d("codes.build_message", "codes.polar_transform")
                            / F, "s/frame"),
        "codes.crc_s": (d("codes.crc_check_rows") / F, "s/frame"),
        "codes.crc_rows": (c("codes.crc_rows") / F, "count/frame"),
        "channel.transmit_s": (d("channel.transmit", "channel.frame_rng") / F,
                               "s/frame"),
        "channel.self_s": (o("channel.run_fer") / F, "s/frame"),
        "qarith.quantize_s": (d("qarith.channel") / F, "s/frame"),
        "qarith.f_s": (d("qarith.f") / F, "s/frame"),
        "qarith.g_s": (d("qarith.g") / F, "s/frame"),
        "qarith.fg_calls": (c("qarith.f.calls", "qarith.g.calls") / F,
                            "count/frame"),
        "qarith.fg_elements": (c("qarith.fg_elements") / F, "count/frame"),
        "qarith.fg_ns_per_element": (ratio(1e9 * d(*fg),
                                           c("qarith.fg_elements")), "ns"),
        "engine.store_s": (d(*store) / F, "s/frame"),
        "engine.store_calls": (c(*(s + ".calls" for s in store)) / F,
                               "count/frame"),
        "engine.store.unique_row_frac": (
            ratio(c("engine.store.unique_rows"), c("engine.store.path_rows")),
            "ratio"),
        "engine.decode_s": (d(*decodes) / F, "s/frame"),
        "engine.self_s": (o(*decodes) / F, "s/frame"),
        "engine.us_per_step": (
            ratio(1e6 * d(*decodes), c(*(n + ".calls" for n in decodes))
                  * sched["engine.steps"]), "us"),
        "engine.sorts_per_frame": (sched["engine.sorts_per_frame"], "count"),
        "engine.peak_candidates": (sched["engine.peak_candidates"], "count"),
        "engine.clone_events_per_frame": (
            ratio(c("engine.clone_events"), c("engine.frames")), "count/frame"),
        "cycles.latency_s": (d("cycles.latency") / F, "s/frame"),
        "cycles.double_package_s": (d("cycles.double_package") / F,
                                    "s/frame"),
        "cycles.us_per_event": (
            ratio(1e6 * d("cycles.latency", "cycles.double_package"),
                  c("cycles.events_priced")), "us"),
        "cycles.total_cycles": (sched["cycles.total_cycles"], "count"),
        "cycles.events": (sched["cycles.events"], "count"),
        "trace.spans": ((len(tracer.spans) - mark) / F, "count/frame"),
        "trace.unattributed_s": (
            (sum(wl for wl, _f, _c in traced) - sum(own.values())) / F,
            "s/frame"),
        "trace.untraced_frames_per_s": (fps_plain, "1/s"),
        "trace.traced_frames_per_s": (fps_traced, "1/s"),
        "trace.overhead_frac": (traced_s / untraced_s - 1.0, "ratio"),
    }
    info = {"untraced_repetitions": len(plain), "traced_repetitions": reps,
            "units_per_repetition": len(w.trace_units),
            "frames_traced": frames, "counts_per_repetition": counts,
            "schedule": sched,
            "layer_seconds": {k: [dur[k], own[k]] for k in sorted(dur)}}
    return m, info, problems


def write_golden(w, pl):
    """Record golden.json data for this workload at the default seed."""
    if w.seed != workloads.DEFAULT_SEED:
        sys.exit("perfbench: golden data is recorded at seed %d"
                 % workloads.DEFAULT_SEED)
    w.setup()
    w.prepare()
    for i in range(w.golden_units):
        w.collect(i, w.call(i))
    sched = workloads.schedule_counts(pl, w.schedule_trace())
    entry = {"outputs": w.golden_outputs(),
             "cycles": {"total_cycles": sched["cycles.total_cycles"],
                        "events": sched["cycles.events"]}}
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh)
    golden[w.name] = entry
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", metavar="FILE",
                    help="result record path (default perfbench/out/)")
    ap.add_argument("--setup-probe", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    ap.add_argument("--inject-corruption", action="store_true")
    args = ap.parse_args(argv)

    pl = load_package()
    if args.workload not in workloads.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (have: %s)"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        w = workloads.WORKLOADS[args.workload](pl, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": timed_setup(w)}))
            return 0
        if args.write_golden:
            write_golden(w, pl)
            return 0
        return measure(w, args, pl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(w, args, pl):
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as fh:
            golden = json.load(fh).get(w.name, {})
    setup_samples = [timed_setup(w)]
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]
    w.prepare()
    problems = []
    if args.trace:
        metrics, info, problems = per_layer(w, args, pl)
    else:
        metrics, info = end_to_end(w, args, setup_samples)
    bad, msgs = w.check(golden, corrupt=args.inject_corruption)
    attempted = sum(r[1] for r in w.runs)
    failed = attempted if problems else sum(w.runs[r][1] for r in bad)
    correct = failed == 0
    for msg in problems + msgs:
        print("check failed: %s" % msg, file=sys.stderr)

    record = {
        "workload": w.name, "why": w.why, "trace": args.trace,
        "seed": args.seed, "seconds": args.seconds,
        "correct": correct, "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": info,
        "config": w.config(),
        "provenance": {
            "git_revision": git_revision(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "golden_checked": args.seed == workloads.DEFAULT_SEED,
        },
    }
    path = args.record or os.path.join(
        OUT, "%s-trace%d-seed%d.json" % (w.name, args.trace, args.seed))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for k, (v, u) in metrics.items():
        print("%-32s %14.6g %s" % (k, v, u))
    print("failed_frac %.6g (%d of %d frames)" % (failed / attempted, failed,
                                                  attempted))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
