"""Spans around the public callables of polarscl's layers.

The tracer replaces module and class attributes with timing wrappers, so
the program itself is unchanged: every span is recorded from the
benchmark's side of a call into a layer. Spans are kept in memory as
(name, start, end, parent) tuples and written out once at the end of a
run. A span's self time is its duration minus the durations of
its direct children.
"""

import collections
import time

import numpy as np


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self._stack = []
        self._undo = []

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a wrapper that records a span.

        count, when given, is called as count(counter, args, result) after
        the call returns, to record work done inside the span.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                out = orig(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            counts[name + ".calls"] += 1
            if count is not None:
                count(counts, args, out)
            return out

        traced.__wrapped__ = orig
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, orig))

    def unwrap(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def totals(self, since=0):
        """Per span name: (total duration, total self time), seconds."""
        spans = self.spans[since:]
        child = np.zeros(len(spans))
        for name, t0, t1, parent in spans:
            if parent >= since:
                child[parent - since] += t1 - t0
        dur = collections.defaultdict(float)
        own = collections.defaultdict(float)
        for i, (name, t0, t1, _parent) in enumerate(spans):
            dur[name] += t1 - t0
            own[name] += t1 - t0 - child[i]
        return dur, own

    def write(self, path):
        """Write every span as one CSV line, times in ns from the first."""
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("index,name,start_ns,end_ns,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write("%d,%s,%d,%d,%d\n" % (
                    i, name, round((t0 - base) * 1e9),
                    round((t1 - base) * 1e9), parent))


def _count_rows(counts, args, out):
    counts["codes.crc_rows"] += len(out)


def _count_fg(counts, args, out):
    counts["qarith.fg_elements"] += int(np.size(out))


def _count_read(counts, args, out):
    vals, gid = out
    counts["engine.store.unique_rows"] += len(vals)
    counts["engine.store.path_rows"] += len(gid)


def _count_decode(counts, args, out):
    counts["engine.clone_events"] += int(out.stats["clone_events"])
    counts["engine.frames"] += len(np.atleast_2d(out.u_hat))


def _count_latency(counts, args, out):
    counts["cycles.events_priced"] += out.n_events


def _count_double(counts, args, out):
    counts["cycles.events_priced"] += len(args[0].events) + len(args[1].events)


def install(tracer, pl):
    """Wrap the attributes through which each layer calls the next.

    pl is the imported polarscl package. Names are those of the callee,
    so one name covers every caller of a function.
    """
    cli, config, codes = pl.cli, pl.config, pl.codes
    channel, engine, cycles, qarith = pl.channel, pl.engine, pl.cycles, pl.qarith
    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "load_config", "config.load_config")
    w(config.RunConfig, "build_spec", "config.build_spec")
    w(config.RunConfig, "build_profile", "config.build_profile")
    w(config, "construct_code", "codes.construct_code")
    w(codes, "construct_code", "codes.construct_code")
    w(cli, "decode", "engine.decode", _count_decode)
    w(engine, "decode", "engine.decode", _count_decode)
    w(channel, "run_fer", "channel.run_fer")
    w(channel, "decode_batch", "engine.decode_batch", _count_decode)
    w(channel, "build_message", "codes.build_message")
    w(channel, "polar_transform", "codes.polar_transform")
    w(channel, "transmit", "channel.transmit")
    w(channel, "frame_rng", "channel.frame_rng")
    w(engine, "crc_check_rows", "codes.crc_check_rows", _count_rows)
    w(qarith.QuantDomain, "f", "qarith.f", _count_fg)
    w(qarith.QuantDomain, "g", "qarith.g", _count_fg)
    w(qarith.QuantDomain, "channel", "qarith.channel")
    w(engine.PathStore, "read", "engine.store.read", _count_read)
    w(engine.PathStore, "write", "engine.store.write")
    w(engine.PathStore, "reassign", "engine.store.reassign")
    w(cycles, "latency", "cycles.latency", _count_latency)
    w(cycles, "double_package", "cycles.double_package", _count_double)
