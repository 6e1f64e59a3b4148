"""The benchmark's three workloads and the checks on their outputs.

A workload makes all of its inputs from the seed before anything is timed.
The runner then drives it as a closed loop with a single caller: ``call``
does one unit of work through polarscl's public API and is the only part
that is timed; ``collect`` keeps the benchmark's own copy of the outputs.
``check`` compares those copies, after the loop, with golden data recorded
at the default seed and with cross-checks that hold at any seed.
"""

import contextlib
import hashlib
import io
import os

import numpy as np

DEFAULT_SEED = 1


def digest(*parts):
    """Short stable hash of arrays, numbers and strings."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()[:16]


def noisy_llrs(rng, encoded, es_n0_db):
    """BPSK over AWGN at symbol SNR es_n0_db: channel LLRs of coded bits."""
    sigma2 = 10.0 ** (-es_n0_db / 10.0)
    x = 1.0 - 2.0 * np.asarray(encoded, dtype=float)
    y = x + rng.standard_normal(x.shape) * np.sqrt(sigma2)
    return 2.0 * y / sigma2


def schedule_counts(pl, trace):
    """Counts of one decode's schedule, which does not depend on the data."""
    leaves = [ev for ev in trace.events if ev[0] == "leaf"]
    rep = pl.cycles.latency(trace)
    return {
        "engine.steps": sum(1 for ev in trace.events
                            if ev[0] in ("leaf", "special")),
        "engine.sorts_per_frame": int(sum(ev[4] for ev in leaves)),
        "engine.peak_candidates": max((int(ev[2]) for ev in leaves), default=0),
        "cycles.total_cycles": int(rep.total_cycles),
        "cycles.events": int(rep.n_events),
    }


class Workload:
    """One closed-loop workload; subclasses supply the hooks used below."""

    name = why = ""
    N = L = 0
    es_n0_db = 2.0
    #: Unit indices the traced run repeats; its counts must repeat exactly.
    trace_units = (0,)
    #: Units whose outputs golden.json records.
    golden_units = 0

    def __init__(self, pl, seed, workdir):
        self.pl = pl
        self.seed = seed
        self.workdir = workdir
        # A noisy all-zero codeword, valid for any code: the warm-up frame.
        self.warm = noisy_llrs(np.random.default_rng([seed, 0]),
                               np.zeros(self.N), self.es_n0_db)
        # One entry per executed unit: (unit index, frames, output record).
        self.runs = []

    def prepare(self):
        """Make the loop's inputs; runs after set-up and is not timed."""

    def random_llrs(self, count):
        rng = np.random.default_rng([self.seed, 1])
        payloads = rng.integers(0, 2, (count, self.spec.payload_len),
                                dtype=np.uint8)
        encoded = [self.pl.codes.encode(p, self.spec) for p in payloads]
        return noisy_llrs(rng, np.array(encoded), self.es_n0_db)

    def reference_u(self, llr, selection="best_pm"):
        """u of the bit-serial reference decoder on one frame."""
        dom = self.pl.qarith.QuantDomain(self.profile.quant, self.spec.n)
        u, _paths, _pm = self.pl.reference.scl_reference(
            dom.channel(llr), self.spec, self.L, domain=dom,
            selection=selection)
        return u

    def schedule_trace(self):
        """Event trace of one decode under this workload's configuration."""
        return self.pl.engine.decode(self.warm, self.spec, self.profile,
                                     L=self.L, collect_trace=True).trace

    def digest(self, rec):
        return digest(*rec)

    def golden_value(self, rec):
        """What golden.json keeps of one unit's output."""
        return self.digest(rec)

    def golden_outputs(self):
        """Golden value of each unit's output, in unit order."""
        out = {}
        for i, _frames, rec in self.runs:
            out.setdefault(i, self.golden_value(rec))
        return [out[i] for i in sorted(out)]

    def check(self, golden, corrupt=False):
        """Return (indices of failed runs, messages).

        A unit that fails a check fails in every run of it.
        """
        bad_units, msgs = set(), []
        first = {}
        for i, _frames, rec in self.runs:
            if first.setdefault(i, self.digest(rec)) != self.digest(rec):
                bad_units.add(i)
                msgs.append("unit %d: output differs from its earlier run" % i)
        if corrupt:
            self.corrupt()
        want = golden.get("outputs") if self.seed == DEFAULT_SEED else None
        for i, _frames, rec in self.runs:
            if want is not None and i < len(want) \
                    and self.golden_value(rec) != want[i]:
                bad_units.add(i)
                msgs.append("unit %d: output differs from golden.json" % i)
        cross_units, cross_msgs = self.cross_check(golden)
        bad_units |= cross_units
        bad = {r for r, run in enumerate(self.runs) if run[0] in bad_units}
        return bad, msgs + cross_msgs


class FerFlexible(Workload):
    name = "fer_flexible"
    # Why: the Monte Carlo campaign researchers run; lockstep batches on wide
    # arrays, the only workload with frame generation and CRC selection.
    why = ("run_fer campaign on the flexible profile: lockstep batch decode "
           "of wide arrays, frame generation and CRC-aided selection")
    N, L = 1024, 8
    snrs = (1.0, 2.0)
    frames = 256           # per point; max_errors lies above it
    check_frames = 16      # per point, recounted by the benchmark
    golden_units = 16
    flip = False

    def _campaign_seed(self, unit):
        return (self.seed << 24) + unit + 1

    def config(self):
        return {"N": self.N, "k": 512, "crc_width": 24, "construction":
                "gaussian_approx 2 dB", "profile": "flexible", "L": self.L,
                "arithmetic": "quantized", "batch": "default",
                "snr_db": list(self.snrs), "frames_per_point": self.frames}

    def setup(self):
        codes = self.pl.codes
        self.spec = codes.construct_code(self.N, 512, "gaussian_approx", 2.0,
                                         crc=codes.CrcSpec(24))
        self.profile = self.pl.engine.profile_for("flexible")
        self.pl.channel.run_fer(self.spec, self.profile, self.snrs[:1],
                                seed=self.seed << 24, L=self.L, max_frames=1,
                                max_errors=2)

    def call(self, unit):
        return self.pl.channel.run_fer(
            self.spec, self.profile, self.snrs, seed=self._campaign_seed(unit),
            L=self.L, arithmetic="quantized", max_frames=self.frames,
            max_errors=self.frames + 1)

    def collect(self, unit, points):
        rec = tuple((p.frames, p.frame_errors, p.bit_errors) for p in points)
        self.runs.append((unit, sum(p.frames for p in points), rec))

    def golden_value(self, rec):
        return [list(p) for p in rec]

    def corrupt(self):
        self.flip = True

    def cross_check(self, golden):
        bad, msgs = set(), []
        for i, _frames, rec in self.runs:
            for f, fe, be in rec:
                if not (f == self.frames and 0 <= fe <= f and fe <= be
                        and (fe == 0) == (be == 0)):
                    bad.add(i)
                    msgs.append("unit %d: FER point (%d, %d, %d) is "
                                "inconsistent" % (i, f, fe, be))
        # Recount the first frames of unit 0 from the benchmark's own decode
        # of the same substreams, and run one frame through the reference.
        pl, spec = self.pl, self.spec
        cseed, n = self._campaign_seed(0), self.check_frames
        pts = pl.channel.run_fer(spec, self.profile, self.snrs, seed=cseed,
                                 L=self.L, max_frames=n, max_errors=n + 1)
        for si, snr in enumerate(self.snrs):
            cfg = pl.channel.ChannelConfig(snr)
            payloads, llrs = [], []
            for f in range(n):
                rng = pl.channel.frame_rng(cseed, f, si)
                payloads.append(rng.integers(0, 2, spec.payload_len))
                u = pl.codes.build_message(payloads[-1], spec)
                llrs.append(pl.channel.transmit(pl.codes.polar_transform(u),
                                                cfg, rng))
            res = pl.engine.decode_batch(np.array(llrs), spec, self.profile,
                                         L=self.L)
            info = res.info_hat.copy()
            if self.flip and si == 0:
                info[0, 0] ^= 1
            nbad = np.count_nonzero(info != np.array(payloads), axis=1)
            mine = (n, int(np.count_nonzero(nbad)), int(nbad.sum()))
            theirs = (pts[si].frames, pts[si].frame_errors, pts[si].bit_errors)
            if mine != theirs:
                bad.add(0)
                msgs.append("unit 0 at %g dB: run_fer counted %r, the "
                            "benchmark's recount %r" % (snr, theirs, mine))
            if si == 0 and not np.array_equal(
                    self.reference_u(llrs[0], "crc_aided"), res.u_hat[0]):
                bad.add(0)
                msgs.append("unit 0 frame 0: decode_batch differs from "
                            "scl_reference")
        return bad, msgs


def _bits(row):
    return "".join("1" if b else "0" for b in row)


class CliDecodeSc(Workload):
    name = "cli_decode_sc"
    # Why: the single-frame path bound by per-step dispatch, without pruning
    # (L=1); it is also the only workload through the cli and config layers.
    why = ("in-process 'polarscl decode' on the sc profile: single-frame "
           "dispatch with L=1, plus the cli and config layers")
    N, L = 1024, 1
    files = 32
    per_file = 8
    golden_units = files

    def __init__(self, pl, seed, workdir):
        super().__init__(pl, seed, workdir)
        self.cfg_path = os.path.join(workdir, "sc.ini")
        with open(self.cfg_path, "w") as fh:
            fh.write("[code]\nn = 1024\nk = 512\nmethod = gaussian_approx\n"
                     "design_param = 2.0\ncrc_width = 0\n\n"
                     "[decoder]\nprofile = sc\narithmetic = quantized\n")
        self.out_path = os.path.join(workdir, "decoded.txt")
        self.warm_path = os.path.join(workdir, "warm.llr")
        self._write_frames(self.warm_path, self.warm[None, :])

    @staticmethod
    def _write_frames(path, llrs):
        with open(path, "w") as fh:
            for row in llrs:
                fh.write(" ".join(repr(float(x)) for x in row) + "\n")

    def config(self):
        cfg = self.pl.config.load_config(self.cfg_path)
        return {"N": self.N, "k": 512, "crc_width": 0, "construction":
                "gaussian_approx 2 dB", "profile": "sc", "L": self.L,
                "arithmetic": "quantized", "frames_per_call": self.per_file,
                "config_hash": cfg.config_hash()}

    def _main(self, path):
        argv = ["decode", "-q", "-c", self.cfg_path, "-i", path,
                "-o", self.out_path]
        with contextlib.redirect_stderr(io.StringIO()):
            return self.pl.cli.main(argv)

    def setup(self):
        if self._main(self.warm_path) != 0:
            raise RuntimeError("warm-up decode through the CLI failed")

    def prepare(self):
        cfg = self.pl.config.load_config(self.cfg_path)
        self.spec = cfg.build_spec()
        self.profile = cfg.build_profile()
        self.llrs = self.random_llrs(self.files * self.per_file)
        self.paths = []
        for f in range(self.files):
            path = os.path.join(self.workdir, "frames%02d.llr" % f)
            self._write_frames(path, self.llrs[f * self.per_file:
                                               (f + 1) * self.per_file])
            self.paths.append(path)

    def call(self, unit):
        return self._main(self.paths[unit % self.files])

    def collect(self, unit, rc):
        with open(self.out_path) as fh:
            lines = tuple(fh.read().splitlines())
        self.runs.append((unit % self.files, self.per_file, (rc, lines)))

    def golden_value(self, rec):
        rc, lines = rec
        return [rc, [digest(line) for line in lines]]

    def corrupt(self):
        i, frames, (rc, lines) = self.runs[0]
        pos = lines[0].index("info=") + 5
        flipped = lines[0][:pos] + "10"[int(lines[0][pos])] + lines[0][pos + 1:]
        self.runs[0] = (i, frames, (rc, (flipped,) + lines[1:]))

    def cross_check(self, golden):
        bad, msgs = set(), []
        used = sorted({i for i, _f, _r in self.runs})
        rows = np.concatenate([np.arange(i * self.per_file,
                                         (i + 1) * self.per_file) for i in used])
        res = self.pl.engine.decode_batch(self.llrs[rows], self.spec,
                                          self.profile)
        at = {i: k * self.per_file for k, i in enumerate(used)}
        for i, _frames, (rc, lines) in self.runs:
            ok = rc == 0 and len(lines) == self.per_file
            for j, line in enumerate(lines if ok else ()):
                b = at[i] + j
                f = dict(tok.split("=", 1) for tok in line.split())
                ok = ok and f["info"] == _bits(res.info_hat[b]) \
                    and f["u"] == _bits(res.u_hat[b]) \
                    and float(f["pm"]) == float(res.pm[b]) \
                    and f["crc"] == "-" \
                    and int(f["path"]) == int(res.selected_path[b])
            if not ok:
                bad.add(i)
                msgs.append("file %d: CLI output differs from decode_batch" % i)
        if not np.array_equal(self.reference_u(self.llrs[rows[0]]),
                              res.u_hat[0]):
            bad.add(used[0])
            msgs.append("frame %d: decode_batch differs from scl_reference"
                        % rows[0])
        return bad, msgs


class TraceUltra(Workload):
    name = "trace_ultra"
    # Why: the hardware designer's loop on short blocks with the deepest
    # list; pruning and clones dominate, and only it prices cycles.
    why = ("decode with trace, latency and double_package per frame on the "
           "ultra profile: L=32 pruning, clones and the cycle model")
    N, L = 256, 32
    pool = 512
    golden_units = pool
    trace_units = tuple(range(32))

    def config(self):
        return {"N": self.N, "k": 128, "crc_width": 0, "construction":
                "gaussian_approx 2 dB", "profile": "ultra", "L": self.L,
                "arithmetic": "quantized"}

    def setup(self):
        pl = self.pl
        self.spec = pl.codes.construct_code(self.N, 128, "gaussian_approx",
                                            2.0)
        self.profile = pl.engine.profile_for("ultra")
        res = pl.engine.decode(self.warm, self.spec, self.profile, L=self.L,
                               collect_trace=True)
        pl.cycles.latency(res.trace)
        pl.cycles.double_package(res.trace, res.trace)
        self.prev = res.trace

    def prepare(self):
        self.llrs = self.random_llrs(self.pool)

    def call(self, unit):
        pl = self.pl
        res = pl.engine.decode(self.llrs[unit % self.pool], self.spec,
                               self.profile, L=self.L, collect_trace=True)
        rep = pl.cycles.latency(res.trace)
        # Two consecutive frames share the datapath in two-frame mode.
        pair = pl.cycles.double_package(self.prev, res.trace)
        self.prev = res.trace
        return res, rep, pair

    def collect(self, unit, out):
        res, rep, pair = out
        self.runs.append((unit % self.pool, 1, (
            res.u_hat.copy(), int(res.pm), int(res.selected_path),
            int(res.stats["clone_events"]), int(rep.total_cycles),
            int(rep.n_events), int(pair["total_cycles"]))))

    def corrupt(self):
        i, frames, rec = self.runs[0]
        u = rec[0].copy()
        u[self.spec.payload_positions[0]] ^= 1
        self.runs[0] = (i, frames, (u,) + rec[1:])

    def cross_check(self, golden):
        bad, msgs = set(), []
        # The cycle model prices a schedule that does not depend on the
        # data, so every frame must cost the golden count (or, without
        # golden data, the first frame's).
        first = self.runs[0][2]
        want = golden.get("cycles", {})
        cyc = (want.get("total_cycles", first[4]), want.get("events", first[5]))
        used = sorted({i for i, _f, _r in self.runs})
        res = {}
        for lo in range(0, len(used), 128):
            idx = used[lo:lo + 128]
            b = self.pl.engine.decode_batch(self.llrs[idx], self.spec,
                                            self.profile, L=self.L)
            u, pm = np.atleast_2d(b.u_hat), np.atleast_1d(b.pm)
            path = np.atleast_1d(b.selected_path)
            for k, i in enumerate(idx):
                res[i] = (u[k], int(pm[k]), int(path[k]))
        for i, _frames, rec in self.runs:
            u, pm, path = res[i]
            if not (np.array_equal(rec[0], u) and rec[1] == pm
                    and rec[2] == path):
                bad.add(i)
                msgs.append("frame %d: decode differs from decode_batch" % i)
            if (rec[4], rec[5]) != cyc:
                bad.add(i)
                msgs.append("frame %d: %d cycles over %d events, expected %r"
                            % (i, rec[4], rec[5], cyc))
            if rec[6] != first[6]:
                bad.add(i)
                msgs.append("frame %d: double-package cycles changed" % i)
        if not np.array_equal(self.reference_u(self.llrs[used[0]]),
                              res[used[0]][0]):
            bad.add(used[0])
            msgs.append("frame %d: decode_batch differs from scl_reference"
                        % used[0])
        return bad, msgs


WORKLOADS = {w.name: w for w in (FerFlexible, CliDecodeSc, TraceUltra)}
