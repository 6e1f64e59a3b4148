"""Command-line front end for code construction, coding, and simulation.

Configuration comes from three layers: an INI file (-c, grammar in
polarscl.config), repeatable ``--set section.key=value`` overrides, and a
few dedicated flags for the common knobs. Later values win within each
layer and the dedicated flags are applied last. The effective
configuration is echoed to stderr (suppress with -q), and its hash is
embedded as a comment in every CSV so a results file identifies the exact
run that produced it; the same config and seed reproduce the CSV byte for
byte.

Frame formats: LLR input is one frame per line, N whitespace-separated
finite decimals. Bit vectors (payloads in, codewords/decisions out) are
contiguous 0/1 strings, one per line.

``decode`` reads its input in chunks of ``engine.DEFAULT_BATCH`` frames
and decodes each chunk in lockstep (``engine.decode_batch``). The output
is the same as decoding frame by frame: one line per frame, in input
order. A malformed line ends the run with status 1 after every frame
before it is written.

Exit status: 0 on success, 2 for an invalid configuration (the message
names the offending section and key), 1 for runtime failures.

Example::

    polarscl construct --N 1024 --k 512 --method bhattacharyya \
        --eps 0.5 -o code.spec
    polarscl fer --set campaign.snr_db=1.8,2.0,2.2 -o fer.csv
"""

import argparse
import sys

import numpy as np

from .channel import run_fer, snr_at_fer
from .codes import encode, save_code_spec
from .config import ConfigError, load_config
from .cycles import calibrate_sort_latency, double_package, latency
from .engine import (DEFAULT_BATCH, decode, decode_batch, llr_memory_summary,
                     schedule_trace)


def _open_in(path):
    return sys.stdin if path in (None, "-") else open(path)


def _open_out(path):
    return sys.stdout if path in (None, "-") else open(path, "w")


def _bits_from_line(line, n, what):
    s = line.strip()
    if len(s) != n or set(s) - {"0", "1"}:
        raise ValueError("expected %d contiguous 0/1 chars for %s, got %r"
                         % (n, what, s[:40]))
    return np.frombuffer(s.encode(), dtype=np.uint8) - ord("0")


def _bits_to_str(bits):
    return ((np.asarray(bits).ravel() != 0) + np.uint8(ord("0"))).tobytes().decode()


def _echo_config(cfg, args):
    if not args.quiet:
        for line in cfg.effective_text().splitlines():
            print("# %s" % line, file=sys.stderr)
        print("# config_hash = %s" % cfg.config_hash(), file=sys.stderr)


def _load(args, extra=()):
    """Build the RunConfig from file + --set + dedicated flags."""
    overrides = list(args.set or [])
    overrides += ["%s=%s" % (k, v) for k, v in extra if v is not None]
    cfg = load_config(args.config, overrides)
    _echo_config(cfg, args)
    return cfg


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args):
    extra = [("code.n", args.N), ("code.k", args.k),
             ("code.method", args.method), ("code.design_param", args.eps),
             ("code.crc_width", args.crc_width),
             ("code.sequence_file", args.sequence_file)]
    cfg = _load(args, extra)
    spec = cfg.build_spec()
    save_code_spec(spec, sys.stdout if args.output in (None, "-")
                   else args.output)
    print("# N=%d k=%d payload=%d rate=%.6g frozen=%d"
          % (spec.N, spec.k, spec.payload_len, spec.rate(),
             int(spec.frozen_mask.sum())), file=sys.stderr)
    return 0


def cmd_encode(args):
    cfg = _load(args, [("code.spec_file", args.spec)])
    spec = cfg.build_spec()
    out = _open_out(args.output)
    with _open_in(args.input) as fh:
        for line in fh:
            if not line.strip():
                continue
            payload = _bits_from_line(line, spec.payload_len, "payload")
            out.write(_bits_to_str(encode(payload, spec)) + "\n")
    if out is not sys.stdout:
        out.close()
    return 0


def _llr_chunks(fh, n, size):
    """Yield the LLR frames of fh, one per non-blank line, in (<=size, n)
    arrays. A malformed line first yields the frames read before it and
    then raises, so every good frame ahead of it is still decoded."""
    chunk = []
    try:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            llr = np.array([float(t) for t in line.split()])
            if llr.size != n:
                raise ValueError("line %d: expected %d LLRs, got %d"
                                 % (lineno, n, llr.size))
            if not np.isfinite(llr).all():
                raise ValueError("line %d: non-finite LLR" % lineno)
            chunk.append(llr)
            if len(chunk) == size:
                yield np.array(chunk)
                chunk = []
    except ValueError:
        if chunk:
            yield np.array(chunk)
        raise
    if chunk:
        yield np.array(chunk)


def cmd_decode(args):
    extra = [("code.spec_file", args.spec),
             ("decoder.profile", args.profile), ("decoder.l", args.list_size),
             ("decoder.arithmetic", args.arithmetic)]
    cfg = _load(args, extra)
    spec = cfg.build_spec()
    profile = cfg.build_profile()
    d = cfg.sections["decoder"]
    out = _open_out(args.output)
    nframes = 0
    try:
        with _open_in(args.input) as fh:
            for llrs in _llr_chunks(fh, spec.N, DEFAULT_BATCH):
                res = decode_batch(llrs, spec, profile, L=cfg.list_size(),
                                   arithmetic=d["arithmetic"])
                for i in range(len(llrs)):
                    crc = "-" if res.crc_pass is None \
                        else str(int(res.crc_pass[i]))
                    out.write("info=%s u=%s pm=%r crc=%s path=%d\n"
                              % (_bits_to_str(res.info_hat[i]),
                                 _bits_to_str(res.u_hat[i]),
                                 float(res.pm[i]), crc,
                                 res.selected_path[i]))
                nframes += len(llrs)
    finally:
        if out is not sys.stdout:
            out.close()
    print("# decoded %d frame(s)" % nframes, file=sys.stderr)
    return 0


def cmd_fer(args):
    extra = [("code.spec_file", args.spec),
             ("decoder.profile", args.profile), ("decoder.l", args.list_size),
             ("decoder.arithmetic", args.arithmetic),
             ("campaign.snr_db", args.snr), ("campaign.seed", args.seed),
             ("campaign.max_frames", args.max_frames),
             ("campaign.max_errors", args.max_errors),
             ("output.csv", args.output)]
    cfg = _load(args, extra)
    spec = cfg.build_spec()
    profile = cfg.build_profile()
    camp = cfg.sections["campaign"]
    d = cfg.sections["decoder"]

    def progress(pt):
        print("# EsN0 %.4g dB: %d/%d errors in %d frames (FER %.4g)"
              % (pt.es_n0_db, pt.frame_errors, camp["max_errors"],
                 pt.frames, pt.fer), file=sys.stderr)

    points = run_fer(spec, profile, camp["snr_db"], seed=camp["seed"],
                     L=cfg.list_size(), arithmetic=d["arithmetic"],
                     max_frames=camp["max_frames"],
                     max_errors=camp["max_errors"], batch=camp["batch"],
                     progress=None if args.quiet else progress)
    out = _open_out(cfg.get("output", "csv"))
    out.write("# config = %s\n" % cfg.config_hash())
    out.write("# code N=%d k=%d payload=%d profile=%s L=%d arithmetic=%s "
              "seed=%d\n" % (spec.N, spec.k, spec.payload_len, d["profile"],
                             profile.l_max if cfg.list_size() is None
                             else cfg.list_size(),
                             d["arithmetic"], camp["seed"]))
    out.write("es_n0_db,eb_n0_db,frames,frame_errors,fer,ber,fer_ci95\n")
    for p in points:
        out.write("%r,%r,%d,%d,%r,%r,%r\n"
                  % (p.es_n0_db, p.eb_n0_db, p.frames, p.frame_errors,
                     p.fer, p.ber, p.fer_ci95))
    if out is not sys.stdout:
        out.close()
    if args.snr_at_fer is not None:
        print("# Es/N0 at FER %g: %.4f dB"
              % (args.snr_at_fer, snr_at_fer(points, args.snr_at_fer)),
              file=sys.stderr)
    return 0


def cmd_latency(args):
    extra = [("code.spec_file", args.spec),
             ("decoder.profile", args.profile), ("decoder.l", args.list_size)]
    cfg = _load(args, extra)
    spec = cfg.build_spec()
    profile = cfg.build_profile()
    arch = cfg.build_arch()
    trace = schedule_trace(spec, profile, L=cfg.list_size())
    if trace.L > 1 and trace.L not in dict(arch.sort_latency):
        raise ConfigError("[arch] sort_latency has no entry for list size %d"
                          % trace.L)
    rep = latency(trace, arch)
    print("N = %d" % spec.N)
    print("k = %d" % spec.k)
    print("L = %d" % trace.L)
    print("profile = %s" % cfg.get("decoder", "profile"))
    print("total_cycles = %d" % rep.total_cycles)
    for key in sorted(rep.breakdown):
        print("%s_cycles = %d" % (key, rep.breakdown[key]))
    print("events = %d" % rep.n_events)
    print("throughput_bps = %r" % rep.throughput_bps(arch))
    mem = llr_memory_summary(spec.n, profile, trace.L)
    print("llr_stored_stages = %s" % " ".join(map(str, mem["stored_stages"])))
    for key in ("per_path_entries", "replica_entries", "list_entries"):
        print("llr_%s = %d" % (key, mem[key]))
    print("llr_ratio = %r" % mem["ratio"])
    if args.double_package:
        dp = double_package(trace, trace, arch)
        print("double_total_cycles = %d" % dp["total_cycles"])
        print("double_ratio_vs_single = %r" % dp["ratio_vs_single"])
        print("double_throughput_gain = %r" % dp["throughput_gain"])
    if args.calibrate:
        hits = calibrate_sort_latency(trace, arch, list_size=trace.L)
        print("calibration_hits = %s"
              % " ".join("%d:%r" % (c, r) for c, r in hits))
    return 0


def cmd_selftest(args):
    from . import reference
    from .codes import CrcSpec, build_message, construct_code, crc_check, \
        crc_check_rows, polar_transform
    from .engine import profile_for
    from .qarith import QuantDomain, QuantProfile, llr_max

    rng = np.random.default_rng(11)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print("selftest: %-34s %s" % (name, "ok" if ok else "FAIL"))
        failures += 0 if ok else 1

    # the decoder's f / g kernels against exact arithmetic + clamp
    hi = llr_max(6)
    dom = QuantDomain(QuantProfile(q_i=6), 1)      # stage 0 is 6 bits wide
    a, b = np.meshgrid(np.arange(-hi, hi + 1), np.arange(-hi, hi + 1))
    a, b = a.astype(np.int32), b.astype(np.int32)
    want = np.clip(np.sign(a) * np.sign(b) * np.minimum(abs(a), abs(b)),
                   -hi, hi)
    check("f exhaustive Q=6", np.array_equal(dom.f(a, b, 0), want))
    ok = True
    for s in (0, 1):
        want = np.clip(a + (1 - 2 * s) * b, -hi, hi)
        ok = ok and np.array_equal(dom.g(a, b, s, 0), want)
    check("g exhaustive Q=6", ok)

    # noiseless round trip, all three decoder profiles
    ok = True
    for kind, L in (("sc", 1), ("flexible", 8), ("ultra", 32)):
        spec = construct_code(256, 128, method="bhattacharyya",
                              design_param=0.5)
        payload = rng.integers(0, 2, spec.payload_len).astype(np.uint8)
        u = build_message(payload, spec)
        llr = np.where(polar_transform(u) > 0, -5.0, 5.0)
        prof = profile_for(kind) if kind == "ultra" else \
            profile_for(kind, n_max_log=14)
        res = decode(llr, spec, prof, L=L, arithmetic="quantized")
        ok = ok and np.array_equal(res.info_hat, payload)
    check("noiseless round trip x3 profiles", ok)

    # list decoder against the bit-serial reference, float domain
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", n_max_log=14)
    ok = True
    for _ in range(10):
        llr = rng.normal(1.0, 1.2, 64)
        res = decode(llr, spec, prof, L=8, arithmetic="float")
        ref_u, _, _ = reference.scl_reference(llr, spec, 8)
        ok = ok and np.array_equal(res.u_hat, ref_u)
    check("multi-bit SCL == bit-serial ref", ok)

    # vectorized CRC == serial CRC
    crc = CrcSpec(8)
    rows = rng.integers(0, 2, (50, 40)).astype(np.uint8)
    ok = np.array_equal(crc_check_rows(rows, crc),
                        np.array([crc_check(r, crc) for r in rows]))
    check("vectorized CRC == serial CRC", ok)

    # cycle model degenerate schedules
    from .cycles import ArchParams, DecodeTrace
    t = DecodeTrace(256, 128, 8, kind="flexible")
    for _ in range(5):
        t.stage(9, "f", 8, fresh=True)
    arch = ArchParams()
    one = latency(t, arch).total_cycles
    dp = double_package(t, t, arch)
    check("sort-free double package == 2x", dp["total_cycles"] == 2 * one)

    # batch decode == sequential decode
    spec = construct_code(256, 128, method="bhattacharyya", design_param=0.5)
    llrs = rng.normal(1.0, 1.0, (8, 256))
    br = decode_batch(llrs, spec, prof, L=8, arithmetic="quantized")
    ok = all(np.array_equal(
        br.u_hat[i],
        decode(llrs[i], spec, prof, L=8, arithmetic="quantized").u_hat)
        for i in range(8))
    check("lockstep batch == sequential", ok)

    if failures:
        raise RuntimeError("%d selftest item(s) failed" % failures)
    return 0


# ---------------------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("-c", "--config", metavar="FILE",
                     help="INI config file (see polarscl.config)")
    sub.add_argument("--set", action="append", metavar="SEC.KEY=VAL",
                     help="override one config value (repeatable, last wins)")
    sub.add_argument("-q", "--quiet", action="store_true",
                     help="do not echo the effective config to stderr")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="polarscl",
        description="fixed-point SC/SCL polar decoding, FER simulation, "
                    "and hardware cycle estimates")
    sp = ap.add_subparsers(dest="command", required=True)

    p = sp.add_parser("construct", help="build a code and write its spec")
    _add_common(p)
    p.add_argument("--N", type=int, help="block length (power of two)")
    p.add_argument("--k", type=int, help="nonfrozen bits (info+crc+pc)")
    p.add_argument("--method", help="bhattacharyya | gaussian_approx | "
                                    "external_sequence")
    p.add_argument("--eps", "--design-param", dest="eps",
                   help="construction parameter (erasure prob or design "
                        "Es/N0 dB)")
    p.add_argument("--crc-width", help="CRC width in bits, 0 for none")
    p.add_argument("--sequence-file", help="reliability sequence file")
    p.add_argument("-o", "--output", help="spec file path (default stdout)")
    p.set_defaults(func=cmd_construct)

    p = sp.add_parser("encode", help="encode payload bit lines to codewords")
    _add_common(p)
    p.add_argument("--spec", help="code spec file from 'construct'")
    p.add_argument("-i", "--input", help="payload bits, one frame per line")
    p.add_argument("-o", "--output", help="codeword output (default stdout)")
    p.set_defaults(func=cmd_encode)

    p = sp.add_parser("decode", help="decode LLR frames")
    _add_common(p)
    p.add_argument("--spec", help="code spec file from 'construct'")
    p.add_argument("--profile", help="sc | flexible | ultra")
    p.add_argument("-L", "--list-size", dest="list_size",
                   help="list size (power of two)")
    p.add_argument("--arithmetic", help="quantized | float")
    p.add_argument("-i", "--input", help="LLR frames, one per line")
    p.add_argument("-o", "--output", help="decision output (default stdout)")
    p.set_defaults(func=cmd_decode)

    p = sp.add_parser("fer", help="Monte Carlo frame error rate campaign")
    _add_common(p)
    p.add_argument("--spec", help="code spec file from 'construct'")
    p.add_argument("--profile", help="sc | flexible | ultra")
    p.add_argument("-L", "--list-size", dest="list_size")
    p.add_argument("--arithmetic", help="quantized | float")
    p.add_argument("--snr", help="comma-separated Es/N0 grid in dB")
    p.add_argument("--seed", help="campaign seed")
    p.add_argument("--max-frames", help="frame budget per point")
    p.add_argument("--max-errors", help="frame-error budget per point")
    p.add_argument("--snr-at-fer", type=float, metavar="FER",
                   help="also interpolate the Es/N0 reaching this FER")
    p.add_argument("-o", "--output", help="CSV path (default [output] csv)")
    p.set_defaults(func=cmd_fer)

    p = sp.add_parser("latency", help="cycle counts for one decode")
    _add_common(p)
    p.add_argument("--spec", help="code spec file from 'construct'")
    p.add_argument("--profile", help="sc | flexible | ultra")
    p.add_argument("-L", "--list-size", dest="list_size")
    p.add_argument("--double-package", action="store_true",
                   help="also schedule two interleaved decodes")
    p.add_argument("--calibrate", action="store_true",
                   help="scan sort_latency for the double-package band")
    p.set_defaults(func=cmd_latency)

    p = sp.add_parser("selftest", help="quick internal consistency checks")
    _add_common(p)
    p.set_defaults(func=cmd_selftest)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print("config error: %s" % e, file=sys.stderr)
        return 2
    except (OSError, ValueError, RuntimeError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
