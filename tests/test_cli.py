import subprocess
import sys

import numpy as np
import pytest

from polarscl.cli import main
from polarscl.codes import load_code_spec
from polarscl.config import load_config
from polarscl.engine import DEFAULT_BATCH, decode, profile_for


def test_construct_writes_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "code.spec"
    rc = main(["construct", "--N", "1024", "--k", "512",
               "--method", "bhattacharyya", "--eps", "0.5",
               "-o", str(spec_path), "-q"])
    assert rc == 0
    spec = load_code_spec(str(spec_path))
    assert (spec.N, spec.k) == (1024, 512)
    err = capsys.readouterr().err
    assert "N=1024 k=512" in err


def test_construct_stdout_and_config_echo(capsys):
    rc = main(["construct", "--N", "64", "--k", "32",
               "--method", "bhattacharyya", "--crc-width", "0"])
    assert rc == 0
    cap = capsys.readouterr()
    assert cap.out.splitlines()[0].startswith("# polar code spec")
    # effective config echoed to stderr for provenance
    assert "# config_hash = " in cap.err
    assert "# [code]" in cap.err


def test_encode_decode_roundtrip(tmp_path):
    spec_path = tmp_path / "code.spec"
    assert main(["construct", "--N", "64", "--k", "32",
                 "--method", "bhattacharyya", "--crc-width", "8",
                 "-o", str(spec_path), "-q"]) == 0
    spec = load_code_spec(str(spec_path))

    rng = np.random.default_rng(5)
    payloads = rng.integers(0, 2, (3, spec.payload_len))
    pay_path = tmp_path / "payloads.txt"
    pay_path.write_text("\n".join("".join(map(str, row)) for row in payloads))

    cw_path = tmp_path / "codewords.txt"
    assert main(["encode", "--spec", str(spec_path), "-i", str(pay_path),
                 "-o", str(cw_path), "-q"]) == 0
    cw = [line.strip() for line in cw_path.read_text().splitlines()]
    assert all(len(line) == 64 and set(line) <= {"0", "1"} for line in cw)

    # noiseless BPSK LLRs: bit 0 -> +5, bit 1 -> -5
    llr_path = tmp_path / "llrs.txt"
    llr_path.write_text("\n".join(
        " ".join("-5.0" if c == "1" else "5.0" for c in line) for line in cw))
    out_path = tmp_path / "decisions.txt"
    assert main(["decode", "--spec", str(spec_path), "--profile", "flexible",
                 "-L", "8", "-i", str(llr_path), "-o", str(out_path),
                 "-q"]) == 0

    lines = out_path.read_text().splitlines()
    assert len(lines) == 3
    for row, line in zip(payloads, lines):
        fields = dict(tok.split("=", 1) for tok in line.split())
        assert fields["info"] == "".join(map(str, row))
        assert fields["crc"] == "1"
        assert int(fields["path"]) >= 0
        float(fields["pm"])


def test_decode_rejects_wrong_llr_count(tmp_path, capsys):
    spec_path = tmp_path / "code.spec"
    assert main(["construct", "--N", "64", "--k", "32",
                 "--method", "bhattacharyya", "-o", str(spec_path),
                 "-q"]) == 0
    llr_path = tmp_path / "short.txt"
    llr_path.write_text("1.0 -2.0 3.0\n")
    rc = main(["decode", "--spec", str(spec_path), "-i", str(llr_path), "-q"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error:" in err and "expected 64 LLRs" in err


def test_construct_stdout_matches_spec_file(tmp_path, capsys):
    args = ["construct", "--N", "64", "--k", "40", "--crc-width", "8", "-q"]
    spec_path = tmp_path / "code.spec"
    assert main(args + ["-o", str(spec_path)]) == 0
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == spec_path.read_text()


@pytest.fixture(scope="module")
def llr_frames(tmp_path_factory):
    """A CRC-8 code with N=64, LLR lines for more than one CLI chunk of
    noisy frames, and the output line single-frame decode gives each."""
    spec_path = tmp_path_factory.mktemp("code") / "code.spec"
    assert main(["construct", "--N", "64", "--k", "40", "--crc-width", "8",
                 "-o", str(spec_path), "-q"]) == 0
    spec = load_code_spec(str(spec_path))
    rng = np.random.default_rng(9)
    llrs = rng.normal(1.5, 2.0, (DEFAULT_BATCH + 77, 64))
    lines = [" ".join(repr(float(x)) for x in row) for row in llrs]
    want = []
    for llr in llrs:
        res = decode(llr, spec, profile_for("flexible"), L=4)
        want.append("info=%s u=%s pm=%r crc=%d path=%d\n" % (
            "".join(map(str, res.info_hat)), "".join(map(str, res.u_hat)),
            float(res.pm), res.crc_pass, res.selected_path))
    return spec_path, lines, want


def _decode_args(spec_path, llr_path, out_path):
    return ["decode", "--spec", str(spec_path), "--profile", "flexible",
            "-L", "4", "-i", str(llr_path), "-o", str(out_path), "-q"]


def test_decode_in_chunks_matches_single_frame_decode(tmp_path, llr_frames):
    spec_path, lines, want = llr_frames
    llr_path = tmp_path / "llrs.txt"
    # blank lines between frames are skipped
    llr_path.write_text("\n".join(ln + ("\n" if i % 50 == 7 else "")
                                  for i, ln in enumerate(lines)) + "\n")
    out_path = tmp_path / "out.txt"
    assert main(_decode_args(spec_path, llr_path, out_path)) == 0
    assert out_path.read_text() == "".join(want)


@pytest.mark.parametrize("bad, message", [
    ("1.0 2.0", "line 201: expected 64 LLRs, got 2"),
    (" ".join(["0.5"] * 63 + ["nan"]), "line 201: non-finite LLR"),
    (" ".join(["-inf"] + ["0.5"] * 63), "line 201: non-finite LLR"),
], ids=["short", "nan", "inf"])
def test_decode_bad_line_keeps_earlier_frames(tmp_path, capsys, llr_frames,
                                              bad, message):
    spec_path, lines, want = llr_frames
    llr_path = tmp_path / "llrs.txt"
    llr_path.write_text("\n".join(lines[:200] + [bad] + lines[200:]) + "\n")
    out_path = tmp_path / "out.txt"
    assert main(_decode_args(spec_path, llr_path, out_path)) == 1
    assert "error: %s" % message in capsys.readouterr().err
    assert out_path.read_text() == "".join(want[:200])


def test_invalid_override_exits_2(capsys):
    rc = main(["fer", "--set", "campaign.nope=1", "-q"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error:" in err
    assert "nope" in err and "[campaign]" in err


_FER_ARGS = [
    "--set", "code.n=64", "--set", "code.k=32", "--set", "code.crc_width=8",
    "--set", "campaign.snr_db=2.0", "--set", "campaign.max_frames=300",
    "--set", "campaign.max_errors=30", "--set", "campaign.batch=64",
    "--set", "decoder.l=2",
]


def test_fer_csv_is_reproducible(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["fer", *_FER_ARGS, "-o", str(out1), "-q"]) == 0
    assert main(["fer", *_FER_ARGS, "-o", str(out2), "-q"]) == 0
    text = out1.read_text()
    # same config + seed -> byte-identical results, path excluded from hash
    assert text == out2.read_text()

    lines = text.splitlines()
    cfg = load_config(overrides=[a for a in _FER_ARGS if a != "--set"])
    assert lines[0] == "# config = %s" % cfg.config_hash()
    assert lines[1].startswith("# code N=64 k=32")
    assert lines[2] == "es_n0_db,eb_n0_db,frames,frame_errors,fer,ber,fer_ci95"
    rows = lines[3:]
    assert len(rows) == 1
    vals = rows[0].split(",")
    assert float(vals[0]) == 2.0
    frames, errors = int(vals[2]), int(vals[3])
    assert 0 < frames <= 300
    assert float(vals[4]) == pytest.approx(errors / frames)


def test_fer_rejects_zero_list_size_and_budgets(tmp_path, capsys):
    """-L 0 is an invalid list size, not the profile default, and a
    campaign needs at least one frame and one error in its budgets."""
    out = tmp_path / "fer.csv"
    for flags, msg in ((["-L", "0"], "list size must be a power of two"),
                       (["--max-frames", "0"], "max_frames must be at least 1"),
                       (["--max-errors", "-3"], "max_errors must be at least 1")):
        assert main(["fer", *_FER_ARGS, *flags, "-o", str(out), "-q"]) == 1
        assert msg in capsys.readouterr().err
        assert not out.exists()


def test_latency_report_fields(tmp_path, capsys):
    rc = main(["latency", "--set", "code.n=256", "--set", "code.k=128",
               "--profile", "flexible", "-L", "8", "--double-package", "-q"])
    assert rc == 0
    out = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert out["N"] == "256" and out["L"] == "8"
    total = int(out["total_cycles"])
    parts = [int(out[k + "_cycles"])
             for k in ("serial", "semi_parallel", "parallel", "sort")]
    assert sum(parts) == total
    assert float(out["throughput_bps"]) == pytest.approx(
        128 * 1e9 / total * 5)
    ratio = float(out["double_ratio_vs_single"])
    assert 1.0 <= ratio <= 2.0
    assert float(out["double_throughput_gain"]) == pytest.approx(2.0 / ratio)


def test_latency_reports_llr_storage(capsys):
    """latency prints the LLR storage layout, so storage_stride and
    stage5_replicas each change its report."""
    def llr_lines(*sets):
        argv = ["latency", "--set", "code.n=256", "--set", "code.k=128",
                "--profile", "ultra", "-q"]
        for s in sets:
            argv += ["--set", s]
        assert main(argv) == 0
        out = capsys.readouterr().out.splitlines()
        return dict(ln.split(" = ") for ln in out if ln.startswith("llr_"))
    base = llr_lines()
    assert base == {"llr_stored_stages": "0 4", "llr_per_path_entries": "17",
                    "llr_replica_entries": "128", "llr_list_entries": "672",
                    "llr_ratio": repr(672 / (32 * 255))}
    no_replicas = llr_lines("decoder.stage5_replicas=0")
    assert no_replicas["llr_replica_entries"] == "0"
    assert no_replicas["llr_list_entries"] == str(32 * 17)
    stride3 = llr_lines("decoder.storage_stride=3")
    assert stride3["llr_stored_stages"] == "0 3 6"
    assert stride3["llr_per_path_entries"] == "73"


def test_latency_rejects_bad_settings(tmp_path, capsys):
    assert main(["latency", "-L", "3", "-q"]) == 1
    assert "error: list size must be a power of two <= 8" \
        in capsys.readouterr().err
    assert main(["latency", "--set", "decoder.selection=parity_check",
                 "-q"]) == 2
    assert "[decoder] selection" in capsys.readouterr().err
    for setting in ("leaf_width=3", "stage5_replicas=-4",
                    "max_special_node=-1"):
        assert main(["latency", "--set", "decoder." + setting, "-q"]) == 2
        assert "[decoder]" in capsys.readouterr().err
    for setting in ("multi_bit=false", "good_bits=false"):
        assert main(["latency", "--set", "decoder." + setting, "-q"]) == 2
        assert "unknown key" in capsys.readouterr().err
    spec_path = tmp_path / "code.spec"
    assert main(["construct", "--N", "64", "--k", "32", "-o",
                 str(spec_path), "-q"]) == 0
    assert main(["latency", "--spec", str(spec_path), "--set", "code.n=128",
                 "-q"]) == 2
    assert "[code] spec_file conflicts with n" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest", "-q"]) == 0
    out = capsys.readouterr().out
    assert out.count(" ok") == 7
    assert "FAIL" not in out


def test_module_entry_point(tmp_path):
    spec_path = tmp_path / "code.spec"
    proc = subprocess.run(
        [sys.executable, "-m", "polarscl", "construct", "--N", "64",
         "--k", "32", "--method", "bhattacharyya", "-o", str(spec_path),
         "-q"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert spec_path.exists()


@pytest.mark.parametrize("setting", [
    "pe_count_serial=0", "parallel_threshold=0", "cycles_per_pe_pass=0",
    "sort_initiation_interval=0", "num_cores=0", "parallel_unit_latency=-1",
    "sort_latency=1:0 8:-2", "sort_latency=0:0 8:12", "sort_latency=8:3 8:40",
    "f_clk_hz=0", "f_clk_hz=nan",
])
def test_latency_rejects_bad_arch_settings_before_printing(capsys, setting):
    assert main(["latency", "--set", "arch." + setting, "-q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: [arch] " + setting.split("=")[0] in err


def test_latency_needs_a_sort_latency_for_the_list_size(capsys):
    assert main(["latency", "--set", "arch.sort_latency=1:0 2:2 4:6",
                 "-L", "8", "-q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[arch] sort_latency has no entry for list size 8" in err
    assert main(["latency", "--set", "arch.sort_latency=2:2", "-L", "1",
                 "--set", "code.n=64", "--set", "code.k=32", "-q"]) == 0


@pytest.mark.parametrize("settings, message", [
    (["code.method=gaussian_approx", "code.design_param=nan"],
     "design Es/N0 must be finite"),
    (["code.n=64", "code.k=8", "code.crc_width=8"],
     "leave no payload position"),
    (["code.n=16", "code.k=8", "code.crc_width=0", "code.parity=99:1"],
     "parity positions must lie in 0..15"),
])
def test_bad_code_settings_are_config_errors(capsys, settings, message):
    args = ["latency", "-q"]
    for s in settings:
        args += ["--set", s]
    assert main(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: [code] " in err and message in err


@pytest.mark.parametrize("setting, message", [
    ("arch.sort_latency=8:2.5", "bad value for [arch] sort_latency"),
    ("quant.q_i_overrides=0:7 0:9", "[quant] q_i_overrides needs distinct"),
    ("quant.q_i_overrides=-1:7", "[quant] q_i_overrides needs distinct"),
])
def test_bad_table_entries_are_config_errors(capsys, setting, message):
    assert main(["latency", "--set", setting, "-q"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "config error: " + message in err


def test_decode_rejects_a_bad_spec_file_without_traceback(tmp_path, capsys):
    spec_path = tmp_path / "bad.spec"
    spec_path.write_text("N = 16\nk = 8\nmethod = manual\n"
                         "frozen = 0 1 2 3 4 5 6 6\n")
    assert main(["decode", "--spec", str(spec_path), "-i", "/dev/null",
                 "-q"]) == 1
    assert capsys.readouterr().err == \
        "error: %s: frozen: index 6 listed twice\n" % spec_path


@pytest.mark.parametrize("profile", ["sc", "flexible"])
def test_decode_spec_file_matches_decode_from_code_keys(tmp_path, profile):
    keys = ["--set", "code.n=256", "--set", "code.k=136",
            "--set", "code.crc_width=8", "--set", "code.design_param=1.5",
            "--set", "code.good_threshold=0.25"]
    spec_path = tmp_path / "code.spec"
    assert main(["construct", "-o", str(spec_path), "-q"] + keys) == 0
    rng = np.random.default_rng(11)
    llrs = rng.normal(1.0, 1.6, (20, 256))
    llr_path = tmp_path / "llrs.txt"
    llr_path.write_text("".join(" ".join(repr(float(x)) for x in row) + "\n"
                                for row in llrs))
    outs = []
    for code_args in (["--spec", str(spec_path)], keys):
        out_path = tmp_path / ("out%d.txt" % len(outs))
        assert main(["decode", "--profile", profile, "-i", str(llr_path),
                     "-o", str(out_path), "-q"] + code_args) == 0
        outs.append(out_path.read_text())
    assert outs[0] == outs[1] and len(outs[0].splitlines()) == 20
