import os

import pytest

from polarscl.config import ConfigError, RunConfig, load_config
from polarscl.cycles import ArchParams


def test_defaults_are_a_runnable_ca_scl_setup():
    cfg = RunConfig()
    assert cfg.get("code", "n") == 1024
    assert cfg.get("code", "k") == 512
    assert cfg.get("code", "method") == "gaussian_approx"
    assert cfg.get("code", "crc_width") == 24
    assert cfg.get("decoder", "profile") == "flexible"
    assert cfg.get("decoder", "arithmetic") == "quantized"
    assert cfg.get("quant", "q_sort") == 7
    assert cfg.get("campaign", "snr_db") == (1.8, 2.0, 2.2)
    assert cfg.get("campaign", "seed") == 20260819
    assert cfg.get("output", "csv") == "-"
    spec = cfg.build_spec()
    assert (spec.N, spec.k) == (1024, 512)
    assert spec.crc is not None and spec.crc.width == 24
    prof = cfg.build_profile()
    assert prof.kind == "flexible" and prof.selection == "crc_aided"
    assert cfg.build_arch() == ArchParams()
    assert cfg.list_size() is None


def test_unknown_section_and_key_are_named():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match=r"\[turbo\]"):
        cfg.set("turbo", "iterations", "4")
    with pytest.raises(ConfigError, match=r"'frobnicate'.*\[code\]"):
        cfg.set("code", "frobnicate", "1")
    with pytest.raises(ConfigError, match="section.key=value"):
        load_config(overrides=["just-a-word"])


def test_bad_values_name_section_and_key():
    cfg = RunConfig()
    with pytest.raises(ConfigError, match=r"\[campaign\] max_frames"):
        cfg.set("campaign", "max_frames", "lots")
    with pytest.raises(ConfigError, match="expected one of"):
        cfg.set("decoder", "profile", "turbo")
    with pytest.raises(ConfigError, match=r"\[decoder\] skip_frozen_prefix"):
        cfg.set("decoder", "skip_frozen_prefix", "maybe")
    # hex and decimal integers both work
    cfg.set("code", "crc_poly", "0x864cfb")
    assert cfg.get("code", "crc_poly") == 0x864CFB
    cfg.set("code", "crc_poly", "100")
    assert cfg.get("code", "crc_poly") == 100


def test_file_then_overrides_last_wins(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[code]\nk = 300\nn = 512\n\n[campaign]\nseed = 1\n")
    cfg = load_config(str(p), overrides=["code.k=400", "code.k=500"])
    assert cfg.get("code", "n") == 512
    assert cfg.get("code", "k") == 500
    assert cfg.get("campaign", "seed") == 1


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.ini"))
    p = tmp_path / "broken.ini"
    p.write_text("k = 1\n")  # key before any section header
    with pytest.raises(ConfigError, match="config syntax"):
        load_config(str(p))


def test_inline_comments_and_empty_resets(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[code]\nk = 300  # halve it later\ncrc_width = 16 ; short\n")
    cfg = load_config(str(p))
    assert cfg.get("code", "k") == 300
    assert cfg.get("code", "crc_width") == 16
    # empty value = back to the default
    cfg.set("code", "crc_width", "")
    assert cfg.get("code", "crc_width") == 24
    cfg.set("decoder", "l", "")
    assert cfg.get("decoder", "l") is None


def test_effective_text_roundtrips(tmp_path):
    cfg = load_config(overrides=[
        "code.parity=12:3,7;40:20,33",
        "quant.q_i_overrides=0:7 3:8",
        "decoder.l=4",
        "decoder.selection=best_pm",
        "campaign.snr_db=1.0 1.5 2.25",
        "arch.f_clk_hz=7.5e8",
    ])
    text = cfg.effective_text()
    p = tmp_path / "echo.ini"
    p.write_text(text)
    again = load_config(str(p))
    assert again.effective_text() == text
    assert again.config_hash() == cfg.config_hash()
    # the canonical form is sorted and stable
    secs = [ln for ln in text.splitlines() if ln.startswith("[")]
    assert secs == sorted(secs)


def test_config_hash_ignores_output_paths():
    a = load_config(overrides=["output.csv=a.csv"])
    b = load_config(overrides=["output.csv=b.csv"])
    assert a.config_hash() == b.config_hash()
    assert a.effective_text() != b.effective_text()
    c = load_config(overrides=["campaign.seed=7"])
    assert c.config_hash() != a.config_hash()


def test_build_spec_variants(tmp_path):
    cfg = RunConfig()
    cfg.set("code", "crc_width", "0")
    assert cfg.build_spec().crc is None

    cfg = RunConfig()
    cfg.set("code", "crc_width", "10")  # no built-in polynomial
    with pytest.raises(ConfigError, match=r"\[code\].*crc_poly"):
        cfg.build_spec()
    cfg.set("code", "crc_poly", "0x233")
    spec = cfg.build_spec()
    assert spec.crc.width == 10 and spec.crc.polynomial == 0x233

    cfg = RunConfig()
    cfg.set("code", "method", "external_sequence")
    with pytest.raises(ConfigError, match="sequence_file"):
        cfg.build_spec()
    seq = tmp_path / "seq.txt"
    seq.write_text("\n".join(str(i) for i in range(1024)))
    cfg.set("code", "sequence_file", str(seq))
    spec = cfg.build_spec()
    # natural order: the last k indices of the listed permutation are kept
    assert not spec.frozen_mask[1024 - 1]
    assert spec.frozen_mask[0]


def test_build_spec_loads_saved_spec_file(tmp_path):
    from polarscl.codes import save_code_spec
    base = RunConfig()
    base.set("code", "n", "256")
    base.set("code", "k", "128")
    spec = base.build_spec()
    path = tmp_path / "code.spec"
    save_code_spec(spec, str(path))
    cfg = RunConfig()
    cfg.set("code", "spec_file", str(path))
    loaded = cfg.build_spec()
    assert loaded.N == 256 and loaded.k == 128
    assert (loaded.frozen_mask == spec.frozen_mask).all()


def test_good_bits_switch_masks_the_good_set():
    on = RunConfig()
    on.set("code", "good_threshold", "0.5")
    assert on.build_spec().good_mask.sum() > 0
    off = RunConfig()
    off.set("code", "good_threshold", "0")
    assert off.build_spec().good_mask.sum() == 0
    # good_threshold = 0 is the one switch; the old duplicate is gone
    with pytest.raises(ConfigError, match=r"'good_bits'.*\[decoder\]"):
        off.set("decoder", "good_bits", "false")


def _saved_spec(tmp_path):
    from polarscl.codes import save_code_spec
    base = RunConfig()
    base.set("code", "n", "256")
    base.set("code", "k", "128")
    path = tmp_path / "code.spec"
    save_code_spec(base.build_spec(), str(path))
    return path


def test_spec_file_rejects_other_code_keys(tmp_path):
    path = _saved_spec(tmp_path)
    cfg = load_config(overrides=["code.spec_file=%s" % path, "code.k=100",
                                 "code.good_threshold=0.5",
                                 "decoder.l=4"])
    with pytest.raises(ConfigError,
                       match=r"\[code\] spec_file conflicts with "
                             r"good_threshold, k"):
        cfg.build_spec()
    # a key set to its default value is no conflict
    ok = load_config(overrides=["code.spec_file=%s" % path, "code.k=512",
                                "code.crc_width=24"])
    assert ok.build_spec().k == 128


def test_spec_file_effective_text_reloads(tmp_path):
    path = _saved_spec(tmp_path)
    cfg = load_config(overrides=["code.spec_file=%s" % path])
    echo = tmp_path / "echo.ini"
    echo.write_text(cfg.effective_text())
    again = load_config(str(echo))
    assert again.config_hash() == cfg.config_hash()
    assert again.build_spec().k == 128


def test_config_hash_without_files_is_pinned():
    # Configs that name no file hash their effective text alone, so FER CSV
    # headers and the sc decode benchmark's config keep these hashes.
    assert load_config().config_hash() == "3f9b25e29060"
    sc = load_config(overrides=[
        "code.n=1024", "code.k=512", "code.method=gaussian_approx",
        "code.design_param=2.0", "code.crc_width=0", "decoder.profile=sc",
        "decoder.arithmetic=quantized"])
    assert sc.config_hash() == "b5dd928d5163"


def test_config_hash_reads_the_spec_file_not_its_path(tmp_path):
    path = _saved_spec(tmp_path)
    copy = tmp_path / "elsewhere" / "copy.spec"
    copy.parent.mkdir()
    copy.write_bytes(path.read_bytes())
    here = load_config(overrides=["code.spec_file=%s" % path])
    there = load_config(overrides=["code.spec_file=%s" % copy])
    assert here.effective_text() != there.effective_text()
    assert here.config_hash() == there.config_hash()
    # another code saved at the same path changes the hash
    before = here.config_hash()
    other = RunConfig()
    other.set("code", "n", "512")
    from polarscl.codes import save_code_spec
    save_code_spec(other.build_spec(), str(path))
    assert here.config_hash() != before


def test_config_hash_reads_the_sequence_file_not_its_path(tmp_path):
    def hashed(path):
        return load_config(overrides=[
            "code.method=external_sequence",
            "code.sequence_file=%s" % path]).config_hash()

    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_text(" ".join(str(i) for i in range(1024)))
    b.write_text(a.read_text())
    assert hashed(a) == hashed(b)
    b.write_text(" ".join(str(i) for i in reversed(range(1024))))
    assert hashed(a) != hashed(b)


@pytest.mark.parametrize("key, extra", [
    ("spec_file", []), ("sequence_file", ["code.method=external_sequence"])])
def test_unreadable_code_file_is_a_config_error(tmp_path, key, extra):
    missing = tmp_path / "missing.txt"
    cfg = load_config(overrides=["code.%s=%s" % (key, missing)] + extra)
    for call in (cfg.config_hash, cfg.build_spec):
        with pytest.raises(ConfigError, match=r"\[code\] cannot read %s" % key):
            call()


@pytest.mark.parametrize("call", ["build_spec", "config_hash"])
@pytest.mark.parametrize("method", ["bhattacharyya", "gaussian_approx"])
def test_sequence_file_outside_external_sequence_is_a_config_error(
        tmp_path, call, method):
    """Only external_sequence reads sequence_file, so under another method
    the key is a [code] error, whether or not the file exists: the spec
    and the hash of a FER run cannot disagree about it."""
    present = tmp_path / "seq.txt"
    present.write_text(" ".join(str(i) for i in range(1024)))
    for path in (present, tmp_path / "missing.txt"):
        cfg = load_config(overrides=["code.method=%s" % method,
                                     "code.sequence_file=%s" % path])
        with pytest.raises(ConfigError, match=r"\[code\] sequence_file is "
                           r"read only by method external_sequence, not "
                           + method):
            getattr(cfg, call)()


def test_build_profile_overrides():
    cfg = RunConfig()
    cfg.set("decoder", "leaf_width", "2")
    cfg.set("decoder", "storage_stride", "1")
    cfg.set("decoder", "selection", "best_pm")
    cfg.set("quant", "q_c", "5")
    prof = cfg.build_profile()
    assert prof.leaf_width == 2
    assert prof.storage_stride == 1
    assert prof.selection == "best_pm"
    assert prof.quant.q_c == 5

    # leaf_width = 1 is the one switch to bit-serial leaves
    cfg.set("decoder", "leaf_width", "1")
    assert cfg.build_profile().leaf_width == 1
    with pytest.raises(ConfigError, match=r"'multi_bit'.*\[decoder\]"):
        cfg.set("decoder", "multi_bit", "false")

    bad = RunConfig()
    bad.set("quant", "q_pm", "3")
    with pytest.raises(ConfigError, match=r"\[quant\].*width"):
        bad.build_profile()


def test_build_arch_from_config():
    cfg = load_config(overrides=[
        "arch.pe_count_serial=32",
        "arch.sort_latency=1:0 8:5",
        "arch.sort_initiation_interval=2",
        "arch.num_cores=1",
    ])
    arch = cfg.build_arch()
    assert arch.pe_count_serial == 32
    assert arch.sort_latency == ((1, 0), (8, 5))
    assert arch.sort_initiation_interval == 2
    assert arch.num_cores == 1
    assert arch.sort_latency_for(8) == 5


def test_list_size_passthrough():
    cfg = RunConfig()
    assert cfg.list_size() is None
    cfg.set("decoder", "l", "4")
    assert cfg.list_size() == 4
