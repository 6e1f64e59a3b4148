import math

import numpy as np
import pytest

from polarscl.channel import (
    ChannelConfig, FERPoint, compare_curves, frame_rng, q_func,
    raw_bit_error_rate, run_fer, snr_at_fer, transmit,
)
from polarscl.codes import construct_code
from polarscl.engine import profile_for


def test_channel_config_noise_model():
    cfg = ChannelConfig(3.0)
    assert cfg.sigma2 == pytest.approx(10 ** -0.3)
    assert cfg.sigma == pytest.approx(math.sqrt(10 ** -0.3))
    # Eb/N0 = Es/N0 - 10 log10(2R) for QPSK-style two bits per symbol
    assert cfg.eb_n0_db(0.5) == pytest.approx(3.0)
    assert cfg.eb_n0_db(0.25) == pytest.approx(3.0 + 10 * math.log10(2))


def test_transmit_llr_formula():
    cfg = ChannelConfig(2.0)
    rng = np.random.default_rng(0)
    bits = np.array([0, 1, 0, 1, 1], dtype=np.uint8)
    llr = transmit(bits, cfg, rng)
    # replay the same noise to reproduce by hand
    rng = np.random.default_rng(0)
    x = 1.0 - 2.0 * bits
    y = x + cfg.sigma * rng.standard_normal(5)
    assert np.allclose(llr, 2.0 * y / cfg.sigma2)
    # noiseless sign: positive for bit 0
    class NoNoise:
        def standard_normal(self, n):
            return np.zeros(n)
    assert np.all(transmit(np.zeros(4, np.uint8), cfg, NoNoise()) > 0)


def test_raw_bit_error_rate_is_qfunction():
    for snr in (-2.0, 0.0, 3.0):
        assert raw_bit_error_rate(snr) == pytest.approx(
            q_func(10 ** (snr / 20.0)))
    assert q_func(0.0) == pytest.approx(0.5)
    assert q_func(6.0) < 1e-8


def test_frame_rng_substreams():
    """Frame/SNR-indexed generators are independent and reproducible."""
    a = frame_rng(7, 0, 0).integers(0, 2, 50)
    b = frame_rng(7, 0, 0).integers(0, 2, 50)
    c = frame_rng(7, 1, 0).integers(0, 2, 50)
    d = frame_rng(7, 0, 1).integers(0, 2, 50)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_fer_point_estimators():
    p = FERPoint(es_n0_db=2.0, eb_n0_db=2.0, frames=400, frame_errors=20,
                 bit_errors=100, payload_bits=400 * 64)
    assert p.fer == pytest.approx(0.05)
    assert p.ber == pytest.approx(100 / (400 * 64))
    want = 1.96 * math.sqrt(0.05 * 0.95 / 400)
    assert p.fer_ci95 == pytest.approx(want)


def test_fer_ci95_against_bootstrap():
    rng = np.random.default_rng(1)
    p = FERPoint(2.0, 2.0, frames=500, frame_errors=60, bit_errors=0,
                 payload_bits=1)
    outcomes = np.zeros(500)
    outcomes[:60] = 1
    boots = [rng.choice(outcomes, 500).mean() for _ in range(3000)]
    half_width = 1.96 * np.std(boots)
    assert p.fer_ci95 == pytest.approx(half_width, rel=0.2)


def test_run_fer_deterministic_and_batch_invariant():
    spec = construct_code(128, 64, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", n_max_log=14)
    kw = dict(seed=33, L=8, arithmetic="quantized",
              max_frames=300, max_errors=12)
    a = run_fer(spec, prof, 1.5, batch=128, **kw)[0]
    b = run_fer(spec, prof, 1.5, batch=1, **kw)[0]
    c = run_fer(spec, prof, 1.5, batch=37, **kw)[0]
    for other in (b, c):
        assert other.frames == a.frames
        assert other.frame_errors == a.frame_errors
        assert other.bit_errors == a.bit_errors
    # changing the seed changes the draw
    d = run_fer(spec, prof, 1.5, batch=128, seed=34, L=8,
                arithmetic="quantized", max_frames=300, max_errors=12)[0]
    assert (d.frames, d.frame_errors) != (a.frames, a.frame_errors)


def test_run_fer_stops_at_error_budget():
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("sc")
    # at very low SNR every frame fails: exactly max_errors frames decoded
    p = run_fer(spec, prof, -10.0, L=1, max_frames=1000, max_errors=7,
                batch=64)[0]
    assert p.frame_errors == 7
    assert p.frames == 7
    # at very high SNR the frame budget binds instead
    p = run_fer(spec, prof, 20.0, L=1, max_frames=50, max_errors=7,
                batch=64)[0]
    assert p.frames == 50
    assert p.frame_errors == 0


def test_run_fer_rejects_empty_budgets():
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("sc")
    with pytest.raises(ValueError, match="max_frames must be at least 1"):
        run_fer(spec, prof, 2.0, L=1, max_frames=0)
    with pytest.raises(ValueError, match="max_errors must be at least 1"):
        run_fer(spec, prof, 2.0, L=1, max_errors=-3)


def test_run_fer_snr_grid_and_progress():
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", n_max_log=14)
    seen = []
    pts = run_fer(spec, prof, [0.0, 2.0], L=8, max_frames=60, max_errors=60,
                  batch=32, progress=seen.append)
    assert len(pts) == 2 and len(seen) == 2
    assert pts[0].es_n0_db == 0.0 and pts[1].es_n0_db == 2.0
    assert pts[0].fer >= pts[1].fer  # more noise, more errors


def mkpt(snr, fer, frames=10000):
    errs = int(round(fer * frames))
    return FERPoint(snr, snr, frames, errs, errs, frames * 10)


def test_snr_at_fer_interpolation():
    pts = [mkpt(1.0, 1e-1), mkpt(2.0, 1e-2), mkpt(3.0, 1e-3)]
    assert snr_at_fer(pts, 1e-2) == pytest.approx(2.0)
    # halfway in log-FER between the last two points
    assert snr_at_fer(pts, 10 ** -2.5) == pytest.approx(2.5)
    with pytest.raises(ValueError):
        snr_at_fer(pts, 1e-5)  # below the measured range


def test_compare_curves_gap():
    a = [mkpt(1.0, 1e-1), mkpt(2.0, 1e-3)]
    b = [mkpt(1.5, 1e-1), mkpt(2.5, 1e-3)]
    out = compare_curves(a, b, 1e-2)
    assert out["gap_db"] == pytest.approx(0.5)
    assert out["snr_b_db"] - out["snr_a_db"] == pytest.approx(out["gap_db"])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_run_fer_rejects_non_finite_snr_before_drawing_frames(monkeypatch,
                                                              bad):
    import polarscl.channel as channel

    def no_frames(*args):
        raise AssertionError("a frame was drawn")

    monkeypatch.setattr(channel, "frame_rng", no_frames)
    spec = construct_code(32, 16)
    with pytest.raises(ValueError,
                       match=r"Es/N0 point 1 is not finite: %s" % bad):
        run_fer(spec, "sc", [2.0, bad], max_frames=4)
