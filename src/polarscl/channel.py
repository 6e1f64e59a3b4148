"""AWGN Monte Carlo harness: QPSK mapping, per-frame RNG, FER/BER curves.

QPSK over AWGN factors into two independent unit-amplitude BPSK
dimensions, so each coded bit b maps to x = 1 - 2b observed as
y = x + w with w ~ N(0, sigma^2), sigma^2 = 10^(-EsN0dB/10), and the
channel LLR is 2y / sigma^2 (positive favors bit 0).

Every frame draws its payload and noise from an independent counter-based
substream (Philox keyed by the campaign seed, counter = [frame, snr
index, 0, 0]), so a point is reproducible regardless of chunking, restart
position, or which SNR points run first. Early stopping is exact: a point
stops after the smallest frame prefix containing ``max_errors`` frame
errors, which makes the recorded (frames, errors) pair a deterministic
function of (seed, code, decoder, SNR).
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .codes import build_message, polar_transform
from .engine import DEFAULT_BATCH, DecoderProfile, decode_batch, profile_for


def q_func(x):
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN operating point, parameterized by symbol SNR Es/N0 in dB."""
    es_n0_db: float

    @property
    def sigma2(self):
        return 10.0 ** (-self.es_n0_db / 10.0)

    @property
    def sigma(self):
        return math.sqrt(self.sigma2)

    def eb_n0_db(self, code_rate):
        """Information-bit SNR for a code of rate k/N on QPSK (2 bits/symbol)."""
        return self.es_n0_db - 10.0 * math.log10(2.0 * code_rate)


def raw_bit_error_rate(es_n0_db):
    """Uncoded hard-decision BER of one BPSK dimension: Q(1/sigma)."""
    return q_func(10.0 ** (es_n0_db / 20.0))


def frame_rng(seed, frame, snr_index=0):
    """The independent random substream of one (frame, SNR point) pair."""
    return np.random.Generator(np.random.Philox(
        key=seed, counter=[frame, snr_index, 0, 0]))


def transmit(bits, config, rng=None, noise=None):
    """Map coded bits onto the channel and return received LLRs.

    Leading axes of bits are frames. The unit-variance noise is drawn from
    rng, or read from ``noise`` (float64, bits' shape), which then receives
    the LLRs in place.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    y = rng.standard_normal(bits.shape) if noise is None else noise
    y *= config.sigma
    y += 1 - 2 * bits.view(np.int8)     # x = 1 - 2b: adding +-1.0 is exact
    y *= 2.0
    y /= config.sigma2
    return y


@dataclass
class FERPoint:
    """Monte Carlo result of one SNR point."""
    es_n0_db: float
    eb_n0_db: float
    frames: int
    frame_errors: int
    bit_errors: int
    payload_bits: int

    @property
    def fer(self):
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def ber(self):
        return self.bit_errors / self.payload_bits if self.payload_bits else 0.0

    @property
    def fer_ci95(self):
        """Half-width of the normal-approximation 95% confidence interval."""
        if not self.frames:
            return 0.0
        p = self.fer
        return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / self.frames)


def run_fer(spec, profile, snr_db, seed=20260819, L=None,
            arithmetic="quantized", max_frames=1000000, max_errors=100,
            batch=DEFAULT_BATCH, progress=None):
    """Measure FER/BER at each Es/N0 point; returns a list of FERPoint.

    A frame counts as an error when the decoded payload differs from the
    transmitted payload in any bit. Each point stops after the smallest
    frame prefix containing ``max_errors`` frame errors (or at
    ``max_frames``). Frame i always draws from the same Philox substream,
    so the measurement is a deterministic function of (seed, code,
    decoder, SNR) and does not depend on ``batch``; the batch size only
    sets how many frames are decoded in lockstep per call.
    """
    if not isinstance(profile, DecoderProfile):
        profile = profile_for(profile)
    for name, value in (("batch", batch), ("max_frames", max_frames),
                        ("max_errors", max_errors)):
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError("%s must be an integer, got %r" % (name, value))
        if value < 1:
            raise ValueError("%s must be at least 1, got %r" % (name, value))
    batch, max_frames, max_errors = int(batch), int(max_frames), int(max_errors)
    snrs = np.atleast_1d(np.asarray(snr_db, dtype=float))
    bad = np.flatnonzero(~np.isfinite(snrs))
    if len(bad):
        raise ValueError("Es/N0 point %d is not finite: %r"
                         % (bad[0], float(snrs[bad[0]])))
    points = []
    for si, snr in enumerate(snrs):
        cfg = ChannelConfig(float(snr))
        frames = frame_errors = bit_errors = 0
        while frames < max_frames and frame_errors < max_errors:
            nb = min(batch, max_frames - frames)
            payloads = np.empty((nb, spec.payload_len), dtype=np.uint8)
            llrs = np.empty((nb, spec.N))
            for i in range(nb):
                rng = frame_rng(seed, frames + i, si)
                payloads[i] = rng.integers(0, 2, spec.payload_len)
                rng.standard_normal(out=llrs[i])
            u = build_message(payloads, spec)
            transmit(polar_transform(u), cfg, noise=llrs)
            res = decode_batch(llrs, spec, profile, L=L, arithmetic=arithmetic)
            nbad = np.count_nonzero(res.info_hat != payloads, axis=1)
            cum = np.cumsum(nbad > 0)
            if frame_errors + int(cum[-1]) >= max_errors:
                # Trim the batch to the frame that hits the error budget so
                # the stopping point matches a frame-at-a-time run.
                nb = int(np.searchsorted(cum, max_errors - frame_errors)) + 1
            frames += nb
            frame_errors += int(cum[nb - 1])
            bit_errors += int(nbad[:nb].sum())
        points.append(FERPoint(
            es_n0_db=float(snr),
            eb_n0_db=cfg.eb_n0_db(spec.rate()),
            frames=frames,
            frame_errors=frame_errors,
            bit_errors=bit_errors,
            payload_bits=frames * spec.payload_len,
        ))
        if progress is not None:
            progress(points[-1])
    return points


def _as_xy(points):
    out = []
    for p in points:
        if isinstance(p, FERPoint):
            out.append((p.es_n0_db, p.fer))
        else:
            snr, fer = p
            out.append((float(snr), float(fer)))
    return sorted(out)


def snr_at_fer(points, target_fer):
    """Es/N0 at which a measured curve crosses target_fer.

    Interpolates linearly in (SNR, log10 FER) between the first adjacent
    pair that brackets the target; raises if no pair does (zero-error
    points cannot bracket from below).
    """
    xy = [(s, f) for s, f in _as_xy(points) if f > 0.0]
    if target_fer <= 0.0:
        raise ValueError("target FER must be positive")
    for (s0, f0), (s1, f1) in zip(xy, xy[1:]):
        lo, hi = min(f0, f1), max(f0, f1)
        if lo <= target_fer <= hi and f0 != f1:
            frac = (math.log10(target_fer) - math.log10(f0)) \
                / (math.log10(f1) - math.log10(f0))
            return s0 + frac * (s1 - s0)
    raise ValueError("target FER %g is not bracketed by the curve" % target_fer)


def compare_curves(points_a, points_b, target_fer):
    """SNR gap between two FER curves at a target FER (b minus a, dB)."""
    snr_a = snr_at_fer(points_a, target_fer)
    snr_b = snr_at_fer(points_b, target_fer)
    return {"snr_a_db": snr_a, "snr_b_db": snr_b, "gap_db": snr_b - snr_a}
