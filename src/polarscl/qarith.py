"""Saturating sign-magnitude LLR arithmetic and path-metric kernels.

The arithmetic lives in two domains with the same methods, and they are
its only implementation: ``QuantDomain`` (fixed point) and ``FloatDomain``
(the unclipped reference). Each has one check-node kernel ``f``, one
variable-node kernel ``g``, one metric add (``pm_add``, folded over a
block by ``pm_fold``) and one normalization (``pm_normalize``); the
engine and the reference decoders both call them.

In the fixed-point domain values are plain signed integers (or numpy
integer arrays): a sign-magnitude word of width Q holds magnitudes
0..2^(Q-1)-1, negative zero is +0, and saturation clips symmetrically at
+/-(2^(Q-1)-1). Path metrics saturate at 2^q_sort - 1 while sorting and at
2^q_pm - 1 once normalized.
"""

import numbers
from dataclasses import dataclass

import numpy as np


def llr_max(width):
    """Largest representable magnitude of a sign-magnitude word."""
    return (1 << (width - 1)) - 1


@dataclass(frozen=True)
class QuantProfile:
    """Word widths of one decoder configuration.

    q_c: channel LLRs; q_i: internal LLRs (q_i_overrides lists per-stage
    exceptions as (stage, width) pairs); q_sort / q_pm: path metric width
    during sorting / in storage after normalization. channel_scale is the
    LLR value of one channel quantization step.
    """
    q_c: int = 6
    q_i: int = 6
    q_i_overrides: tuple = ()
    q_sort: int = 7
    q_pm: int = 6
    channel_scale: float = 1.0

    def __post_init__(self):
        widths = [(name, getattr(self, name))
                  for name in ("q_c", "q_i", "q_sort", "q_pm")]
        widths += [("q_i_overrides", w) for _s, w in self.q_i_overrides]
        for name, w in widths:
            if not isinstance(w, numbers.Integral):
                raise ValueError("%s must be an integer width, got %r"
                                 % (name, w))
            if not 4 <= w <= 16:
                raise ValueError("quantizer width out of range: %r" % (w,))
        stages = [s for s, _w in self.q_i_overrides]
        if (any(not isinstance(s, numbers.Integral) or s < 0 for s in stages)
                or len(set(stages)) != len(stages)):
            raise ValueError("q_i_overrides needs distinct integer stages "
                             ">= 0, got %s" % " ".join(
                                 "%r:%r" % p for p in self.q_i_overrides))
        if not (self.channel_scale > 0):
            raise ValueError("channel_scale must be positive")

    def width_for_stage(self, stage, n):
        if stage >= n:
            return self.q_c
        for s, w in self.q_i_overrides:
            if s == stage:
                return w
        return self.q_i


def quantize_channel_llr(x, q_c=6, scale=1.0):
    """Quantize float LLRs: round to nearest (ties away from zero), saturate.

    scale is the LLR value of one step; the result is an integer array in
    [-(2^(q_c-1)-1), 2^(q_c-1)-1].
    """
    x = np.asarray(x, dtype=float)
    q = np.sign(x) * np.floor(np.abs(x) / scale + 0.5)
    m = llr_max(q_c)
    out = np.clip(q, -m, m).astype(np.int32)
    return out if out.ndim else out[()]


class QuantDomain:
    """Fixed-point arithmetic for one code size n under a QuantProfile.

    LLRs are int16 while every LLR width is at most 15 bits (``g`` sums two
    magnitudes of at most 2^14 - 1 before it saturates), else int32.
    """

    is_float = False
    pm_dtype = np.int64

    def __init__(self, quant, n):
        self.quant = quant
        self.n = n
        self.widths = tuple(quant.width_for_stage(t, n) for t in range(n + 1))
        self.llr_dtype = np.int16 if max(self.widths) <= 15 else np.int32
        self.pm_cap_sort = (1 << quant.q_sort) - 1
        self.pm_cap_store = (1 << quant.q_pm) - 1

    def channel(self, llrs):
        return quantize_channel_llr(llrs, self.quant.q_c, self.quant.channel_scale
                                    ).astype(self.llr_dtype)

    def check_channel(self, llrs):
        llrs = np.asarray(llrs)
        if not np.issubdtype(llrs.dtype, np.integer):
            raise ValueError("quantized decoding expects integer channel LLRs")
        if np.abs(llrs).max(initial=0) > llr_max(self.quant.q_c):
            raise ValueError("channel LLRs exceed the channel word width")
        return llrs.astype(self.llr_dtype)

    # The kernels are branch-free: on integers, sign(a) sign(b) min(|a|, |b|)
    # is max(min(a, b), -max(a, b)), and g negates b where s is set as
    # (b ^ -1) + 1. Neither overflows the LLR dtype before the final clamp
    # to the stage width: under int16 the inputs are at most 2^14 - 1 in
    # magnitude, so -max and g's sum fit. The clamp writes in place into
    # the kernel's own result, so a and b must broadcast to an array.

    def f(self, a, b, stage):
        m = llr_max(self.widths[stage])
        out = np.maximum(np.minimum(a, b), -np.maximum(a, b))
        np.minimum(out, m, out=out)
        return np.maximum(out, -m, out=out)

    def g(self, a, b, s, stage):
        m = llr_max(self.widths[stage])
        neg = -(np.asarray(s) != 0).view(np.int8)     # -1 where s is set
        out = a + ((np.asarray(b) ^ neg) - neg)
        np.minimum(out, m, out=out)
        return np.maximum(out, -m, out=out)

    @staticmethod
    def hd(llr):
        return (llr < 0).astype(np.uint8)

    @staticmethod
    def pen(llr):
        return np.abs(llr)

    def pm_add(self, pm, pen):
        return np.minimum(pm + pen, self.pm_cap_sort)

    def pm_fold(self, pm, pens):
        """Fold a trailing axis of penalties onto metrics.

        ``pm`` broadcasts against ``pens`` minus its last axis.  Clamping once
        after the sum equals the per-bit saturating chain because the
        penalties are non-negative and the clamp is monotone.
        """
        return np.minimum(pm + pens.sum(axis=-1, dtype=np.int64),
                          self.pm_cap_sort)

    def pm_normalize(self, pms):
        # Last-axis normalization so a (frames, L) batch of independent
        # lists normalizes each list against its own minimum.
        return np.minimum(pms - pms.min(axis=-1, keepdims=True),
                          self.pm_cap_store)


class FloatDomain:
    """Reference floating-point arithmetic (no quantization, no saturation)."""

    is_float = True
    llr_dtype = np.float64
    pm_dtype = np.float64

    def __init__(self, n=None):
        self.n = n

    @staticmethod
    def channel(llrs):
        return np.asarray(llrs, dtype=np.float64)

    check_channel = staticmethod(lambda llrs: np.asarray(llrs, dtype=np.float64))

    @staticmethod
    def f(a, b, stage):
        return np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))

    @staticmethod
    def g(a, b, s, stage):
        return a + np.where(np.asarray(s) != 0, -b, b)

    @staticmethod
    def hd(llr):
        return (llr < 0).astype(np.uint8)

    @staticmethod
    def pen(llr):
        return np.abs(llr)

    @staticmethod
    def pm_add(pm, pen):
        return pm + pen

    @staticmethod
    def pm_fold(pm, pens):
        # Left-fold in bit order so the float rounding sequence matches a
        # bit-serial decoder exactly (addition is not associative here).
        lead = np.broadcast_to(pm, pens.shape[:-1])[..., None]
        acc = np.cumsum(np.concatenate([lead, pens], axis=-1), axis=-1)
        return acc[..., -1]

    @staticmethod
    def pm_normalize(pms):
        # Normalization only bounds register growth in fixed point; in float
        # it is an identity so that metric values do not depend on where the
        # schedule happens to place its pruning sorts (subtracting the
        # running minimum is not associative in IEEE arithmetic).
        return pms
