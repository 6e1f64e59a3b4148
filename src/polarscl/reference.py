"""Slow, structurally independent reference decoders for testing.

Everything here recomputes from first principles: leaf LLRs are derived
recursively from the channel vector on every bit, decisions are stored
directly, and no bank, address map, multi-bit block, or partial-sum
cascade exists. The main engine must agree with these bit for bit under
the same arithmetic domain. Both call the same domain methods (f, g and
the metric steps of ``qarith``), so a shared bug would have to live in
those methods, which the exhaustive tests in ``tests/test_qarith.py``
check against unbounded integer arithmetic.
"""

import numpy as np

from .codes import build_message, crc_check, crc_sequence, polar_transform
from .qarith import FloatDomain


def _next_bit_llr(y, prefix, domain, t):
    """LLR of the first undecided leaf of a node, for each path.

    y: the node's LLR vector (length 2^t), shared or one row per path;
    prefix: each path's already decided leaves, (paths, i). Descends f
    while the target sits in the left half, else folds the left half's
    partial sums into one g step.
    """
    if y.shape[-1] == 1:
        return np.broadcast_to(y[..., 0], len(prefix))
    h = y.shape[-1] // 2
    if prefix.shape[1] < h:
        return _next_bit_llr(domain.f(y[..., :h], y[..., h:], t - 1), prefix,
                             domain, t - 1)
    sign = 1 - 2 * polar_transform(prefix[:, :h]).astype(np.int8)
    g = domain.g(y[..., h:], y[..., :h], sign, t - 1)
    return _next_bit_llr(g, prefix[:, h:], domain, t - 1)


def sc_decode(llrs, frozen_mask):
    """Plain textbook successive cancellation, floating point, recursive."""
    y = np.asarray(llrs, dtype=np.float64)
    frozen = np.asarray(frozen_mask, dtype=bool)

    def rec(y, frz):
        if len(y) == 1:
            bit = 0 if frz[0] else int(y[0] < 0)
            b = np.array([bit], dtype=np.uint8)
            return b, b
        h = len(y) // 2
        fl = np.sign(y[:h]) * np.sign(y[h:]) * np.minimum(np.abs(y[:h]),
                                                          np.abs(y[h:]))
        ul, bl = rec(fl, frz[:h])
        gl = y[h:] + np.where(bl != 0, -y[:h], y[:h])
        ur, br = rec(gl, frz[h:])
        return np.concatenate([ul, ur]), np.concatenate([bl ^ br, br])

    u, _ = rec(y, frozen)
    return u


def forced_path_metric(llrs, u, domain=None):
    """Metric an SC walk accrues when every decision is forced to u.

    Penalties (|llr| on a decision that contradicts the hard decision)
    accumulate in leaf order through domain.pm_add, so saturation behaves
    exactly as in a live decode.
    """
    domain = domain or FloatDomain()
    y = domain.check_channel(np.asarray(llrs))
    u = np.asarray(u, dtype=np.uint8)
    n = len(u).bit_length() - 1
    pm = np.zeros(1, dtype=domain.pm_dtype)
    for i in range(len(u)):
        llr = _next_bit_llr(y, u[None, :i], domain, n)[0]
        hd = int(llr < 0)
        if int(u[i]) != hd:
            pm = domain.pm_add(pm, np.abs(np.asarray([llr])))
    return pm[0]


def ml_decode(llrs, spec, domain=None):
    """Exhaustive minimum-metric decode (tiny codes only).

    Enumerates every payload, builds the full message (CRC / parity /
    frozen bits included), and returns (u, metric) of the smallest forced
    path metric. Ties go to the lexicographically smallest payload.
    """
    if spec.payload_len > 14:
        raise ValueError("exhaustive search is for payloads of <= 14 bits")
    domain = domain or FloatDomain()
    best_u, best_pm = None, None
    for m in range(1 << spec.payload_len):
        payload = ((m >> np.arange(spec.payload_len - 1, -1, -1)) & 1).astype(np.uint8)
        u = build_message(payload, spec)
        pm = forced_path_metric(llrs, u, domain)
        if best_pm is None or pm < best_pm:
            best_u, best_pm = u, pm
    return best_u, best_pm


def scl_reference(llrs, spec, L, domain=None, selection="best_pm"):
    """Bit-serial list decode, recomputing every LLR from the channel.

    Implements the same decision rules as the engine (frozen zeros, good
    bits hard-decided, parity bits forced from earlier sources, candidate
    pruning by (metric, parent, bit) with survivors re-indexed in (parent,
    bit) order, metric renormalization after each pruning sort) but shares
    none of its machinery. Returns (u_hat, survivor u array, metrics).
    """
    domain = domain or FloatDomain()
    y = domain.check_channel(np.asarray(llrs))
    N, n = spec.N, spec.n
    good = spec.good_mask
    frozen = spec.frozen_mask
    parity_of = {p: srcs for p, srcs in (spec.pc.constraints if spec.pc else [])}
    paths = np.zeros((1, N), dtype=np.uint8)
    pm = np.zeros(1, dtype=domain.pm_dtype)
    for i in range(N):
        llr = _next_bit_llr(y, paths[:, :i], domain, n)
        hd = domain.hd(llr)
        pen = domain.pen(llr)
        if frozen[i]:
            bit = np.zeros(len(paths), dtype=np.uint8)
        elif good[i]:
            bit = hd
        elif i in parity_of:
            src = list(parity_of[i])
            bit = np.bitwise_xor.reduce(paths[:, src], axis=1)
        else:
            parent = np.repeat(np.arange(len(paths)), 2)
            bit = np.tile(np.array([0, 1], dtype=np.uint8), len(paths))
            pm2 = domain.pm_add(np.repeat(pm, 2),
                                np.where(bit != np.repeat(hd, 2),
                                         np.repeat(pen, 2), 0))
            if len(parent) > L:
                sel = np.lexsort((bit, parent, pm2))[:L]
                sel = sel[np.lexsort((bit[sel], parent[sel]))]
                sorted_flag = True
            else:
                sel = np.arange(len(parent))
                sorted_flag = False
            paths = paths[parent[sel]]
            paths[:, i] = bit[sel]
            pm = pm2[sel]
            if sorted_flag and len(sel) >= 2:
                pm = domain.pm_normalize(pm)
            continue
        pm = domain.pm_add(pm, np.where(bit != hd, pen, 0))
        paths[:, i] = bit
    crc_ok = None
    if spec.crc is not None:
        crc_ok = np.array([crc_check(crc_sequence(u, spec), spec.crc)
                           for u in paths], dtype=bool)
    if selection == "crc_aided" and crc_ok is not None and crc_ok.any():
        passing = np.flatnonzero(crc_ok)
        idx = int(passing[np.argmin(pm[passing])])
    else:
        idx = int(np.argmin(pm))
    return paths[idx], paths, pm
