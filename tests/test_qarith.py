"""Exhaustive checks of the decoder's arithmetic -- the methods of
``QuantDomain`` and ``FloatDomain`` -- against plain-integer oracles
computed with unbounded arithmetic followed by one clamp."""

import numpy as np
import pytest

from polarscl import qarith
from polarscl.qarith import FloatDomain, QuantDomain, QuantProfile, llr_max


def sign(x):
    return (x > 0) - (x < 0)


def full_grid(width):
    m = llr_max(width)
    vals = np.arange(-m, m + 1, dtype=np.int32)
    a, b = np.meshgrid(vals, vals, indexing="ij")
    return a.ravel(), b.ravel()


def signs(bits, dtype=np.int8):
    """The partial sums g takes: +1 for bit 0, -1 for bit 1."""
    return (1 - 2 * np.asarray(bits, dtype=np.int64)).astype(dtype)


def domain(q_i=6, q_sort=7, q_pm=6):
    """A fixed-point domain whose stage 0 is q_i bits wide."""
    return QuantDomain(QuantProfile(q_i=q_i, q_sort=q_sort, q_pm=q_pm), 1)


def metric_update(dom, pm, llr, decision):
    """The engine's metric step: add |llr| when the decision disagrees
    with the LLR's hard decision."""
    llr = np.asarray(llr)
    return dom.pm_add(pm, np.where(decision != dom.hd(llr), dom.pen(llr), 0))


@pytest.mark.parametrize("width", [6, 7])
def test_f_min_sum_exhaustive(width):
    a, b = full_grid(width)
    got = domain(q_i=width).f(a, b, 0)
    got_float = FloatDomain.f(a.astype(float), b.astype(float), 0)
    m = llr_max(width)
    for i in range(len(a)):
        x, y = int(a[i]), int(b[i])
        want = sign(x) * sign(y) * min(abs(x), abs(y))
        assert got_float[i] == want, (x, y)
        assert got[i] == max(-m, min(m, want)), (x, y)


@pytest.mark.parametrize("width", [6, 7])
def test_g_combine_exhaustive(width):
    a, b = full_grid(width)
    m = llr_max(width)
    dom = domain(q_i=width)
    for s in (0, 1):
        sign = signs(np.full(len(a), s))
        got = dom.g(a, b, sign, 0)
        got_float = FloatDomain.g(a.astype(float), b.astype(float), sign, 0)
        for i in range(len(a)):
            x, y = int(a[i]), int(b[i])
            want = x + (y if s == 0 else -y)
            assert got_float[i] == want, (x, y, s)
            assert got[i] == max(-m, min(m, want)), (x, y, s)


@pytest.mark.parametrize("q_llr,q_sort", [(6, 6), (6, 7), (7, 7)])
def test_pm_update_exhaustive(q_llr, q_sort):
    m = llr_max(q_llr)
    cap = (1 << q_sort) - 1
    dom = domain(q_i=q_llr, q_sort=q_sort)
    llr = np.arange(-m, m + 1, dtype=np.int32)
    pm = np.arange(0, cap + 1, dtype=np.int64)
    L, P = np.meshgrid(llr, pm, indexing="ij")
    for dec in (0, 1):
        got = metric_update(dom, P, L, dec)
        flat_l, flat_p, flat_g = L.ravel(), P.ravel(), got.ravel()
        for i in range(len(flat_l)):
            x, p = int(flat_l[i]), int(flat_p[i])
            hd = 1 if x < 0 else 0
            want = p + (abs(x) if dec != hd else 0)
            assert flat_g[i] == min(want, cap), (x, p, dec)
    # folding a block of penalties equals the per-bit saturating chain
    rng = np.random.default_rng(q_llr * q_sort)
    start = rng.integers(0, cap + 1, 500)
    pens = rng.integers(0, m + 1, (500, 4))
    chain = start
    for j in range(pens.shape[1]):
        chain = dom.pm_add(chain, pens[:, j])
    assert np.array_equal(dom.pm_fold(start, pens), chain)


def test_pm_update_no_penalty_on_agreement():
    dom = domain()
    assert metric_update(dom, 5, -3, 1) == 5
    assert metric_update(dom, 5, -3, 0) == 8
    assert metric_update(dom, 5, 3, 0) == 5
    assert metric_update(dom, 5, 0, 0) == 5  # zero LLR decides 0
    assert metric_update(dom, 5, 0, 1) == 5  # ...and penalizes by |0|
    assert metric_update(FloatDomain, 5.0, -3.5, 0) == 8.5


@pytest.mark.parametrize("q_pm", [6, 7])
def test_normalize_pms_exhaustive_pairs(q_pm):
    cap = (1 << q_pm) - 1
    vals = np.arange(0, (1 << q_pm) + 40, 7)  # into the saturating range
    x, y = (v.ravel() for v in np.meshgrid(vals, vals, indexing="ij"))
    # each row of a (pairs, 2) batch normalizes against its own minimum
    got = domain(q_pm=q_pm).pm_normalize(np.stack([x, y], axis=1))
    lo = np.minimum(x, y)
    for i in range(len(x)):
        assert got[i, 0] == min(x[i] - lo[i], cap)
        assert got[i, 1] == min(y[i] - lo[i], cap)


def test_normalize_keeps_argmin_and_zero():
    rng = np.random.default_rng(0)
    pms = rng.integers(0, 300, (200, 8))
    out = domain(q_pm=6).pm_normalize(pms)
    assert (out.min(axis=1) == 0).all()
    assert np.array_equal(np.argmin(out, axis=1), np.argmin(pms, axis=1))
    for row, src in zip(out, pms):
        # order among unsaturated values is preserved
        keep = row < 63
        assert np.array_equal(np.argsort(row[keep], kind="stable"),
                              np.argsort(src[keep], kind="stable"))
    # in float, normalization is the identity
    assert FloatDomain.pm_normalize(pms) is pms


def test_saturate_llr_range_and_idempotence():
    m6 = llr_max(6)
    assert m6 == 31
    assert llr_max(7) == 63
    # g with a zero second operand is the stage's saturation alone
    d6, d7 = domain(q_i=6), domain(q_i=7)
    x = np.array([-100, -32, -31, 0, 31, 32, 100])
    s = d6.g(x, 0, 1, 0)
    assert np.array_equal(s, [-31, -31, -31, 0, 31, 31, 31])
    assert np.array_equal(d6.g(s, 0, 1, 0), s)
    assert np.array_equal(d6.f(x, 100, 0), s)
    # widening never changes a value
    assert np.array_equal(d7.g(s, 0, 1, 0), s)


def test_hard_decision_convention():
    llr = np.array([-2, -1, 0, 1, 2])
    assert np.array_equal(QuantDomain.hd(llr), [1, 1, 0, 0, 0])
    assert np.array_equal(FloatDomain.hd(llr.astype(float)), [1, 1, 0, 0, 0])


def test_quantize_channel_llr_rounding():
    def channel(x, scale):
        dom = QuantDomain(QuantProfile(q_c=6, channel_scale=scale), 4)
        return dom.channel(np.asarray(x))

    # round to nearest, ties away from zero, then saturate
    got = channel([0.49, 0.5, -0.5, -0.49, 2.4, -2.6], 1.0)
    assert np.array_equal(got, [0, 1, -1, 0, 2, -3])
    got = channel([0.74, 0.76, 100.0, -100.0], 0.5)
    assert np.array_equal(got, [1, 2, 31, -31])
    # scale divides: one step equals `scale` in LLR units
    x = np.linspace(-20, 20, 401)
    for scale in (0.5, 0.75, 1.0):
        want = np.sign(x) * np.floor(np.abs(x) / scale + 0.5)
        want = np.clip(want, -31, 31)
        assert np.array_equal(channel(x, scale), want)


def test_quant_profile_stage_widths():
    q = QuantProfile(q_c=6, q_i=6, q_i_overrides=((0, 7),))
    n = 11
    assert q.width_for_stage(11, n) == 6  # channel stage
    assert q.width_for_stage(0, n) == 7   # override
    assert q.width_for_stage(5, n) == 6
    with pytest.raises(ValueError):
        QuantProfile(q_c=3)
    # one profile serves every n, so stages above a code's n are kept
    assert QuantProfile(q_i_overrides=((20, 7),)).width_for_stage(5, 11) == 6
    for overrides in (((0, 7), (0, 9)), ((-1, 7),), ((1.5, 7),)):
        with pytest.raises(ValueError, match="q_i_overrides needs distinct"):
            QuantProfile(q_i_overrides=overrides)
    # int() would truncate these to valid widths
    for field, value in (("q_c", 6.5), ("q_i", 6.5), ("q_sort", 7.5),
                         ("q_pm", 6.0), ("q_i_overrides", ((0, 7.5),))):
        with pytest.raises(ValueError, match="%s must be an integer" % field):
            QuantProfile(**{field: value})


def test_domains_share_kernel_semantics():
    """The quantized domain at huge widths degenerates to float results."""
    rng = np.random.default_rng(1)
    fd = FloatDomain(10)
    qd = QuantDomain(QuantProfile(q_c=6, q_i=6), 10)
    a = rng.integers(-20, 21, 50)
    b = rng.integers(-20, 21, 50)
    assert np.array_equal(qd.f(a, b, 4), fd.f(a.astype(float), b.astype(float), 4))
    # both signs, so that a zeroed b cannot pass unnoticed
    for sign in (signs(np.zeros(50)), signs(np.ones(50)),
                 signs(rng.integers(0, 2, 50))):
        g_int = qd.g(a, b, sign, 4)
        g_flt = fd.g(a.astype(float), b.astype(float), sign, 4)
        assert np.array_equal(g_int, np.clip(g_flt, -31, 31))
        assert np.array_equal(g_flt, np.where(sign < 0, a - b, a + b))


def test_llr_dtype_follows_the_widest_llr_word():
    """LLRs are int16 while every LLR width of the code is at most 15
    bits, and int32 once one is 16; the channel bank takes that dtype."""
    for widths, want in (({}, np.int16),
                         ({"q_c": 15, "q_i": 15}, np.int16),
                         ({"q_i_overrides": ((9, 16),)}, np.int16),
                         ({"q_c": 16}, np.int32),
                         ({"q_i": 16}, np.int32),
                         ({"q_i_overrides": ((3, 16),)}, np.int32)):
        dom = QuantDomain(QuantProfile(**widths), 6)
        assert dom.llr_dtype == want, widths
        assert dom.channel(np.array([0.5, -90.0])).dtype == want, widths


def test_kernels_at_width_15_saturation_corners():
    """At width 15, g's unsaturated sum of two magnitudes of 16383 still
    fits int16: f and g on the int16 corners equal int64 arithmetic."""
    dom = QuantDomain(QuantProfile(q_c=15, q_i=15), 1)
    m = llr_max(15)
    corners = np.array([-m, -m + 1, -1, 0, 1, m - 1, m], dtype=np.int64)
    a, b = (x.ravel() for x in np.meshgrid(corners, corners, indexing="ij"))
    a16, b16 = a.astype(dom.llr_dtype), b.astype(dom.llr_dtype)
    assert a16.dtype == np.int16
    for s in (0, 1):
        got = dom.g(a16, b16, signs(np.full(len(a), s)), 0)
        assert got.dtype == np.int16
        assert np.array_equal(got, np.clip(a + (-b if s else b), -m, m))
    got = dom.f(a16, b16, 0)
    assert got.dtype == np.int16
    assert np.array_equal(got, np.sign(a) * np.sign(b)
                          * np.minimum(np.abs(a), np.abs(b)))


def sign_where_f(a, b, m):
    """The min-sum f as np.sign products, clamped: the oracle for f."""
    out = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return np.maximum(np.minimum(out, m), -m)


def sign_where_g(a, b, s, m):
    """g as np.where on the partial sums, clamped: the oracle for g."""
    out = a + np.where(np.asarray(s) != 0, -b, b)
    return np.maximum(np.minimum(out, m), -m)


@pytest.mark.parametrize("dtype", [np.int16, np.int32])
def test_kernels_match_the_sign_and_where_oracle_on_engine_shapes(dtype):
    """f and g equal the np.sign / np.where formulas on the operands the
    engine passes, with g given the partial sums as signs and the oracle
    given them as bits, and keep the dtype of array operands (g takes
    numpy's promotion of a wider sign array). A 16-bit channel word makes
    the LLR dtype int32, whose clamp bounds are int32 scalars."""
    for q_c in (7, 16):
        dom = QuantDomain(
            QuantProfile(q_c=q_c, q_i=6, q_i_overrides=((2, 7),)), 4)
        assert dom.llr_dtype == (np.int32 if q_c > 15 else np.int16)
        check_engine_shapes(dom, dtype)


def check_engine_shapes(dom, dtype):
    rng = np.random.default_rng(7)
    U, h = 6, 4

    def llrs(*shape):
        return rng.integers(-63, 64, shape).astype(dtype)

    def bits(*shape):
        return rng.integers(0, 2, shape)

    vals, wide = llrs(U, 2 * h), llrs(U, 4 * h)
    table, bank, rows, add = (bits(1, 1 << h, h), bits(U, 2 * h), bits(3, h),
                              bits(U, 2 * h))
    per_path = bits(U, h)
    cases = [
        # the leaf tables' broadcast against every left-half pattern
        (vals[:, None, h:], vals[:, None, :h], table, signs(table)),
        # strided views of a bank, and of a partial-sum bank
        (wide[:, 1::4], wide[:, 3::4], bank[:, ::2], signs(bank)[:, ::2]),
        (wide[::2, :h], wide[1::2, h:2 * h], rows, signs(rows)),
        # the rate-0 pass's scalar s, and Python-int b as in saturation tests
        (vals[:, :h], vals[:, h:], 0, 1),
        (vals[:, :h], vals[:, h:], 1, -1),
        (vals, 0, 0, 1),
        (vals, 50, add, signs(add)),
        # partial sums as int8, int16 and int64 signs
        (vals[:, :h], vals[:, h:], per_path, signs(per_path)),
        (vals[:, :h], vals[:, h:], per_path, signs(per_path, np.int16)),
        (vals[:, :h], vals[:, h:], per_path, signs(per_path, np.int64)),
    ]
    for a, b, u, s in cases:
        for stage in (0, 2, 4):
            m = llr_max(dom.widths[stage])
            got_f, got_g = dom.f(a, b, stage), dom.g(a, b, s, stage)
            assert np.array_equal(got_f, sign_where_f(a, b, m))
            assert np.array_equal(got_g, sign_where_g(a, b, u, m))
            if isinstance(b, np.ndarray):
                assert got_f.dtype == dtype
                assert got_g.dtype == np.result_type(dtype, s)


def test_clip_kernel_is_a_ufunc():
    """f and g clamp with the ``clip`` ufunc resolved at import (numpy 2 and
    1.x keep it in different modules), not with the np.clip wrapper."""
    assert isinstance(qarith._clip, np.ufunc)
    x = np.array([-9, -3, 0, 3, 9], dtype=np.int16)
    assert qarith._clip(x, np.int16(-4), np.int16(4), out=x) is x
    assert np.array_equal(x, [-4, -3, 0, 3, 4]) and x.dtype == np.int16


def broadcast_children(dom, pm, llr):
    """The former child-metric step: each metric plus max(-llr, 0) for bit
    0 and max(llr, 0) for bit 1, from a broadcast multiply by the signs."""
    pens = np.maximum(np.asarray(llr)[:, None]
                      * np.array([-1, 1], dtype=np.int8), 0)
    return dom.pm_add(np.asarray(pm)[:, None], pens)


@pytest.mark.parametrize("q_sort", [4, 7])
def test_pm_split_matches_the_broadcast_form_at_the_cap(q_sort):
    """Quantized: every metric from 0 past the q_sort cap against every
    LLR of the stage width, so children at, one under and one over the cap
    all occur."""
    dom = domain(q_i=6, q_sort=q_sort)
    cap = dom.pm_cap_sort
    m = llr_max(6)
    pm, llr = (x.ravel() for x in np.meshgrid(
        np.arange(0, cap + 2, dtype=np.int64),
        np.arange(-m, m + 1).astype(dom.llr_dtype), indexing="ij"))
    got = dom.pm_split(pm, llr)
    want = broadcast_children(dom, pm, llr)
    assert got.shape == (len(pm), 2) and got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert got.max() == cap and (got == cap - 1).any()


def test_pm_split_matches_the_broadcast_form_in_float():
    """Float: signed zeros, and LLRs so small against the metric that the
    sum rounds back to the metric, give the broadcast form's values."""
    tiny = np.finfo(float).eps / 8
    llr = np.array([0.0, -0.0, 1.5, -1.5, tiny, -tiny, 1e-300, -1e-300,
                    5e-324, -5e-324])
    for base in (0.0, 1.0, 3.25e6):
        pm = np.full(len(llr), base)
        got = FloatDomain.pm_split(pm, llr)
        want = broadcast_children(FloatDomain, pm, llr)
        assert np.array_equal(got, want)
        assert not np.signbit(got).any()
        if base:
            # below one ulp of the metric, both children keep the metric
            assert (got[4:] == base).all()
