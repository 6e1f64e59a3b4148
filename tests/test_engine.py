import hashlib
import warnings

import numpy as np
import pytest

from polarscl import engine, reference
from polarscl.codes import (
    CrcSpec, ParityCheckSpec, build_message, construct_code, polar_transform,
)
from polarscl.config import load_config
from polarscl.engine import (
    FREE, FROZEN, GOOD, BatchResult, _prune_order, decode,
    decode_batch, llr_memory_summary, profile_for, schedule_trace,
    split_and_select,
)
from polarscl.qarith import FloatDomain, QuantDomain, QuantProfile, llr_max


def noisy_llrs(spec, rng, sigma=0.8):
    payload = rng.integers(0, 2, spec.payload_len).astype(np.uint8)
    x = 1.0 - 2.0 * polar_transform(build_message(payload, spec))
    y = x + rng.normal(0.0, sigma, spec.N)
    return payload, 2.0 * y / (sigma * sigma)


def test_noiseless_roundtrip_all_profiles():
    rng = np.random.default_rng(0)
    for kind, L in (("sc", 1), ("flexible", 8), ("ultra", 32)):
        spec = construct_code(512, 256, method="bhattacharyya",
                              design_param=0.5)
        payload = rng.integers(0, 2, spec.payload_len).astype(np.uint8)
        llr = np.where(polar_transform(build_message(payload, spec)) > 0,
                       -7.0, 7.0)
        prof = profile_for(kind) if kind == "ultra" else \
            profile_for(kind, n_max_log=14)
        for arith in ("float", "quantized"):
            res = decode(llr, spec, prof, L=L, arithmetic=arith)
            assert np.array_equal(res.info_hat, payload), (kind, arith)


def test_sc_matches_reference_sc():
    rng = np.random.default_rng(1)
    spec = construct_code(128, 64, method="bhattacharyya", design_param=0.5)
    prof = profile_for("sc")
    for _ in range(25):
        _, llr = noisy_llrs(spec, rng)
        res = decode(llr, spec, prof, L=1, arithmetic="float")
        want = reference.sc_decode(llr, spec.frozen_mask)
        assert np.array_equal(res.u_hat, want)


@pytest.mark.parametrize("arith", ["float", "quantized"])
def test_scl_matches_bit_serial_reference(arith):
    rng = np.random.default_rng(2)
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", selection="best_pm", n_max_log=14)
    dom = FloatDomain(6) if arith == "float" else \
        QuantDomain(prof.quant, 6)
    for _ in range(20):
        _, llr = noisy_llrs(spec, rng)
        y = llr if dom.is_float else dom.channel(llr)
        res = decode(llr, spec, prof, L=8, arithmetic=arith)
        ref_u, ref_survivors, ref_pm = reference.scl_reference(
            y, spec, 8, domain=dom)
        assert np.array_equal(res.u_hat, ref_u)
        assert np.array_equal(np.sort(res.survivors_pm),
                              np.sort(ref_pm))


def test_crc_aided_selection_prefers_passing_path():
    """When the best-metric path fails CRC but another survivor passes,
    CRC-aided selection must pick the passing one."""
    rng = np.random.default_rng(3)
    spec = construct_code(128, 64, method="bhattacharyya", design_param=0.5,
                          crc=CrcSpec(8))
    prof_pm = profile_for("flexible", selection="best_pm", n_max_log=14)
    prof_ca = profile_for("flexible", n_max_log=14)  # crc_aided
    llrs = np.stack([noisy_llrs(spec, rng, sigma=1.1)[1] for _ in range(400)])
    a = decode_batch(llrs, spec, prof_pm, L=8, arithmetic="float")
    b = decode_batch(llrs, spec, prof_ca, L=8, arithmetic="float")
    hits = 0
    for i in range(len(llrs)):
        if a.crc_pass[i] or not a.survivors_crc[i].any():
            # no disagreement possible on this frame
            assert np.array_equal(a.u_hat[i], b.u_hat[i])
        else:
            hits += 1
            assert b.crc_pass[i]
            assert b.pm[i] >= a.pm[i]  # paid metric for the CRC constraint
    assert hits > 0  # the interesting branch actually occurred


def test_exhaustive_ml_oracle_small_code():
    """With L covering every message, best-metric SCL is maximum likelihood."""
    rng = np.random.default_rng(4)
    spec = construct_code(8, 4, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", selection="best_pm", l_max=16,
                       n_max_log=14)
    for _ in range(200):
        _, llr = noisy_llrs(spec, rng, sigma=1.0)
        res = decode(llr, spec, prof, L=16, arithmetic="float")
        ml_u, ml_pm = reference.ml_decode(llr, spec)
        assert np.array_equal(res.u_hat, ml_u)
        assert res.pm == pytest.approx(ml_pm)


def test_split_and_select_single_free_leaf():
    # two paths, one free bit: four candidates, keep best two
    out = split_and_select(np.array([0.0, 1.0]),
                           np.array([[3.0], [-2.0]]),
                           [FREE], 2)
    # path0 bit0 keeps pm 0; path0 bit1 costs 3; path1 bit1 keeps 1;
    # path1 bit0 costs 2 -> survivors (p0,b0) and (p1,b1), in parent order
    assert np.array_equal(out["parent"], [0, 1])
    assert np.array_equal(out["bits"].ravel(), [0, 1])
    assert out["candidates"] == 4
    assert out["sorted"] == 1
    assert np.array_equal(out["pm"], [0.0, 1.0])  # no penalty either side


def test_split_and_select_no_sort_until_full():
    # a single path with two free bits fans out to 4 <= L: no pruning
    out = split_and_select(np.array([0.0]), np.array([[2.0, 1.0]]),
                           [FREE, FREE], 4)
    assert out["sorted"] == 0
    assert out["candidates"] == 4
    assert len(out["parent"]) == 4


def test_split_and_select_counts_one_sort_per_overfull_split():
    # one path, 4 free bits, L=2: splits 2,3,4 each start at or above the
    # cap, so three pruning sorts run
    out = split_and_select(np.array([0.0]),
                           np.array([[4.0, 3.0, 2.0, 1.0]]),
                           [FREE] * 4, 2)
    assert out["sorted"] == 3
    assert len(out["parent"]) == 2


def test_split_and_select_frozen_and_good():
    """The width-2 block vector [5,-3] gives leaf LLRs via the kernels:
    leaf0 = f(5,-3) = -3 (frozen 0 pays 3), then with partial sum 0
    leaf1 = -3 + 5 = 2 (good leaf hard-decides 0, no split, no charge)."""
    out = split_and_select(np.array([0.0]), np.array([[5.0, -3.0]]),
                           [FROZEN, GOOD], 4)
    assert len(out["parent"]) == 1
    assert np.array_equal(out["bits"][0], [0, 0])
    assert out["pm"][0] == pytest.approx(3.0)
    assert out["sorted"] == 0


def leaf_llr_from_block(vec, bits, dom):
    """LLR of leaf len(bits) inside a width-W block vector, derived with
    the domain's own f/g kernels and the partial sums of prior leaves."""
    v = np.asarray(vec)
    bits = list(bits)
    t = len(v).bit_length() - 1
    while len(v) > 1:
        h = len(v) // 2
        t -= 1
        if len(bits) < h:
            v = dom.f(v[h:], v[:h], t)
        else:
            s = polar_transform(np.array(bits[:h], dtype=np.uint8))
            v = dom.g(v[h:], v[:h], 1 - 2 * s.astype(np.int8), t)
            bits = bits[h:]
    return v[0]


def serial_chain(pms, vec, kinds, L, dom):
    """W sequential one-bit expansions over the same block vector."""
    P, W = vec.shape
    parent = np.arange(P)
    bit_lists = [[] for _ in range(P)]
    pm = np.asarray(pms, dtype=dom.pm_dtype)
    for j in range(W):
        leaf = np.array([leaf_llr_from_block(vec[parent[i]], bit_lists[i], dom)
                         for i in range(len(parent))], dtype=dom.llr_dtype)
        res = split_and_select(pm, leaf[:, None], [kinds[j]], L, domain=dom)
        parent = parent[res["parent"]]
        bit_lists = [bit_lists[p] + [int(b)]
                     for p, b in zip(res["parent"], res["bits"][:, 0])]
        pm = res["pm"]
    return parent, np.array(bit_lists, dtype=np.uint8), pm


def test_split_and_select_matches_bit_serial_chain():
    """Interleaved multi-bit expansion == W sequential one-bit expansions."""
    rng = np.random.default_rng(5)
    dom = FloatDomain()
    for _ in range(300):
        P = rng.choice([1, 2, 4, 8])
        W = rng.choice([2, 4, 8])
        L = rng.choice([2, 4, 8])
        pms = np.round(rng.uniform(0, 8, P), 3)
        vec = np.round(rng.normal(0, 3, (P, W)), 3)
        kinds = rng.choice([FREE, FROZEN, GOOD], W,
                           p=[0.6, 0.2, 0.2]).astype(np.uint8)
        got = split_and_select(pms, vec, kinds, L)
        parent, bits, pm = serial_chain(pms, vec, kinds, L, dom)
        assert np.array_equal(got["parent"], parent)
        assert np.array_equal(got["bits"], bits)
        assert np.allclose(got["pm"], pm)


@pytest.mark.parametrize("W", [1, 2, 4, 8])
@pytest.mark.parametrize("arith", ["quantized", "float"])
def test_llr_tables_hold_each_leaf_under_each_prefix(W, arith):
    """Leaf-major: the block goes in as (W, rows), leaf j's table is a
    C-contiguous (2^j, rows), and entry [p, r] is leaf j of row r's block
    after the MSB-first prefix p, recomputed bit-serially."""
    rng = np.random.default_rng(W)
    rows = 3
    if arith == "float":
        dom = FloatDomain(4)
        vals = np.round(rng.normal(0, 3, (W, rows)), 3)
    else:
        dom = QuantDomain(profile_for("ultra").quant, 4)
        vals = rng.integers(-31, 32, (W, rows)).astype(dom.llr_dtype)
    leaves = engine._llr_tensor(vals, W.bit_length() - 1, dom)
    assert len(leaves) == W
    for j, table in enumerate(leaves):
        assert table.shape == (1 << j, rows)
        assert table.flags.c_contiguous
        for r in range(rows):
            for p in range(1 << j):
                prefix = [(p >> (j - 1 - i)) & 1 for i in range(j)]
                assert table[p, r] == leaf_llr_from_block(vals[:, r], prefix,
                                                          dom)


def test_split_and_select_one_survivor_from_several_paths():
    """L_target=1 with P entry paths on one free leaf keeps the minimum of
    all 2P candidates, ties to the lowest parent and then to bit 0 (only a
    single entry path per frame may prune by comparing its two children)."""
    rng = np.random.default_rng(11)
    for dom in (FloatDomain(), QuantDomain(QuantProfile(q_sort=4), 4)):
        for _ in range(200):
            P = int(rng.choice([1, 2, 4, 8]))
            if dom.is_float:
                pms = rng.integers(0, 3, P).astype(float)
                vec = rng.integers(-2, 3, (P, 1)).astype(float)
            else:
                pms = rng.integers(10, 16, P)      # near the cap of 15
                vec = rng.integers(-3, 4, (P, 1))
            got = split_and_select(pms, vec, [FREE], 1, domain=dom)
            hd = vec[:, 0] < 0
            cand = np.stack([dom.pm_add(pms, np.where(hd, np.abs(vec[:, 0]), 0)),
                             dom.pm_add(pms, np.where(hd, 0, np.abs(vec[:, 0])))],
                            axis=1)
            best = int(np.argmin(cand.ravel()))
            assert got["parent"].tolist() == [best // 2]
            assert got["pattern"].tolist() == [best % 2]
            assert got["pm"].tolist() == [cand.ravel()[best]]
            assert got["sorted"] == 1 and got["candidates"] == 2 * P


def packed_prune_order(parent, value, pm, L, frame, pm_cap=None):
    """The pruning order this engine used before positional pruning: a
    (frame, metric, parent, pattern) sort, then the kept candidates
    re-indexed by (parent, pattern)."""
    F = int(frame[-1]) + 1
    if pm_cap is not None:
        pspan = int(parent[-1]) + 1
        vspan = int(value.max()) + 1
        assert F * (pm_cap + 1) * pspan * vspan <= (1 << 62)
        key = ((frame * (pm_cap + 1) + pm) * pspan + parent) * vspan + value
        perm = np.argsort(key, kind="stable")
    else:
        perm = np.lexsort((value, parent, pm, frame))
    sel = perm.reshape(F, -1)[:, :L].ravel()
    return sel[np.lexsort((value[sel], parent[sel]))]


def test_prune_order_matches_packed_key_sort():
    """Candidates in frame-major (parent, pattern) order, 2L per frame:
    one stable sort per frame keeps the same survivors, in the same order,
    as sorting on (frame, metric, parent, pattern) and re-indexing."""
    rng = np.random.default_rng(13)
    cap = 127
    for _ in range(400):
        F = int(rng.integers(1, 9))
        L = int(rng.choice([1, 2, 4, 8, 16, 32]))
        parent = np.repeat(np.arange(F * L), 2)
        base = np.sort(rng.integers(0, 64, (F * L, 1)), axis=0)
        value = (base * 2 + [0, 1]).ravel()
        frame = parent // L
        if rng.random() < 0.5:
            pm = np.minimum(rng.integers(cap - 6, cap + 6, 2 * F * L), cap)
            want = packed_prune_order(parent, value, pm, L, frame, cap)
        else:
            pm = rng.integers(0, 4, 2 * F * L) * 0.5
            want = packed_prune_order(parent, value, pm, L, frame)
        assert np.array_equal(_prune_order(pm, L, F), want)


def test_width_16_decode_matches_wide_reference():
    """A [quant] setting of 16 bits keeps LLRs in int32: g at the
    saturation corners (+/-32767 each) overflows int16. The decode equals
    the bit-serial reference run entirely in int64."""
    cfg = load_config(overrides=[
        "code.N=64", "code.k=32", "code.method=bhattacharyya",
        "code.design_param=0.5", "code.crc_width=0", "quant.q_c=16",
        "quant.q_i=16", "quant.channel_scale=0.0001"])
    spec, prof = cfg.build_spec(), cfg.build_profile()
    rng = np.random.default_rng(16)
    llrs = np.stack([noisy_llrs(spec, rng, sigma=1.2)[1] for _ in range(3)])
    res = decode_batch(llrs, spec, prof, L=8)
    wide = QuantDomain(prof.quant, spec.n)
    assert wide.llr_dtype == np.int32
    wide.llr_dtype = np.int64
    for i in range(3):
        chan = wide.channel(llrs[i])
        assert np.abs(chan).max() == 32767
        u, paths, pm = reference.scl_reference(chan, spec, 8, domain=wide,
                                               selection=prof.selection)
        assert np.array_equal(res.u_hat[i], u)
        assert np.array_equal(res.survivors_u[i], paths)
        assert np.array_equal(res.survivors_pm[i], pm)


def test_sc_tie_rule_at_the_metric_cap():
    """At L=1 the metric is never normalized, so on a noisy N=1024 frame it
    saturates at the q_sort cap; from then on a free bit with a negative
    LLR ties (both children at the cap) and decodes as 0, the bit-serial
    stable-sort choice. The decisions are pinned to a digest recorded
    before L=1 pruning became a comparison."""
    spec = construct_code(1024, 512, method="gaussian_approx", design_param=2.0)
    rng = np.random.default_rng(3)
    llrs = np.stack([noisy_llrs(spec, rng)[1] for _ in range(3)])
    prof = profile_for("sc")
    res = decode_batch(llrs, spec, prof)
    dom = QuantDomain(prof.quant, spec.n)
    assert res.pm.tolist() == [dom.pm_cap_sort] * 3 == [127] * 3
    for i in range(3):
        u, _paths, _pm = reference.scl_reference(dom.channel(llrs[i]), spec, 1,
                                                 domain=dom)
        assert np.array_equal(res.u_hat[i], u)
    digest = hashlib.sha256(np.packbits(res.u_hat).tobytes()).hexdigest()
    assert digest[:16] == "170598baea13076b"


def test_leaf_width_above_the_limit_is_rejected():
    with pytest.raises(ValueError, match="leaf width 16 exceeds the limit of 8"):
        split_and_select(np.zeros(1), np.ones((1, 16)), [FREE] * 16, 4)
    with pytest.raises(ValueError, match="leaf width 16 exceeds the limit of 8"):
        profile_for("flexible", leaf_width=16, n_max_log=14)


def pc_good_code(N):
    """The schedule-trace grid's second code kind: a CRC8, two parity
    constraints and good bits."""
    crc = CrcSpec(8)
    base = construct_code(N, N // 2, "bhattacharyya", 0.5, crc=crc)
    targets = base.nonfrozen_positions[:N // 2 - crc.width][-2:]
    pc = ParityCheckSpec([(int(p), sorted({0, int(p) // 2})) for p in targets])
    return construct_code(N, N // 2, "bhattacharyya", 0.5, crc=crc, pc=pc,
                          good_threshold=0.3)


def clone_counters(kind, L, leaf_width, N, crc, **overrides):
    """crc is a CRC width (0 for none), or "pc+good" for pc_good_code."""
    rng = np.random.default_rng(N + L)
    if crc == "pc+good":
        spec = pc_good_code(N)
    else:
        spec = construct_code(N, N // 2, method="bhattacharyya",
                              design_param=0.5, crc=CrcSpec(crc) if crc else None)
    llrs = np.stack([noisy_llrs(spec, rng)[1] for _ in range(2)])
    prof = profile_for(kind, leaf_width=leaf_width, **overrides)
    stats = decode_batch(llrs, spec, prof, L=L).stats
    return (stats["clone_events"], stats["llr_element_copies"],
            stats["ps_element_copies"])


@pytest.mark.parametrize("kind, L, leaf_width, N, crc, want", [
    ("flexible", 8, 4, 256, 8, (99, 7128, 16876)),
    ("ultra", 32, 2, 128, 0, (385, 6160, 37566)),
    ("flexible", 8, 8, 128, 8, (62, 4464, 5712)),
    ("sc", 1, 1, 256, 0, (0, 0, 0)),
])
def test_clone_counters_pinned(kind, L, leaf_width, N, crc, want):
    """Clone events and the element copies that physically copying each
    clone's banks costs, pinned to values from a decoder that made those
    copies (two noisy frames per batch)."""
    assert clone_counters(kind, L, leaf_width, N, crc) == want


@pytest.mark.parametrize("kind, L, leaf_width, N, crc, stride, want", [
    ("flexible", 8, 4, 256, 8, 1, (99, 24948, 16876)),
    ("flexible", 8, 4, 256, 8, 4, (99, 1584, 16876)),
    ("ultra", 32, 2, 128, 0, 2, (385, 32340, 37566)),
    ("flexible", 8, 4, 128, "pc+good", 1, (90, 11160, 8856)),
    ("flexible", 8, 4, 128, "pc+good", 2, (90, 7560, 8856)),
    ("flexible", 8, 4, 128, "pc+good", 3, (90, 6480, 8856)),
    ("flexible", 8, 4, 128, "pc+good", 4, (90, 1440, 8856)),
    ("ultra", 32, 2, 128, "pc+good", 2, (355, 29820, 34810)),
    ("ultra", 32, 2, 128, "pc+good", 4, (355, 5680, 34810)),
])
def test_clone_counters_pinned_at_other_strides(kind, L, leaf_width, N, crc,
                                                stride, want):
    """The LLR copies count the stages the strided layout keeps, whatever
    banks the software holds: pinned to values from a decoder that kept
    only those stages."""
    assert clone_counters(kind, L, leaf_width, N, crc,
                          storage_stride=stride) == want


def test_recover_matches_reference_decisions():
    """u recovered from each path's root partial sums equals the decisions
    the bit-serial reference stores directly, for every survivor."""
    rng = np.random.default_rng(6)
    for kind, L in (("sc", 1), ("flexible", 8), ("ultra", 32)):
        prof = profile_for(kind) if kind == "ultra" else \
            profile_for(kind, n_max_log=14)
        for _ in range(15):
            n = int(rng.integers(3, 10))
            spec = construct_code(1 << n, 1 << (n - 1),
                                  method="bhattacharyya", design_param=0.5)
            _, llr = noisy_llrs(spec, rng)
            a = decode(llr, spec, prof, L=L, arithmetic="quantized")
            dom = QuantDomain(prof.quant, n)
            _u, paths, _pm = reference.scl_reference(
                dom.channel(llr), spec, L, domain=dom)
            assert np.array_equal(a.survivors_u, paths), (kind, n)


@pytest.mark.parametrize("rows", [1, 3, 8])
@pytest.mark.parametrize("arith", ["quantized", "float"])
def test_rate0_pass_matches_a_leaf_by_leaf_walk(arith, rows):
    """A rate-0 subtree of stage t gives int8 +1 partial sums and, for each
    leaf j, the penalty of deciding 0 on the LLR a bit-serial walk reaches
    after j zeros; pm_fold of them is the serial sum (float's left fold)."""
    rng = np.random.default_rng(rows)
    if arith == "float":
        dom = FloatDomain(6)
    else:
        dom = QuantDomain(profile_for("ultra").quant, 6)
    for t in range(7):
        if arith == "float":
            vals = np.round(rng.normal(0, 4, (rows, 1 << t)), 3)
            pm = np.round(rng.uniform(0, 8, rows), 3)
        else:
            # The stage-t word's saturation corners, plus small values.
            m = llr_max(dom.widths[t])
            vals = rng.choice([-m, 1 - m, -1, 0, 1, m - 1, m],
                              (rows, 1 << t)).astype(dom.llr_dtype)
            pm = rng.integers(0, dom.pm_cap_sort + 1, rows)
        beta, pens = engine._forced_eval(vals, "rate0", t, dom)
        assert beta.dtype == np.int8 and beta.shape == (rows, 1 << t)
        assert (beta == 1).all()
        assert pens.shape == (rows, 1 << t)
        want = np.zeros(pens.shape, dtype=pens.dtype)
        serial = np.array(pm, dtype=dom.pm_dtype)
        for r in range(rows):
            for j in range(1 << t):
                llr = leaf_llr_from_block(vals[r], [0] * j, dom)
                want[r, j] = dom.pen(llr) if llr < 0 else 0
                serial[r] = dom.pm_add(serial[r], want[r, j])
        assert np.array_equal(pens, want), t
        assert np.array_equal(dom.pm_fold(pm, pens), serial), t


@pytest.mark.parametrize("L", [1, 8])
def test_rate1_zero_llr_fallback_matches_reference(monkeypatch, L):
    """Rate-1 subtrees whose node vector holds a zero LLR take the
    leaf-by-leaf recursion; small integer channel LLRs make those common."""
    calls = [0]
    serial = engine._forced_eval_serial

    def counted(*args):
        calls[0] += 1
        return serial(*args)
    monkeypatch.setattr(engine, "_forced_eval_serial", counted)
    spec = construct_code(64, 40, "bhattacharyya", 0.5, good_threshold=1.0)
    prof = profile_for("flexible")
    dom = QuantDomain(prof.quant, spec.n)
    llrs = np.random.default_rng(11).integers(-2, 3, (16, spec.N))
    res = decode_batch(llrs, spec, prof, L=L)
    assert calls[0] > 0
    for y, u, paths, pm in zip(llrs, res.u_hat, res.survivors_u,
                               res.survivors_pm):
        ref_u, ref_paths, ref_pm = reference.scl_reference(y, spec, L,
                                                           domain=dom)
        assert np.array_equal(u, ref_u)
        assert np.array_equal(paths, ref_paths)
        assert np.array_equal(pm, ref_pm)


@pytest.mark.parametrize("profile", ["sc", "flexible"])
def test_every_bank_written_is_read(monkeypatch, profile):
    """The decode writes an LLR or partial-sum bank only if a later step
    reads it before it is replaced or the decode ends."""
    unread, stale = set(), []
    write, read = engine.PathStore.write, engine.PathStore.read

    def tracked_write(self, kind, t, vals):
        if (kind, t) in unread:
            stale.append((kind, t))
        unread.add((kind, t))
        return write(self, kind, t, vals)

    def tracked_read(self, kind, t, rows):
        unread.discard((kind, t))
        return read(self, kind, t, rows)
    monkeypatch.setattr(engine.PathStore, "write", tracked_write)
    monkeypatch.setattr(engine.PathStore, "read", tracked_read)
    spec = construct_code(256, 128, "bhattacharyya", 0.5, crc=CrcSpec(8))
    _, llr = noisy_llrs(spec, np.random.default_rng(12))
    decode(llr, spec, profile)
    assert not stale and not unread, (stale, sorted(unread))


@pytest.mark.parametrize("profile, N", [("flexible", 128), ("ultra", 256)])
def test_every_partial_sum_bank_holds_int8_signs(monkeypatch, profile, N):
    """Partial sums are +1 for bit 0 and -1 for bit 1, one byte each, in
    every bank a decode writes: leaf blocks, rate-0 and rate-1 nodes (and
    the rate-1 recursion that small integer LLRs send zeros into), parity
    and good leaves, and the cascade above them."""
    banks = []
    write = engine.PathStore.write

    def tracked_write(self, kind, t, vals):
        if kind == "ps":
            banks.append(vals)
        return write(self, kind, t, vals)
    monkeypatch.setattr(engine.PathStore, "write", tracked_write)
    spec = (pc_good_code(N) if profile == "flexible" else
            construct_code(N, N // 2, "gaussian_approx", 2.0))
    rng = np.random.default_rng(N)
    noisy = np.stack([noisy_llrs(spec, rng)[1] for _ in range(2)])
    small = rng.integers(-2, 3, (2, spec.N))
    for llrs, arith in ((noisy, "quantized"), (noisy, "float"),
                        (small, "quantized")):
        decode_batch(llrs, spec, profile, arithmetic=arith)
    assert banks
    for vals in banks:
        assert vals.dtype == np.int8
        assert np.isin(vals, (-1, 1)).all()


def test_pattern_sums_are_the_signs_of_the_pattern_transforms():
    for W in (1, 2, 4, 8):
        sums = engine._pattern_sums(W)
        want = 1 - 2 * polar_transform(engine._pattern_tables(W)).astype(int)
        assert sums.dtype == np.int8 and np.array_equal(sums, want)
        assert not sums.flags.writeable


@pytest.mark.parametrize("case", ["zero", "negative_zero", "metric_cap"])
def test_split_and_select_matches_bit_serial_chain_at_signed_edges(case):
    """The signed split (bit 0 pays max(-llr, 0), bit 1 max(llr, 0))
    against W one-bit expansions: at zero LLRs, at -0.0 in float, and with
    quantized metrics at the q_sort cap, where children tie."""
    rng = np.random.default_rng(len(case))
    for _ in range(150):
        P = int(rng.choice([1, 2, 4, 8]))
        W = int(rng.choice([1, 2, 4, 8]))
        L = int(rng.choice([1, 2, 4, 8]))
        kinds = rng.choice([FREE, FROZEN, GOOD], W,
                           p=[0.6, 0.2, 0.2]).astype(np.uint8)
        if case == "metric_cap":
            dom = QuantDomain(QuantProfile(q_sort=4), 4)
            pms = rng.integers(12, 16, P)           # the cap is 15
            vec = rng.integers(-3, 4, (P, W)).astype(dom.llr_dtype)
        else:
            dom = FloatDomain()
            pms = rng.integers(0, 3, P).astype(float)
            vec = rng.integers(-1, 2, (P, W)).astype(float)
            if case == "negative_zero":
                vec[vec == 0] = -0.0
        got = split_and_select(pms, vec, kinds, L, domain=dom)
        parent, bits, pm = serial_chain(pms, vec, kinds, L, dom)
        assert np.array_equal(got["parent"], parent)
        assert np.array_equal(got["bits"], bits)
        assert np.array_equal(got["pm"], pm)


class BroadcastSplit:
    """A domain whose child metrics come from the former broadcast multiply
    of each LLR by the signs (-1, 1); every other method is the wrapped
    domain's."""

    def __init__(self, dom):
        self.dom = dom

    def __getattr__(self, name):
        return getattr(self.dom, name)

    def pm_split(self, pm, llr):
        pens = np.maximum(llr[:, None] * np.array([-1, 1], dtype=np.int8), 0)
        return self.dom.pm_add(pm[:, None], pens)


@pytest.mark.parametrize("arith", ["quantized", "float"])
def test_split_and_select_unchanged_by_the_child_metric_kernel(arith):
    """split_and_select gives the same parents, bits and metrics with the
    one-pass child metrics as with the broadcast form, near the quantized
    metric cap and at signed zeros in float."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        P = int(rng.choice([1, 2, 4, 8]))
        W = int(rng.choice([1, 2, 4, 8]))
        L = int(rng.choice([1, 2, 4, 8]))
        kinds = rng.choice([FREE, FROZEN, GOOD], W,
                           p=[0.6, 0.2, 0.2]).astype(np.uint8)
        if arith == "quantized":
            dom = QuantDomain(QuantProfile(q_sort=5), 4)
            pms = rng.integers(20, 32, P)           # the cap is 31
            vec = rng.integers(-31, 32, (P, W))
        else:
            dom = FloatDomain()
            pms = rng.integers(0, 3, P).astype(float)
            vec = rng.integers(-2, 3, (P, W)) * 0.5
            vec[vec == 0] *= rng.choice([-1.0, 1.0], int((vec == 0).sum()))
        got = split_and_select(pms, vec, kinds, L, domain=dom)
        want = split_and_select(pms, vec, kinds, L, domain=BroadcastSplit(dom))
        for key in ("parent", "bits", "pattern", "pm", "sorted", "candidates"):
            assert np.array_equal(got[key], want[key]), key


def read_only_decodes(monkeypatch, spec, llrs):
    """Every profile and arithmetic decoding llrs, with each bank made
    read-only as it is written: a write into a bank that _rows returned
    without a copy raises instead of changing what another path reads."""
    write = engine.PathStore.write

    def frozen_write(self, kind, t, vals):
        vals.flags.writeable = False
        return write(self, kind, t, vals)
    out = {}
    for frozen in (False, True):
        if frozen:
            monkeypatch.setattr(engine.PathStore, "write", frozen_write)
        for profile in ("sc", "flexible", "ultra"):
            for arith in ("quantized", "float"):
                res = decode_batch(llrs, spec, profile, arithmetic=arith)
                out.setdefault((profile, arith), []).append(res)
    return out


@pytest.mark.parametrize("code", ["crc", "parity"])
def test_banks_read_without_a_copy_are_never_written(monkeypatch, code):
    spec = (construct_code(128, 64, "bhattacharyya", 0.5, crc=CrcSpec(8))
            if code == "crc" else pc_good_code(128))
    rng = np.random.default_rng(14)
    llrs = np.stack([noisy_llrs(spec, rng)[1] for _ in range(3)])
    for key, (plain, frozen) in read_only_decodes(monkeypatch, spec,
                                                  llrs).items():
        for field in ("u_hat", "survivors_u", "survivors_pm", "crc_pass",
                      "selected_path"):
            assert np.array_equal(getattr(plain, field),
                                  getattr(frozen, field)), (key, field)


def test_rows_returns_fresh_banks_and_gathers_after_a_clone():
    spec = construct_code(16, 8, "bhattacharyya", 0.5)
    dec = engine._ListDecoder(spec, profile_for("flexible"), 4,
                              FloatDomain(4), 1)
    chan = np.arange(16.0)[None]
    dec.store.write("llr", 4, chan)
    assert dec._rows("llr", 4) is chan
    dec._apply_parents(np.array([0, 0]), dec.steps[-1])
    got = dec._rows("llr", 4)
    assert got is not chan and np.array_equal(got, chan[[0, 0]])
    # a bank written after the clone holds the active rows again...
    bank = np.arange(16.0).reshape(2, 8)
    dec.store.write("llr", 3, bank)
    assert dec._rows("llr", 3) is bank
    # ...until the next clone, even one that keeps the row count
    dec._apply_parents(np.array([1, 1]), dec.steps[-1])
    got = dec._rows("llr", 3)
    assert got is not bank and np.array_equal(got, bank[[1, 1]])


def test_batch_equals_sequential():
    rng = np.random.default_rng(7)
    spec = construct_code(256, 128, method="bhattacharyya", design_param=0.5,
                          crc=CrcSpec(16))
    prof = profile_for("flexible", n_max_log=14)
    llrs = np.stack([noisy_llrs(spec, rng)[1] for _ in range(12)])
    br = decode_batch(llrs, spec, prof, L=8, arithmetic="quantized")
    for i in range(12):
        r = decode(llrs[i], spec, prof, L=8, arithmetic="quantized")
        assert np.array_equal(br.u_hat[i], r.u_hat)
        assert np.array_equal(br.survivors_pm[i], r.survivors_pm)
        assert br.selected_path[i] == r.selected_path
        assert br.crc_pass[i] == r.crc_pass


def test_decode_is_a_batch_of_one():
    """A one-row batch is a BatchResult, and a batch's trace is the trace
    of each of its frames (the schedule does not depend on the data)."""
    rng = np.random.default_rng(8)
    spec = construct_code(128, 64, method="bhattacharyya", design_param=0.5,
                          crc=CrcSpec(8))
    prof = profile_for("ultra")
    llrs = np.stack([noisy_llrs(spec, rng)[1] for _ in range(3)])
    one = decode_batch(llrs[:1], spec, prof, L=16, collect_trace=True)
    assert isinstance(one, BatchResult)
    assert one.u_hat.shape == (1, 128) and one.survivors_pm.shape == (1, 16)
    assert decode_batch(llrs[:1], spec, prof, L=16).trace is None
    many = decode_batch(llrs, spec, prof, L=16, collect_trace=True)
    for i in range(3):
        r = decode(llrs[i], spec, prof, L=16, collect_trace=True)
        assert many.trace.events == r.trace.events
        assert np.array_equal(many.u_hat[i], r.u_hat)
    assert one.trace.events == many.trace.events


@pytest.mark.parametrize("arith", ["float", "quantized"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_llrs_are_rejected(arith, bad):
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", n_max_log=14)
    llrs = np.ones((4, 64))
    llrs[2, 5] = bad
    llrs[3, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no cast warning on the way
        with pytest.raises(ValueError, match="frame 2: non-finite"):
            decode_batch(llrs, spec, prof, L=8, arithmetic=arith)
        with pytest.raises(ValueError, match="non-finite"):
            decode(llrs[3], spec, prof, L=8, arithmetic=arith)


def test_list_size_zero_is_rejected():
    """Only None stands for the profile's maximum list size; 0 is an
    invalid list size like any other."""
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    llrs = np.ones((1, 64))
    prof = profile_for("flexible")
    msg = "list size must be a power of two <= 8"
    with pytest.raises(ValueError, match=msg):
        decode_batch(llrs, spec, prof, L=0)
    with pytest.raises(ValueError, match=msg):
        schedule_trace(spec, prof, L=0)
    with pytest.raises(ValueError, match=msg):
        llr_memory_summary(6, prof, L=0)
    assert decode_batch(llrs, spec, prof).stats["list_size"] == 8
    assert llr_memory_summary(6, prof)["list_entries"] == \
        llr_memory_summary(6, prof, L=8)["list_entries"]


# (profile, N, k, CRC width, L, frames) -> (f/g output elements, stats)
FG_VOLUME = {
    ("ultra", 256, 128, 8, 32, 4): (185132, {
        "clone_events": 988, "llr_element_copies": 15808,
        "ps_element_copies": 174792, "list_size": 32}),
    ("flexible", 1024, 512, 24, 8, 16): (1335536, {
        "clone_events": 1759, "llr_element_copies": 1027256,
        "ps_element_copies": 1083780, "list_size": 8}),
    ("sc", 1024, 512, 0, 1, 8): (81920, {
        "clone_events": 0, "llr_element_copies": 0,
        "ps_element_copies": 0, "list_size": 1}),
    ("ultra", 2048, 1024, 8, 32, 2): (1129150, {
        "clone_events": 1199, "llr_element_copies": 326128,
        "ps_element_copies": 1589410, "list_size": 32}),
}


def test_fg_volume_and_stats_pinned(monkeypatch):
    """The f/g arithmetic of a decode is pinned element for element: a
    change to how paths store or share their banks must not add f or g
    work unseen. Counts are output elements of QuantDomain.f and .g; the
    values were recorded from the decoder that still merged equal LLR and
    partial-sum rows, which saved no f or g element."""
    count = [0]
    for name in ("f", "g"):
        kernel = getattr(QuantDomain, name)

        def counted(self, *args, kernel=kernel):
            out = kernel(self, *args)
            count[0] += out.size
            return out
        monkeypatch.setattr(QuantDomain, name, counted)
    for (kind, N, k, crc, L, F), (want_fg, want_stats) in FG_VOLUME.items():
        spec = construct_code(N, k, "bhattacharyya", 0.5,
                              crc=CrcSpec(crc) if crc else None)
        rng = np.random.default_rng(N + F)
        llrs = np.array([noisy_llrs(spec, rng)[1] for _ in range(F)])
        count[0] = 0
        res = decode_batch(llrs, spec, kind, L=L)
        assert (count[0], res.stats) == (want_fg, want_stats), (kind, N)


def test_memory_summary_stride3_formula():
    # stride 3 with 3 | n stores stages 0,3,6,...: exactly (N-1)/7 words
    prof = profile_for("flexible")
    for n in (6, 9, 12):
        m = llr_memory_summary(n, prof, L=8)
        assert m["per_path_entries"] == ((1 << n) - 1) // 7


def test_memory_summary_ultra_budget():
    m = llr_memory_summary(11, profile_for("ultra"), L=32)
    assert m["stored_stages"] == (0, 4, 8)
    assert m["per_path_entries"] == 273
    assert m["replica_entries"] == 4 * 32
    assert m["list_entries"] == 32 * 273 + 128
    assert m["ratio"] <= 0.14


def test_profile_rejects_unknown_selection_and_stride():
    with pytest.raises(ValueError, match="unknown selection 'bogus'"):
        profile_for("flexible", selection="bogus")
    with pytest.raises(ValueError, match="unknown selection 'parity_check'"):
        profile_for("ultra", selection="parity_check")
    assert profile_for("ultra").selection == "best_pm"
    with pytest.raises(ValueError, match="storage stride must be at least 1"):
        profile_for("sc", storage_stride=0)


def test_list_size_validation():
    spec = construct_code(64, 32, method="bhattacharyya", design_param=0.5)
    prof = profile_for("flexible", n_max_log=14)
    with pytest.raises(ValueError):
        decode(np.ones(64), spec, prof, L=3)
    with pytest.raises(ValueError):
        decode(np.ones(64), spec, prof, L=16)  # beyond l_max
    with pytest.raises(ValueError):
        decode(np.ones(32), spec, prof, L=8)  # llr length mismatch


@pytest.mark.parametrize("values, dtype", [
    (np.ones((1, 16)) + 0j, "complex128"),
    (np.ones((1, 16), dtype=object), "object"),
    (np.full((1, 16), "1.0"), "<U3"),
])
def test_decode_batch_rejects_non_real_dtypes(values, dtype):
    spec = construct_code(16, 8)
    with pytest.raises(ValueError, match="got dtype %s" % dtype):
        decode_batch(values, spec, "flexible", L=2)
    with pytest.raises(ValueError, match="got dtype %s" % dtype):
        decode(values[0], spec, "flexible", L=2)


def test_decode_batch_accepts_bool_as_zero_one_llrs():
    spec = construct_code(16, 8)
    bits = np.random.default_rng(2).integers(0, 2, (2, 16)).astype(bool)
    got = decode_batch(bits, spec, "flexible", L=2)
    want = decode_batch(bits.astype(float), spec, "flexible", L=2)
    assert np.array_equal(got.u_hat, want.u_hat)


def test_profile_rejects_bad_list_maximum_and_group():
    for l_max in (0, 3, 6):
        with pytest.raises(ValueError, match="l_max must be a power of two"):
            profile_for("flexible", l_max=l_max)
    with pytest.raises(ValueError, match="semi_parallel_group must be at least 1"):
        profile_for("ultra", semi_parallel_group=0)
