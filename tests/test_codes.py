import re

import numpy as np
import pytest

from polarscl import codes
from polarscl.codes import (
    CRC_POLYNOMIALS, MAX_BLOCK_LOG, CrcSpec, ParityCheckSpec,
    bhattacharyya_profile, build_message, construct_code, crc_attach,
    crc_check, crc_check_rows, encode, extract_info, gaussian_approx_profile,
    good_bit_set, load_code_spec, polar_transform, save_code_spec,
)


def kron_generator(n):
    """n-fold Kronecker power of [[1,0],[1,1]], the explicit generator."""
    g = np.array([[1]], dtype=np.uint8)
    f = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    for _ in range(n):
        g = np.kron(g, f)
    return g


def crc_remainder_slow(bits, crc):
    # Long division of bits * x^width by the generator, bit by bit; the
    # init word is folded into the leading message bits first.
    msg = list(int(b) for b in bits)
    for i in range(min(crc.width, len(msg))):
        msg[i] ^= (crc.init >> (crc.width - 1 - i)) & 1
    reg = msg + [0] * crc.width
    g = [1] + [(crc.polynomial >> (crc.width - 1 - i)) & 1
               for i in range(crc.width)]
    for i in range(len(msg)):
        if reg[i]:
            for j, gj in enumerate(g):
                reg[i + j] ^= gj
    return np.array(reg[len(msg):], dtype=np.uint8)


def test_polar_transform_matches_generator_matrix():
    """u G for every N from 1 to 2^15, on rows, 2-D and 3-D batches, views
    in any memory layout, bools and lists; the result is a fresh uint8
    array. Up to N = 256 the reference is the explicit generator, beyond it
    the Kronecker step u G_N = [(u_a ^ u_b) G_{N/2}, u_b G_{N/2}] on the
    halves, whose transform the previous N checked."""
    rng = np.random.default_rng(0)
    for n in range(MAX_BLOCK_LOG + 1):
        N = 1 << n
        u = rng.integers(0, 2, (2, 3, N)).astype(np.uint8)
        if n <= 8:
            want = u.astype(np.int64) @ kron_generator(n) % 2
        else:
            a, b = u[..., :N // 2], u[..., N // 2:]
            want = np.concatenate([polar_transform(a ^ b), polar_transform(b)],
                                  axis=-1)
        cases = [
            (u, want), (u[1], want[1]), (u[0, 2], want[0, 2]),
            (np.asfortranarray(u), want), (np.asfortranarray(u[0]), want[0]),
            (u.T.copy().T, want),
            (u.swapaxes(0, 1).copy().swapaxes(0, 1), want),
            (u[..., ::-1].copy()[..., ::-1], want),
            (u[:, ::-1][:, ::2], want[:, ::-1][:, ::2]),
            (u.astype(bool), want), (u.astype(np.int64), want),
        ]
        for x, w in cases:
            got = polar_transform(x)
            assert got.dtype == np.uint8 and got.flags.c_contiguous, N
            assert np.array_equal(got, w), (N, x.shape, x.strides)
            assert not np.shares_memory(got, x)
        assert np.array_equal(polar_transform(u[0, 0].tolist()), want[0, 0])
    for bad in ([0, 2, 1, 0], [0, -1], np.array([[1, 0], [0, 255]]),
                np.array([0.0, 1.0])):
        with pytest.raises(ValueError, match="bits"):
            polar_transform(bad)


def test_polar_transform_hand_case():
    # u = [0,1,0,1] -> rows 1 and 3 of F^{x2}: [1,1,0,0] ^ [1,1,1,1]
    assert np.array_equal(polar_transform([0, 1, 0, 1]), [0, 0, 1, 1])


def test_polar_transform_is_involution():
    rng = np.random.default_rng(1)
    u = rng.integers(0, 2, 256).astype(np.uint8)
    assert np.array_equal(polar_transform(polar_transform(u)), u)


def test_bhattacharyya_channel_ordering():
    """The erasure upper bound degrades toward bit 0 and improves toward
    bit N-1; the all-ones/all-zeros extremes are exact."""
    z = bhattacharyya_profile(64, erasure_prob=0.5)
    assert z[0] == max(z)
    assert z[-1] == min(z)
    # z_0 after n levels of z' = 2z - z^2 starting at 0.5
    zz = 0.5
    for _ in range(6):
        zz = 2 * zz - zz * zz
    assert z[0] == pytest.approx(zz)


def test_construct_frozen_count_and_known_n8():
    spec = construct_code(8, 4, method="bhattacharyya", design_param=0.5)
    assert int(spec.frozen_mask.sum()) == 4
    # the classic N=8,k=4 information set
    assert np.array_equal(np.flatnonzero(~spec.frozen_mask), [3, 5, 6, 7])
    spec_ga = construct_code(8, 4, method="gaussian_approx", design_param=2.0)
    assert np.array_equal(spec_ga.frozen_mask, spec.frozen_mask)


def test_construct_validation():
    with pytest.raises(ValueError):
        construct_code(100, 50)  # not a power of two
    with pytest.raises(ValueError):
        construct_code(64, 65)
    with pytest.raises(ValueError):
        construct_code(64, 0)


def test_gaussian_approx_monotone_in_design_snr():
    # a stronger channel can only shrink the frozen set's reliability gap;
    # the selected info set stays sorted by the same metric
    m = gaussian_approx_profile(128, design_snr_db=1.0)
    assert np.all(np.asarray(m) >= 0)
    spec = construct_code(128, 64, method="gaussian_approx", design_param=1.0)
    assert int((~spec.frozen_mask).sum()) == 64


def _phi_inv_full(y):
    """The bisection inverse of _phi without its early exit: 200 steps."""
    if y >= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    while codes._phi(hi) > y:
        hi *= 2.0
        if hi > 1e9:
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if codes._phi(mid) > y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_phi_inv_early_exit_is_bit_identical(monkeypatch):
    rng = np.random.default_rng(12)
    for y in np.concatenate([10.0 ** -rng.uniform(0, 300, 500),
                             rng.uniform(0, 1, 500), [0.0, 1.0, 1.5]]):
        assert codes._phi_inv(float(y)) == _phi_inv_full(float(y))
    for snr in (0.0, 2.5):
        for N in (2, 64, 1024, 4096):
            fast = gaussian_approx_profile(N, snr).tobytes()
            with monkeypatch.context() as m:
                m.setattr(codes, "_phi_inv", _phi_inv_full)
                full = gaussian_approx_profile(N, snr).tobytes()
            assert fast == full, (snr, N)


@pytest.mark.parametrize("snr", [float("nan"), float("inf"), -float("inf")])
def test_gaussian_approx_rejects_non_finite_design_snr(snr):
    with pytest.raises(ValueError, match="design Es/N0 must be finite"):
        gaussian_approx_profile(64, snr)
    with pytest.raises(ValueError, match="design Es/N0 must be finite"):
        construct_code(64, 32, method="gaussian_approx", design_param=snr)


def test_layout_without_payload_is_rejected():
    with pytest.raises(ValueError, match="leave no payload position"):
        construct_code(64, 8, crc=CrcSpec(8))
    base = construct_code(64, 10, crc=CrcSpec(8))
    first, second = (int(p) for p in base.nonfrozen_positions[:2])
    with pytest.raises(ValueError, match="leave no payload position"):
        construct_code(64, 10, crc=CrcSpec(8),
                       pc=ParityCheckSpec([(first, []), (second, [first])]))
    assert construct_code(64, 9, crc=CrcSpec(8)).payload_len == 1


def test_external_sequence_construction(tmp_path):
    # reliability sequence listing indices from least to most reliable
    rng = np.random.default_rng(3)
    order = rng.permutation(32)
    spec = construct_code(32, 12, method="external_sequence",
                          sequence=order.tolist())
    # the k most reliable = last 12 entries of the sequence
    assert set(np.flatnonzero(~spec.frozen_mask)) == set(order[-12:])


def test_crc_attach_check_roundtrip():
    rng = np.random.default_rng(4)
    for width in (8, 11, 16, 24):
        crc = CrcSpec(width)
        bits = rng.integers(0, 2, 40).astype(np.uint8)
        coded = crc_attach(bits, crc)
        assert crc_check(coded, crc)
        flip = coded.copy()
        flip[rng.integers(0, len(flip))] ^= 1
        assert not crc_check(flip, crc)


def test_crc_remainder_against_long_division():
    rng = np.random.default_rng(5)
    for width in (8, 11, 16, 24):
        for init in (0, 0x5A):
            crc = CrcSpec(width, init=init)
            for length in (1, 7, 24, 53, 2024):
                bits = rng.integers(0, 2, length).astype(np.uint8)
                want = crc_remainder_slow(bits, crc)
                got = crc_attach(bits, crc)[length:]
                assert np.array_equal(got, want), (width, init, length)


def test_crc24_known_answer():
    # CRC-24/LTE-A (0x864CFB, init 0): "123456789" -> 0xCDE703
    msg = np.unpackbits(np.frombuffer(b"123456789", dtype=np.uint8))
    rem = crc_attach(msg, CrcSpec(24))[-24:]
    value = int("".join(map(str, rem)), 2)
    assert value == 0xCDE703


def test_crc_check_rows_matches_serial():
    rng = np.random.default_rng(6)
    crc = CrcSpec(24)
    rows = rng.integers(0, 2, (200, 64)).astype(np.uint8)
    # make some rows valid
    for i in range(0, 200, 3):
        rows[i] = crc_attach(rows[i, :40], crc)
    want = np.array([crc_check(r, crc) for r in rows])
    assert np.array_equal(crc_check_rows(rows, crc), want)
    assert want.any() and not want.all()


def test_build_message_layout():
    rng = np.random.default_rng(7)
    crc = CrcSpec(8)
    spec = construct_code(64, 24, method="bhattacharyya", design_param=0.5,
                          crc=crc)
    assert spec.payload_len == 16
    payload = rng.integers(0, 2, 16).astype(np.uint8)
    u = build_message(payload, spec)
    assert np.all(u[spec.frozen_mask] == 0)
    assert np.array_equal(u[spec.payload_positions], payload)
    # nonfrozen content is payload followed by its CRC, in position order
    seq = u[~spec.frozen_mask]
    assert crc_check(seq, crc)
    assert np.array_equal(extract_info(u, spec), payload)


def test_build_message_rows_equal_one_at_a_time():
    """A (count, payload_len) array of payloads gives the messages that
    each row gives alone, with CRC bits and parity constraints."""
    base = construct_code(64, 32, method="bhattacharyya", design_param=0.5,
                          crc=CrcSpec(8))
    nf = base.nonfrozen_positions
    pc = ParityCheckSpec([(int(nf[6]), (int(nf[1]), int(nf[4]))),
                          (int(nf[11]), (int(nf[0]), int(nf[6]))),
                          (int(nf[13]), ())])
    rng = np.random.default_rng(10)
    for spec in (base, construct_code(64, 32, method="bhattacharyya",
                                      design_param=0.5, pc=pc),
                 construct_code(64, 32, method="bhattacharyya",
                                design_param=0.5, crc=CrcSpec(8), pc=pc)):
        payloads = rng.integers(0, 2, (5, spec.payload_len)).astype(np.uint8)
        got = build_message(payloads, spec)
        assert got.shape == (5, 64) and got.dtype == np.uint8
        for row, payload in zip(got, payloads):
            assert np.array_equal(row, build_message(payload, spec))
        assert build_message(payloads[:0], spec).shape == (0, 64)
        with pytest.raises(ValueError, match="payload must have length"):
            build_message(payloads[:, 1:], spec)
        with pytest.raises(ValueError, match="payload must have length"):
            build_message(payloads[None], spec)


def test_parity_check_attachment():
    base = construct_code(32, 16, method="bhattacharyya", design_param=0.5)
    nf = np.flatnonzero(~base.frozen_mask)
    # two parity targets fed by earlier non-frozen bits
    p1, p2 = int(nf[5]), int(nf[12])
    pc = ParityCheckSpec([(p1, (int(nf[1]), int(nf[3]))),
                          (p2, (int(nf[0]), int(nf[7]), int(nf[9])))])
    spec = construct_code(32, 16, method="bhattacharyya", design_param=0.5,
                          pc=pc)
    rng = np.random.default_rng(8)
    payload = rng.integers(0, 2, spec.payload_len).astype(np.uint8)
    u = build_message(payload, spec)
    assert u[p1] == u[nf[1]] ^ u[nf[3]]
    assert u[p2] == u[nf[0]] ^ u[nf[7]] ^ u[nf[9]]


def test_encode_is_transform_of_message():
    rng = np.random.default_rng(9)
    spec = construct_code(128, 64, method="bhattacharyya", design_param=0.5)
    payload = rng.integers(0, 2, spec.payload_len).astype(np.uint8)
    assert np.array_equal(encode(payload, spec),
                          polar_transform(build_message(payload, spec)))


def test_good_bit_set_threshold():
    spec = construct_code(256, 128, method="bhattacharyya", design_param=0.5,
                          good_threshold=1e-6)
    reliability = -bhattacharyya_profile(256, 0.5)
    good = good_bit_set(spec, reliability, 1e-6)
    assert np.array_equal(good, spec.good_mask)
    assert not spec.good_mask[spec.frozen_mask].any()
    # tighter threshold can only shrink the set
    tighter = good_bit_set(spec, reliability, 1e-9)
    assert set(np.flatnonzero(tighter)) <= set(np.flatnonzero(good))


def test_spec_file_roundtrip(tmp_path):
    order = np.random.default_rng(5).permutation(64)
    for spec in (
            construct_code(64, 32, method="bhattacharyya", design_param=0.4,
                           crc=CrcSpec(11), good_threshold=1e-5,
                           pc=ParityCheckSpec([(30, (7, 9))])),
            construct_code(64, 40, method="external_sequence",
                           sequence=order.tolist(), crc=CrcSpec(8),
                           good_threshold=0.25)):
        path = tmp_path / "code.spec"
        save_code_spec(spec, str(path))
        back = load_code_spec(str(path))
        assert back.N == spec.N and back.k == spec.k
        assert np.array_equal(back.frozen_mask, spec.frozen_mask)
        assert np.array_equal(back.good_mask, spec.good_mask)
        assert back.crc == spec.crc
        assert (back.pc and back.pc.constraints) == (spec.pc and spec.pc.constraints)
        assert back.rate() == spec.rate()
        assert (back.method, back.design_param) == (spec.method, spec.design_param)
        assert np.array_equal(back.sequence, spec.sequence)
        again = tmp_path / "again.spec"
        save_code_spec(back, str(again))
        assert again.read_bytes() == path.read_bytes()
    assert np.array_equal(back.sequence, order)


def test_loading_a_spec_reruns_no_construction(tmp_path, monkeypatch):
    path = tmp_path / "ga.spec"
    spec = construct_code(256, 128, method="gaussian_approx", design_param=1.5,
                          good_threshold=0.5)
    save_code_spec(spec, str(path))

    def refuse(*args):
        raise AssertionError("construction rerun")
    monkeypatch.setattr(codes, "gaussian_approx_profile", refuse)
    monkeypatch.setattr(codes, "bhattacharyya_profile", refuse)
    back = load_code_spec(str(path))
    assert np.array_equal(back.frozen_mask, spec.frozen_mask)
    assert np.array_equal(back.good_mask, spec.good_mask)
    assert back.design_param == 1.5
    # the method is provenance: a spec without its design_param still loads
    path.write_text("N = 16\nk = 8\nmethod = gaussian_approx\n"
                    "frozen = 0 1 2 3 4 5 6 8\n")
    assert load_code_spec(str(path)).design_param is None


@pytest.mark.parametrize("lines, message", [
    ("frozen = 0 1 2 3 4 5 6 6\nk = 8", "frozen: index 6 listed twice"),
    ("frozen = -1 0 1 2 3 4 5 6\nk = 8", r"frozen: index -1 outside 0\.\.15"),
    ("frozen = 0 1 2 3 4 5 6 16\nk = 8", r"frozen: index 16 outside 0\.\.15"),
    ("frozen = 0 1 2 3 4 5 6 7\nk = 8\ngood = 12 16",
     r"good: index 16 outside 0\.\.15"),
    ("frozen = 0 1 2 3 4 5 6 7\nk = 8\ngood = 12 12", "good: index 12 listed twice"),
    ("frozen = 0 1 2 3 4 5 6 7\nk = 9", "k = 9, but the frozen list leaves 8"),
    ("frozen = 0 1 2 3 4 5 6 x\nk = 8", "frozen: invalid literal"),
    ("frozen = 0 1 2 3 4 5 6 7", "missing required key 'k'"),
], ids=["repeat", "negative", "past-N", "good-past-N", "good-repeat",
        "k-mismatch", "non-integer", "missing-k"])
def test_load_code_spec_rejects_bad_layouts(tmp_path, lines, message):
    path = tmp_path / "bad.spec"
    path.write_text("N = 16\nmethod = manual\n" + lines + "\n")
    with pytest.raises(ValueError, match="^%s: %s" % (re.escape(str(path)),
                                                       message)):
        load_code_spec(str(path))


def test_parity_positions_must_lie_inside_the_code():
    frozen = np.arange(16) < 8
    for pos in (16, 99, -1):
        with pytest.raises(ValueError, match=r"parity positions must lie in 0\.\.15"):
            codes.CodeSpec(16, frozen, pc=ParityCheckSpec([(pos, [])]))
