"""Property test: every decode path agrees with the bit-serial reference.

Hypothesis draws small codes (optional CRC, parity constraints, good bits)
and decoder settings (leaf width, storage stride, special-node cap,
selection, frozen-prefix skip, stage-5 replicas, arithmetic, list size),
and checks that ``decode``, each row of ``decode_batch`` and
``scl_reference`` reach the same decisions, survivors (in order), survivor
metrics and chosen path.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from polarscl import reference
from polarscl.codes import (
    CrcSpec, ParityCheckSpec, build_message, construct_code, polar_transform,
)
from polarscl.engine import decode, decode_batch, profile_for
from polarscl.qarith import FloatDomain, QuantDomain

FRAMES = 2


@st.composite
def codes(draw):
    # Hypothesis favours the first choice of a sampled_from, so each list
    # starts with the value that exercises the most machinery.
    n = draw(st.sampled_from([5, 6, 4, 7, 3, 2, 1]))
    N = 1 << n
    crc = CrcSpec(8) if N >= 16 and draw(st.booleans()) else None
    width = crc.width if crc is not None else 0
    rate = draw(st.sampled_from([0.5, 0.25, 0.75, 1.0, 0.0]))
    k = min(max(round(rate * N) + draw(st.integers(-2, 2)), width + 1), N)
    eps = draw(st.sampled_from([0.3, 0.5, 0.7]))
    base = construct_code(N, k, "bhattacharyya", eps, crc=crc)
    # Parity targets: non-frozen, non-CRC positions, leaving one payload bit.
    targets = base.nonfrozen_positions[:k - width]
    chosen = draw(st.lists(st.sampled_from(targets.tolist()), unique=True,
                           max_size=min(3, len(targets) - 1)))
    pc = None
    if chosen:
        pc = ParityCheckSpec([
            (p, draw(st.lists(st.integers(0, p - 1), unique=True, max_size=3))
             if p else ()) for p in chosen])
    good = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return construct_code(N, k, "bhattacharyya", eps, crc=crc, pc=pc,
                          good_threshold=good)


@st.composite
def decoders(draw):
    kind = draw(st.sampled_from(["flexible", "ultra", "sc"]))
    profile = profile_for(
        kind,
        leaf_width=draw(st.sampled_from([4, 2, 8, 1])),
        storage_stride=draw(st.integers(1, 4)),
        max_special_node=draw(st.sampled_from([4, 32, 0])),
        selection=draw(st.sampled_from(["crc_aided", "best_pm"])),
        skip_frozen_prefix=draw(st.booleans()),
        stage5_replicas=draw(st.sampled_from([0, 4])),
    )
    L = profile.l_max >> draw(st.integers(0, profile.l_max.bit_length() - 1))
    arithmetic = draw(st.sampled_from(["quantized", "float"]))
    return profile, L, arithmetic


@settings(max_examples=75, deadline=None, derandomize=True, database=None)
@given(spec=codes(), dec=decoders(), seed=st.integers(0, 2 ** 32 - 1),
       sigma=st.sampled_from([0.5, 0.9, 1.3]))
# Degenerate codes: N=2, k=N (also with a CRC) and one information bit.
@example(spec=construct_code(2, 1), dec=(profile_for("flexible"), 2,
                                         "quantized"), seed=0, sigma=0.9)
@example(spec=construct_code(2, 2), dec=(profile_for("ultra"), 4, "float"),
         seed=1, sigma=0.9)
@example(spec=construct_code(16, 16, crc=CrcSpec(8)),
         dec=(profile_for("flexible"), 8, "quantized"),
         seed=2, sigma=1.3)
@example(spec=construct_code(64, 1), dec=(profile_for("sc"), 1, "float"),
         seed=3, sigma=1.3)
def test_decode_paths_match_scl_reference(spec, dec, seed, sigma):
    profile, L, arithmetic = dec
    rng = np.random.default_rng(seed)
    payloads = rng.integers(0, 2, (FRAMES, spec.payload_len))
    x = np.array([1.0 - 2.0 * polar_transform(build_message(p, spec))
                  for p in payloads])
    llrs = 2.0 * (x + rng.normal(0.0, sigma, x.shape)) / sigma ** 2
    dom = FloatDomain(spec.n) if arithmetic == "float" else \
        QuantDomain(profile.quant, spec.n)
    batch = decode_batch(llrs, spec, profile, L=L, arithmetic=arithmetic)
    for i, llr in enumerate(llrs):
        one = decode(llr, spec, profile, L=L, arithmetic=arithmetic)
        ref_u, ref_paths, ref_pm = reference.scl_reference(
            dom.channel(llr), spec, L, domain=dom,
            selection=profile.selection)
        assert np.array_equal(one.u_hat, ref_u)
        assert np.array_equal(batch.u_hat[i], ref_u)
        # Survivors are numbered like the bit-serial decoder's paths, so
        # paths and metrics match in order, not only as sets.
        assert np.array_equal(one.survivors_u, ref_paths)
        assert np.array_equal(batch.survivors_u[i], ref_paths)
        assert np.array_equal(one.survivors_pm, ref_pm)
        assert np.array_equal(batch.survivors_pm[i], ref_pm)
        assert np.array_equal(ref_paths[one.selected_path], ref_u)
        assert one.selected_path == batch.selected_path[i]
        assert one.pm == batch.pm[i] == ref_pm[one.selected_path]
