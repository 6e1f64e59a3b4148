"""Successive-cancellation list decoding with the modeled datapath tricks.

The decoder walks the code tree in natural order, keeping up to L candidate
paths. Four architectural mechanisms are modeled bit-accurately:

  * strided LLR storage: only every ``storage_stride``-th stage keeps a
    bank per path, and the hardware recomputes the stages between from the
    nearest stored ancestor (the channel bank is shared by all paths). That
    changes no value, so the software keeps every stage and computes each
    node once; the stride shows only in the cycle trace (``schedule_trace``),
    ``llr_memory_summary`` and the LLR copy counters;
  * address-map path cloning: every bank holds one row per active path
    (the channel, at stage n, one row per frame), and each path reaches
    its row of every stage through an address map, so surviving a pruning
    sort gathers map rows instead of copying bank words; the element
    counters report what copying the banks of each clone would have cost,
    read from the plan's per-step word masks;
  * multi-bit leaf decisions: ``leaf_width`` leaves are decided per step
    from tables of each leaf's LLR under every decided prefix, splitting
    and pruning leaf by leaf. Candidates stay in (parent, pattern) order,
    so a candidate's position is its serial path index, a stable sort of
    the metrics breaks ties exactly like the serial decoder, and sorting
    the kept positions restores the order. The tables and the rate-0
    passes are leaf-major, (leaf, path row): each f/g runs along the path
    axis, as the hardware runs all paths in lockstep, where numpy's g took
    2.5 ns per element against 7.6-10.2 on inner axes of 1-2 (2 vCPUs);
  * decision recovery from partial sums: decoded bits are never stored per
    path during the walk. Partial sums are int8 signs (+1 for bit 0, -1 for
    bit 1), so g adds b times the sign and the cascade multiplies them; the
    last step's cascade ends in each path's root partial sums, the signs of
    u G, and the transform (its own inverse) of their bits is u.

Frozen-prefix skipping and rate-0 / rate-1 subtree shortcuts evaluate the
same f/g recursion with forced decisions, so they change the schedule (and
the cycle count) but never the arithmetic.
"""

import functools
import weakref
from dataclasses import dataclass, replace

import numpy as np

from .codes import crc_check_rows, crc_sequence, polar_transform
from .cycles import DecodeTrace
from .qarith import FloatDomain, QuantDomain, QuantProfile

FREE, FROZEN, GOOD, PARITY = 0, 1, 2, 3

# A leaf block's LLR tables grow as 2^W, so blocks stop at 8 leaves.
MAX_LEAF_WIDTH = 8

# Final path selection: lowest metric, or lowest among CRC-passing paths.
SELECTIONS = ("best_pm", "crc_aided")


# -- decoder profiles ----------------------------------------------------------

@dataclass(frozen=True)
class DecoderProfile:
    """Static configuration of one decoder variant."""
    kind: str
    l_max: int
    n_max_log: int
    quant: QuantProfile
    storage_stride: int = 1
    leaf_width: int = 1
    max_special_node: int = 0
    skip_frozen_prefix: bool = True
    selection: str = "best_pm"
    semi_parallel_stages: tuple = ()
    semi_parallel_group: int = 4
    stage5_replicas: int = 0

    def __post_init__(self):
        if self.l_max < 1 or self.l_max & (self.l_max - 1):
            raise ValueError("l_max must be a power of two, got %r"
                             % (self.l_max,))
        if self.semi_parallel_group < 1:
            raise ValueError("semi_parallel_group must be at least 1, got %r"
                             % (self.semi_parallel_group,))
        if self.selection not in SELECTIONS:
            raise ValueError("unknown selection %r (have: %s)"
                             % (self.selection, ", ".join(SELECTIONS)))
        if self.storage_stride < 1:
            raise ValueError("storage stride must be at least 1")
        lw = self.leaf_width
        if lw < 1 or lw & (lw - 1):
            raise ValueError("leaf width must be a power of two")
        if lw > MAX_LEAF_WIDTH:
            raise ValueError("leaf width %d exceeds the limit of %d"
                             % (lw, MAX_LEAF_WIDTH))
        if self.max_special_node < 0:
            raise ValueError("max special node must not be negative")
        if self.stage5_replicas < 0:
            raise ValueError("stage 5 replicas must not be negative")


_PROFILES = {
    # Single-path decoder for very long blocks.
    "sc": dict(
        kind="sc", l_max=1, n_max_log=15,
        quant=QuantProfile(q_c=6, q_i=7, q_sort=7, q_pm=6,
                           channel_scale=0.75),
        storage_stride=3, leaf_width=1, max_special_node=32,
    ),
    # Rate/length-flexible list decoder, CRC-aided, two-frame capable.
    "flexible": dict(
        kind="flexible", l_max=8, n_max_log=14,
        quant=QuantProfile(q_c=6, q_i=6, q_sort=7, q_pm=6,
                           channel_scale=0.75),
        storage_stride=3, leaf_width=4, max_special_node=32,
        selection="crc_aided",
    ),
    # Large-list decoder for short ultra-reliable blocks.
    "ultra": dict(
        kind="ultra", l_max=32, n_max_log=11,
        quant=QuantProfile(q_c=6, q_i=6, q_i_overrides=((0, 7),),
                           q_sort=7, q_pm=6, channel_scale=0.75),
        storage_stride=4, leaf_width=2, max_special_node=4,
        semi_parallel_stages=(4, 3),
        semi_parallel_group=4, stage5_replicas=4,
    ),
}


def profile_for(kind, **overrides):
    """A built-in decoder profile ('sc', 'flexible', 'ultra'), optionally
    with individual fields overridden."""
    try:
        base = _PROFILES[kind]
    except KeyError:
        raise ValueError("unknown decoder profile %r (have: %s)"
                         % (kind, ", ".join(sorted(_PROFILES)))) from None
    return replace(DecoderProfile(**base), **overrides)


def _list_size(profile, L):
    """L checked against the profile; None stands for the profile's
    maximum."""
    if L is None:
        return profile.l_max
    if L < 1 or L & (L - 1) or L > profile.l_max:
        raise ValueError("list size must be a power of two <= %d" % profile.l_max)
    return L


def llr_memory_summary(n, profile, L=None):
    """Per-list LLR storage of the strided layout vs. keeping every stage.

    Counts LLR words only (the shared channel bank is identical in both
    layouts and excluded). Recompute replica banks for stage 5 count once,
    not per path.
    """
    L = _list_size(profile, L)
    stride = profile.storage_stride
    stored = tuple(t for t in range(n) if t % stride == 0)
    per_path = sum(1 << t for t in stored)
    replica = 0
    if profile.stage5_replicas and n > 5 and 5 % stride != 0:
        replica = profile.stage5_replicas * 32
    full = (1 << n) - 1
    return {
        "stored_stages": stored,
        "per_path_entries": per_path,
        "replica_entries": replica,
        "list_entries": L * per_path + replica,
        "full_entries": L * full,
        "ratio": (L * per_path + replica) / (L * full),
    }


# -- per-path bank store -------------------------------------------------------

class PathStore:
    """Per-stage LLR / partial-sum banks of every path, behind address maps.

    Stages run from 0 to n; the stage-n LLR bank is the channel, and the
    partial-sum banks hold int8 signs (+1 for bit 0, -1 for bit 1). Every
    write replaces the stage-t bank of the first len(vals) paths at once: it
    stores one row per path as a fresh array, and a path's address is its
    row in that array (column t of the kind's map). Cloning copies no bank
    contents: ``reassign`` is one gather of both maps, after which a clone
    and its parent share the rows of every bank written so far (Tal and
    Vardy's lazy copy). Until the next ``reassign``, every path's address
    in a bank written since is its own row, so ``fresh`` holds those banks.
    """

    def __init__(self, n, rows):
        self.banks = {}
        self.fresh = set()
        self.maps = np.zeros((rows, 2, n + 1), dtype=np.int64)
        self.map = {"llr": self.maps[:, 0], "ps": self.maps[:, 1]}

    def read(self, kind, t, rows):
        """The stage-t bank of a kind ('llr' or 'ps') and the row of each of
        the first ``rows`` paths in it: (bank, path -> bank row)."""
        return self.banks[(kind, t)], self.map[kind][:rows, t]

    def write(self, kind, t, vals):
        """Replace the stage-t bank; row i of vals belongs to path i."""
        self.banks[(kind, t)] = vals
        self.fresh.add((kind, t))
        self.map[kind][:len(vals), t] = np.arange(len(vals))

    def reassign(self, parents):
        """Survivor i inherits the banks of path parents[i] (clone step)."""
        self.maps[:len(parents)] = self.maps[parents]
        self.fresh.clear()


# -- static schedule -----------------------------------------------------------

@dataclass
class Step:
    """One step of the schedule, at node v of stage t: a leaf block (kind
    'block', its 2^t leaves decided at once) or a subtree decided by forced
    decisions (kind 'rate0' / 'rate1'). Its ``chain`` holds the nodes the
    walk enters on the way to it, so no node is in two steps' chains."""
    kind: str
    t: int
    v: int
    acc_updates: list        # (constraint idx, source offsets inside this span)
    is_prefix: bool = False  # the skipped all-frozen head of the schedule
    kinds: np.ndarray = None     # block: the kind of each leaf
    parity_leaves: dict = None   # block: leaf offset -> (constraint idx, earlier source offsets)
    free: int = 0            # block: free leaves, each doubles the paths
    src: int = 0             # stage read first: the first node's parent, or the channel (n)
    chain: tuple = ()        # (t, v) nodes evaluated (f for even v, g for odd), top down
    llr_words: int = 0       # bit s: this or an earlier chain wrote LLR stage s
    ps_words: int = 0        # bit s: an earlier step wrote partial-sum stage s


def _build_plan(spec, profile):
    n, N = spec.n, spec.N
    w = min(int(profile.leaf_width).bit_length() - 1, n)
    kinds = np.full(N, FREE, dtype=np.uint8)
    kinds[spec.frozen_mask] = FROZEN
    kinds[spec.good_mask] = GOOD
    cons = list(spec.pc.constraints) if spec.pc is not None else []
    for p, _src in cons:
        kinds[p] = PARITY

    def span_updates(start, width, with_parity_leaves):
        ups, leaves = [], {}
        for ci, (p, srcs) in enumerate(cons):
            offs = np.array([s - start for s in srcs if start <= s < start + width],
                            dtype=np.intp)
            if len(offs):
                ups.append((ci, offs))
            if with_parity_leaves and start <= p < start + width:
                pre = np.array([s - start for s in srcs if start <= s < p],
                               dtype=np.intp)
                leaves[p - start] = (ci, pre)
        return ups, leaves

    # The walk never goes below the leaf blocks of stage w, so every node
    # class comes from one reduction per stage from w up, and the walk
    # itself reads Python lists only.
    blocks = kinds.reshape(-1, 1 << w)
    free = (blocks == FREE).sum(axis=1).tolist()
    frozen, good = {}, {}
    fz, gd = (blocks == FROZEN).all(axis=1), (blocks == GOOD).all(axis=1)
    for t in range(w, n + 1):
        frozen[t], good[t] = fz.tolist(), gd.tolist()
        fz, gd = fz[0::2] & fz[1::2], gd[0::2] & gd[1::2]

    steps, chain = [], []
    llr_words = ps_words = 0
    # Depth-first in natural leaf order, on an explicit stack: a recursive
    # closure would hold the plan in a reference cycle until the cyclic GC.
    stack = [(n, 0)]
    while stack:
        t, v = stack.pop()
        if t < n:
            chain.append((t, v))
            llr_words |= 1 << t
            # An odd node's sibling is done: its partial sums are in bank t.
            ps_words |= (v & 1) << t
        start, width = v << t, 1 << t
        special = width <= profile.max_special_node
        # The walk meets (n, 0), (n-1, 0), ... first, so the first all-frozen
        # head node is the largest aligned all-frozen prefix of the schedule.
        head = v == 0 and profile.skip_frozen_prefix
        if (special or head) and frozen[t][v]:
            step = Step("rate0", t, v, [], is_prefix=head)
        elif special and good[t][v]:
            step = Step("rate1", t, v, span_updates(start, width, False)[0])
        elif t == w:
            ups, leaves = span_updates(start, width, True)
            step = Step("block", t, v, ups, kinds=blocks[v],
                        parity_leaves=leaves, free=free[v])
        else:
            stack += [(t - 1, 2 * v + 1), (t - 1, 2 * v)]
            continue
        step.chain, step.src = tuple(chain), chain[0][0] + 1 if chain else n
        step.llr_words, step.ps_words = llr_words, ps_words
        steps.append(step)
        chain = []
    return steps, w


# Plans per spec, keyed by the profile fields they read; they go with it.
_PLANS = weakref.WeakKeyDictionary()


def _plan_for(spec, profile):
    key = (profile.leaf_width, profile.max_special_node,
           profile.skip_frozen_prefix)
    plans = _PLANS.setdefault(spec, {})
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = _build_plan(spec, profile)
    return plan


# -- forced-decision subtree evaluation ----------------------------------------

def _forced_eval(vals, kind, t, domain):
    """Evaluate a subtree whose every decision is forced.

    kind 'rate0' forces zeros (all-frozen subtree, evaluated leaf-major as
    the module docstring says), 'rate1' forces the hard decision of each
    leaf LLR (all-good subtree). Bit-exact against a bit-serial walk.

    Returns (partial-sum signs, per-leaf penalties), each (rows, 2^t).
    """
    rows, size = vals.shape
    if kind == "rate1":
        # Following the hard decision at every leaf costs no penalty, and
        # keeps each g output on the same side of zero as its first argument
        # (the magnitudes add), so the leaf decisions re-encode to the
        # elementwise hard decisions of the node vector. A zero LLR breaks
        # the sign argument, so those rare nodes take the recursion.
        beta = (np.sign(vals).astype(np.int8) if vals.all()
                else _forced_eval_serial(vals, t, domain))
        return beta, np.zeros_like(vals)
    # rate-0: every partial sum stays +1 (bit 0), so g is a plain saturating
    # sum and each level is one pass over (width, groups, rows).
    cur = np.ascontiguousarray(vals.T)[:, None, :]
    for stage in range(t - 1, -1, -1):
        h = len(cur) // 2
        lo, hi = cur[:h], cur[h:]
        cur = np.stack([domain.f(lo, hi, stage), domain.g(hi, lo, 1, stage)],
                       axis=2).reshape(h, -1, rows)
    pens = np.where(cur[0] < 0, domain.pen(cur[0]), 0)    # (2^t, rows)
    return np.ones((rows, size), dtype=np.int8), pens.T


def _forced_eval_serial(vals, t, domain):
    """Partial-sum signs of a rate-1 subtree, leaf by leaf (general but
    slow; see _forced_eval)."""
    if vals.shape[1] == 1:
        return 1 - 2 * domain.hd(vals).astype(np.int8)
    h = vals.shape[1] // 2
    bl = _forced_eval_serial(domain.f(vals[:, :h], vals[:, h:], t - 1),
                             t - 1, domain)
    br = _forced_eval_serial(domain.g(vals[:, h:], vals[:, :h], bl, t - 1),
                             t - 1, domain)
    return np.concatenate([bl * br, br], axis=1)


# -- leaf-block expansion ------------------------------------------------------

@functools.cache
def _pattern_tables(W):
    """Bits of all 2^W patterns, MSB-first: row p holds pattern p."""
    shifts = np.arange(W - 1, -1, -1)
    bits = ((np.arange(1 << W)[:, None] >> shifts) & 1).astype(np.uint8)
    bits.flags.writeable = False      # shared by every caller
    return bits


@functools.cache
def _pattern_sums(W):
    """Partial-sum signs (transforms) of all 2^W patterns, row p for p."""
    sums = 1 - 2 * polar_transform(_pattern_tables(W)).astype(np.int8)
    sums.flags.writeable = False
    return sums


_S01 = np.array([False, True])


def _llr_tensor(vals, w, domain):
    """Leaf LLRs of one width-2^w block under every decision prefix.

    Leaf-major (module docstring): the block is (2^w, rows), leaf j's table
    a C-contiguous (2^j, rows) whose entry [p, r] is leaf j of row r under
    the MSB-first j-bit prefix p. One vectorized pass per distinct prefix
    runs the in-block f/g of a bit-serial schedule: f gives the left half's
    leaves, g under every left-half pattern the right half's, whose
    [right prefix, left pattern, row] tables one copy each reorders.
    """
    if w == 0:
        return [vals]
    h, rows = 1 << (w - 1), vals.shape[1]
    left = _llr_tensor(domain.f(vals[:h], vals[h:], w - 1), w - 1, domain)
    rv = domain.g(vals[h:, None], vals[:h, None],
                  _pattern_sums(h).T[:, :, None], w - 1)   # (h, 2^h, rows)
    right = _llr_tensor(rv.reshape(h, -1), w - 1, domain)
    return left + [leaf.reshape(-1, 1 << h, rows).transpose(1, 0, 2)
                   .reshape(-1, rows) for leaf in right]


def _prune_order(pm, L, F):
    """Positions of each frame's L best candidates, in position order.

    The F frames' candidate runs are contiguous and equally long, and each
    run is in (parent, pattern) order, so a candidate's position is its
    serial path index: one stable sort of each frame's metrics ranks ties
    exactly like a bit-serial decoder, and sorting the kept positions puts
    the survivors back in (parent, pattern) order. Integer and float
    metrics take the same sort.
    """
    C = len(pm) // F
    best = pm.reshape(F, C).argsort(axis=1, kind="stable")[:, :L]
    best.sort(axis=1)
    return (best + C * np.arange(F)[:, None] if F > 1 else best).ravel()


def _block_candidates(cur, vals, kinds, parity_leaves, pc_acc, domain, w, L,
                      F=1):
    """Split and prune one leaf block, leaf by leaf, on precomputed tables.

    Runs the exact schedule of a bit-serial decoder -- double the candidate
    set at each free leaf, keep the best L, renormalize after each pruning
    sort -- but reads every leaf LLR out of the entry paths' per-leaf
    tables (``_llr_tensor``, indexed by decided prefix and entry path)
    instead of recomputing the in-block tree per candidate. The candidate
    array stays sorted by (entry path, decided bits) throughout, so
    positional order doubles as the serial path index for tie-breaking.
    With F > 1 the entry paths belong to F equally sized independent
    frames (lockstep batch) and pruning keeps L per frame.

    Returns (parents, pattern values, metrics); parents refer to the
    paths at block entry.
    """
    parent, value = np.arange(len(vals)), np.zeros(len(vals), dtype=np.int64)
    tables = _llr_tensor(np.ascontiguousarray(vals.T), w, domain)
    for j, table in enumerate(tables):
        # value holds the j decided bits: entry [value, parent].
        llr = table.ravel().take(value * len(vals) + parent)
        kind = int(kinds[j])
        if kind == FREE:
            both = domain.pm_split(cur, llr)    # bit-0 and bit-1 children
            if len(parent) == F and L == 1:
                # One path per frame: pruning is the hard comparison, ties
                # to bit 0 like the stable sort.
                bit = both[:, 1] < both[:, 0]
                cur = np.where(bit, both[:, 1], both[:, 0])
                value = (value << 1) | bit
            elif 2 * len(parent) > L * F:
                sel = _prune_order(both.ravel(), L, F)
                half = sel >> 1
                parent, cur = parent[half], both.ravel()[sel]
                value = (value[half] << 1) | (sel & 1)
                if L >= 2:
                    cur = domain.pm_normalize(cur.reshape(F, L)).reshape(-1)
            else:
                parent = np.repeat(parent, 2)
                value = ((value << 1)[:, None] | _S01).ravel()
                cur = both.ravel()
            continue
        hd = llr < 0
        if kind == FROZEN:
            cur = domain.pm_add(cur, np.where(hd, domain.pen(llr), 0))
            value = value << 1
        elif kind == GOOD:
            value = (value << 1) | hd
        else:
            ci, offs = parity_leaves[j]
            req = pc_acc[parent, ci].astype(bool)
            for o in offs:
                req = req ^ (((value >> (j - 1 - o)) & 1) != 0)
            cur = domain.pm_add(cur, np.where(req != hd, domain.pen(llr), 0))
            value = (value << 1) | req
    return parent, value, cur


def _leaf_counts(paths, free, L):
    """(peak candidates, kept paths, pruning sorts) of a leaf block entered
    with ``paths`` paths per frame: each free leaf doubles the paths, and
    past L one sort prunes them back."""
    peak, sorts = paths, 0
    for _ in range(free):
        paths *= 2
        peak = max(peak, paths)
        if paths > L:
            paths, sorts = L, sorts + 1
    return peak, paths, sorts


def split_and_select(pms, block_vectors, kinds, L_target, domain=None):
    """One leaf-block expansion plus pruning, as a standalone step.

    pms: (P,) path metrics; block_vectors: (P, W) leaf-block LLR vectors,
    W a power of two up to MAX_LEAF_WIDTH; kinds: length-W leaf kinds
    (FREE / FROZEN / GOOD -- parity leaves need the running accumulators
    of a full decode). Splitting and selection are interleaved leaf by
    leaf, exactly like running W sequential one-bit splits. Returns a dict
    with the surviving parents, decided bits, pattern values and metrics,
    plus the peak candidate count and the number of pruning sorts.
    """
    domain = domain or FloatDomain()
    vals = np.atleast_2d(np.asarray(block_vectors, dtype=domain.llr_dtype))
    kinds = np.asarray(kinds, dtype=np.uint8)
    W = len(kinds)
    if vals.shape[1] != W or W & (W - 1):
        raise ValueError("block vectors must be (paths, W) with W a power of two")
    if W > MAX_LEAF_WIDTH:
        raise ValueError("leaf width %d exceeds the limit of %d"
                         % (W, MAX_LEAF_WIDTH))
    if (kinds == PARITY).any():
        raise ValueError("parity leaves are only supported inside a full decode")
    pms = np.asarray(pms, dtype=domain.pm_dtype)
    if len(pms) != len(vals):
        raise ValueError("one metric per path required")
    w = W.bit_length() - 1
    parent, value, pm = _block_candidates(pms, vals, kinds, {}, None, domain,
                                          w, L_target)
    peak, _kept, n_sorts = _leaf_counts(len(pms), int((kinds == FREE).sum()),
                                        L_target)
    return {
        "parent": parent,
        "bits": _pattern_tables(W)[value],
        "pattern": value,
        "pm": pm,
        "sorted": n_sorts,
        "candidates": peak,
    }


# -- the decoder ---------------------------------------------------------------

@dataclass
class DecodeResult:
    u_hat: np.ndarray
    info_hat: np.ndarray
    selected_path: int
    pm: float
    crc_pass: bool
    survivors_u: np.ndarray
    survivors_pm: np.ndarray
    survivors_crc: np.ndarray
    trace: DecodeTrace
    stats: dict


@dataclass
class BatchResult:
    """Per-frame outputs of a lockstep batch decode (leading axis = frame);
    trace is the event trace all frames share, or None."""
    u_hat: np.ndarray
    info_hat: np.ndarray
    selected_path: np.ndarray
    pm: np.ndarray
    crc_pass: np.ndarray
    survivors_u: np.ndarray
    survivors_pm: np.ndarray
    survivors_crc: np.ndarray
    trace: DecodeTrace
    stats: dict


class _ListDecoder:
    def __init__(self, spec, profile, L, domain, frames):
        self.spec = spec
        self.profile = profile
        self.L = L
        self.F = frames
        self.domain = domain
        self.n, self.N = spec.n, spec.N
        self.steps, self.w = _plan_for(spec, profile)
        self.store = PathStore(self.n, L * frames)
        ncon = len(spec.pc.constraints) if spec.pc is not None else 0
        self.pc_acc = np.zeros((frames, ncon), dtype=np.uint8)
        self.pm = np.zeros(frames, dtype=domain.pm_dtype)
        self.rows = frames          # active path rows, as many per frame
        # Bit t set for each LLR stage t the hardware stores (see Step).
        self.stored = llr_memory_summary(self.n, profile)["per_path_entries"]
        self.clone_events = self.llr_copies = self.ps_copies = 0

    # ---- bank access ----

    def _rows(self, kind, t):
        """Each active path's row of the stage-t bank of a kind: the bank
        itself when it is fresh and holds exactly the active rows, so no
        caller may write into what this returns."""
        bank, rows = self.store.read(kind, t, self.rows)
        if len(bank) == self.rows and (kind, t) in self.store.fresh:
            return bank
        return bank[rows]

    def _vecs(self, step):
        """The LLR vector of each active path at the step's node, evaluated
        down the plan's recompute chain from its first node's parent. A
        node's bank is written only when the chain descends from it: its
        odd child reads it later, and the step's own node is decided here."""
        vals = self._rows("llr", step.src)
        for t, v in step.chain:
            if t + 1 < step.src:
                self.store.write("llr", t + 1, vals)
            h = 1 << t
            if v & 1 == 0:
                vals = self.domain.f(vals[:, :h], vals[:, h:], t)
            else:
                vals = self.domain.g(vals[:, h:], vals[:, :h],
                                     self._rows("ps", t), t)
        return vals

    # ---- partial-sum write-back cascade ----

    def _write_beta(self, t, v, beta):
        """Cascade node (t, v)'s partial sums up to the first even ancestor
        and write them there; an all-odd path reaches the root, whose
        partial sums it returns."""
        while t < self.n:
            if v & 1 == 0:
                self.store.write("ps", t, beta)
                return
            beta = np.concatenate([self._rows("ps", t) * beta, beta], axis=1)
            t += 1
            v >>= 1
        return beta

    # ---- survivor bookkeeping ----

    def _apply_parents(self, parents, step):
        """Survivor i continues path parents[i]. Parents are sorted, so each
        repeat is a clone, copying the step's masks in words (stage t holds
        2^t), and with no clone and no new row they are the identity."""
        clones = int(np.count_nonzero(parents[1:] == parents[:-1]))
        if not clones and len(parents) == self.rows:
            return
        self.rows = len(parents)
        self.clone_events += clones
        self.llr_copies += clones * (step.llr_words & self.stored)
        self.ps_copies += clones * step.ps_words
        self.store.reassign(parents)
        self.pc_acc = self.pc_acc[parents]

    # ---- one schedule step ----

    def _step(self, step):
        vals = self._vecs(step)
        if step.kind == "block":
            parents, value, self.pm = _block_candidates(
                self.pm, vals, step.kinds, step.parity_leaves, self.pc_acc,
                self.domain, self.w, self.L, self.F)
            self._apply_parents(parents, step)
            beta = _pattern_sums(1 << self.w)[value]
        else:
            beta, pens = _forced_eval(vals, step.kind, step.t, self.domain)
            self.pm = self.domain.pm_fold(self.pm, pens)
        if step.acc_updates:
            bits = polar_transform(beta < 0)
            for ci, offs in step.acc_updates:
                self.pc_acc[:, ci] ^= np.bitwise_xor.reduce(bits[:, offs],
                                                            axis=1)
        return self._write_beta(step.t, step.v, beta)

    # ---- top level ----

    def run(self, chan):
        self.store.write("llr", self.n, chan)
        for step in self.steps:
            root = self._step(step)
        return self._finalize(root)

    def _finalize(self, root):
        """Per-frame results from the root partial sums of every path."""
        F, c = self.F, self.rows // self.F
        U = polar_transform(root < 0)
        crc_ok = None
        if self.spec.crc is not None:
            crc_ok = crc_check_rows(crc_sequence(U, self.spec), self.spec.crc)
        # Per-frame winner: lowest metric, ties to the lowest path index;
        # CRC-aided selection restricts to passing paths when any exist.
        pmF = self.pm.reshape(F, c)
        idx = np.argmin(pmF, axis=1)
        if self.profile.selection == "crc_aided" and crc_ok is not None:
            okF = crc_ok.reshape(F, c)
            masked = np.where(okF, pmF.astype(np.float64), np.inf)
            idx = np.where(okF.any(axis=1), np.argmin(masked, axis=1), idx)
        sel = np.arange(F) * c + idx
        u_hat = U[sel]
        return BatchResult(
            u_hat=u_hat,
            info_hat=u_hat[:, self.spec.payload_positions],
            selected_path=idx,
            pm=self.pm[sel],
            crc_pass=crc_ok[sel] if crc_ok is not None else None,
            survivors_u=U.reshape(F, c, self.N),
            survivors_pm=self.pm.reshape(F, c).copy(),
            survivors_crc=crc_ok.reshape(F, c) if crc_ok is not None else None,
            trace=None,
            stats=dict(clone_events=self.clone_events,
                       llr_element_copies=self.llr_copies,
                       ps_element_copies=self.ps_copies, list_size=c),
        )


# Frames per decode_batch call for callers that stream frames (run_fer, CLI).
DEFAULT_BATCH = 128


def _checked(spec, profile, L):
    """(profile, L) of a decode of spec; profile may be a built-in name and
    L defaults to the profile's maximum."""
    if not isinstance(profile, DecoderProfile):
        profile = profile_for(profile)
    if spec.n > profile.n_max_log:
        raise ValueError("block length 2^%d exceeds the profile limit 2^%d"
                         % (spec.n, profile.n_max_log))
    return profile, _list_size(profile, L)


def schedule_trace(spec, profile, L=None):
    """The cycle trace of one decode, derived from its plan alone.

    The schedule does not depend on the data: each step runs its plan's
    f/g chain on the current paths, each free leaf doubles the paths and
    past L prunes them back with one sort, and a forced subtree keeps
    them. So the trace needs path counts only, no arithmetic.
    """
    profile, L = _checked(spec, profile, L)
    n = spec.n
    steps, w = _plan_for(spec, profile)
    trace = DecodeTrace(N=spec.N, k=spec.k, L=L, kind=profile.kind,
                        semi_parallel_stages=profile.semi_parallel_stages,
                        semi_parallel_group=profile.semi_parallel_group)
    # The hardware keeps every storage_stride-th stage, and each kept stage
    # at or above step.src still holds the step's ancestor, so the step
    # recomputes from the first of them (or the channel). The stages below
    # step.src are the chain's new nodes; the ones above are recomputed.
    stride = profile.storage_stride
    paths = 1
    for step in steps:
        top = min(-(-step.src // stride) * stride, n)
        for s in range(top - 1, step.t - 1, -1):
            node = step.v >> (s - step.t)
            trace.stage(s, "g" if node & 1 else "f", paths, s < step.src)
        if step.kind != "block":
            trace.special(step.kind, step.t, paths, step.is_prefix)
            continue
        peak, paths, sorts = _leaf_counts(paths, step.free, L)
        trace.leaf(w, peak, paths, sorts)
    return trace


def decode(chan_llrs, spec, profile, L=None, arithmetic="quantized",
           collect_trace=False):
    """List-decode one frame of channel LLRs: a lockstep batch of one.

    Takes the arguments of ``decode_batch`` with chan_llrs of shape (N,)
    and returns row 0 of its result as a DecodeResult.
    """
    x = np.asarray(chan_llrs)
    if x.shape != (spec.N,):
        raise ValueError("expected %d channel LLRs, got shape %r"
                         % (spec.N, x.shape))
    b = decode_batch(x[None, :], spec, profile, L=L, arithmetic=arithmetic,
                     collect_trace=collect_trace)
    return DecodeResult(
        u_hat=b.u_hat[0],
        info_hat=b.info_hat[0],
        selected_path=int(b.selected_path[0]),
        pm=b.pm[0],
        crc_pass=None if b.crc_pass is None else bool(b.crc_pass[0]),
        survivors_u=b.survivors_u[0],
        survivors_pm=b.survivors_pm[0],
        survivors_crc=None if b.survivors_crc is None else b.survivors_crc[0],
        trace=b.trace,
        stats=b.stats,
    )


def decode_batch(chan_llrs, spec, profile, L=None, arithmetic="quantized",
                 collect_trace=False):
    """List-decode a batch of frames in lockstep; chan_llrs is (frames, N).

    profile may be a DecoderProfile or a built-in name. arithmetic is
    'quantized' (the modeled fixed-point datapath; float inputs are
    quantized with the profile's channel settings, integer inputs are
    range-checked and taken as-is) or 'float' (same algorithm, no
    quantization anywhere). L defaults to the profile's maximum. Float
    inputs must be finite; a NaN or infinity is rejected with the index
    of the first frame that holds one.

    Identical, frame for frame, to decoding each row on its own: the walk
    schedule and every split/prune event of an SC list decode are data
    independent, so the frames march through the same steps with the same
    per-frame path counts while their arithmetic never mixes. Batching
    only amortizes the per-step dispatch cost over the frame axis. For
    the same reason ``collect_trace=True`` attaches ``schedule_trace``,
    the trace of each of the batch's frames. Returns a BatchResult.
    """
    profile, L = _checked(spec, profile, L)
    if arithmetic == "quantized":
        domain = QuantDomain(profile.quant, spec.n)
    elif arithmetic == "float":
        domain = FloatDomain(spec.n)
    else:
        raise ValueError("arithmetic must be 'quantized' or 'float'")
    x = np.asarray(chan_llrs)
    if x.dtype.kind not in "biuf":
        raise ValueError("channel LLRs must be real numbers, got dtype %s"
                         % x.dtype)
    if x.ndim != 2 or x.shape[1] != spec.N or not len(x):
        raise ValueError("expected (frames, %d) channel LLRs, got shape %r"
                         % (spec.N, x.shape))
    if not domain.is_float and np.issubdtype(x.dtype, np.integer):
        chan = domain.check_channel(x)
    else:
        x = np.asarray(x, dtype=np.float64)
        bad = ~np.isfinite(x).all(axis=1)
        if bad.any():
            raise ValueError("frame %d: non-finite channel LLR"
                             % int(np.argmax(bad)))
        chan = domain.channel(x)
    res = _ListDecoder(spec, profile, L, domain, len(x)).run(chan)
    if collect_trace:
        res.trace = schedule_trace(spec, profile, L)
    return res
