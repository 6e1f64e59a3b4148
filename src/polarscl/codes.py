"""Polar code definitions: construction, encoding, CRC and parity attachments.

Natural-order indexing is used throughout: the generator is the n-fold
Kronecker power of [[1,0],[1,1]] with no bit-reversal permutation, bit 0 is
decoded first, and reliability vectors are indexed the same way.
"""

import functools
import math

import numpy as np

MAX_BLOCK_LOG = 15  # largest supported code is 2**15

# Built-in generator polynomials, MSB-first with the leading x^width term
# implicit (3GPP CRC8 / CRC11 / CRC24A, CCITT CRC16).
CRC_POLYNOMIALS = {
    8: 0x9B,
    11: 0x621,
    16: 0x1021,
    24: 0x864CFB,
}


class CrcSpec:
    """CRC attachment: ``width`` check bits appended to the payload.

    polynomial is an integer whose bits are the coefficients below x^width,
    MSB-first; the implicit x^width term supplies the degree, so the value
    is below 2**width.
    """

    def __init__(self, width, polynomial=None, init=0):
        if polynomial is None:
            if width not in CRC_POLYNOMIALS:
                raise ValueError(
                    "no built-in polynomial for CRC width %r; supply one explicitly"
                    % (width,))
            polynomial = CRC_POLYNOMIALS[width]
        if not (1 <= width <= 32):
            raise ValueError("CRC width out of range: %r" % (width,))
        if not (0 < polynomial < (1 << width)):
            raise ValueError("CRC polynomial does not match width %d: 0x%X"
                             % (width, polynomial))
        if not (0 <= init < (1 << width)):
            raise ValueError("CRC init out of range")
        self.width = int(width)
        self.polynomial = int(polynomial)
        self.init = int(init)

    def __eq__(self, other):
        return (isinstance(other, CrcSpec)
                and (self.width, self.polynomial, self.init)
                == (other.width, other.polynomial, other.init))

    def __repr__(self):
        return "CrcSpec(width=%d, polynomial=0x%X, init=0x%X)" % (
            self.width, self.polynomial, self.init)


class ParityCheckSpec:
    """Parity-check attachment: each constraint forces one decoded bit.

    constraints is a sequence of (parity_position, source_positions); during
    encoding and decoding the bit at parity_position is the XOR of the bits
    at the source positions, all of which must come earlier in decoding
    order.
    """

    def __init__(self, constraints):
        cleaned = []
        seen = set()
        for parity, sources in constraints:
            parity = int(parity)
            sources = tuple(int(s) for s in sources)
            if parity in seen:
                raise ValueError("duplicate parity position %d" % parity)
            seen.add(parity)
            if len(set(sources)) != len(sources):
                raise ValueError("repeated source for parity position %d" % parity)
            if any(s >= parity for s in sources):
                raise ValueError(
                    "parity sources must precede position %d in decoding order" % parity)
            if any(s < 0 for s in sources):
                raise ValueError("negative source position")
            cleaned.append((parity, sources))
        cleaned.sort()
        self.constraints = tuple(cleaned)

    @property
    def positions(self):
        return tuple(p for p, _ in self.constraints)

    def __eq__(self, other):
        return (isinstance(other, ParityCheckSpec)
                and self.constraints == other.constraints)

    def __repr__(self):
        return "ParityCheckSpec(%r)" % (self.constraints,)


class CodeSpec:
    """A polar code's layout, validated once when it is built.

    Fields: N (block length), n = log2(N), k (number of non-frozen
    positions, CRC and parity included), frozen_mask / good_mask (bool,
    length N), crc (CrcSpec or None), pc (ParityCheckSpec or None) and the
    position arrays derived from them. method, design_param and sequence
    record how the layout was constructed, for save_code_spec to write back.
    """

    def __init__(self, N, frozen_mask, good_mask=None, crc=None, pc=None,
                 method="manual", design_param=None, sequence=None):
        self.N = int(N)
        self.n = _block_log(N)
        frozen_mask = np.asarray(frozen_mask, dtype=bool)
        if good_mask is None:
            good_mask = np.zeros(N, dtype=bool)
        good_mask = np.asarray(good_mask, dtype=bool)
        if frozen_mask.shape != (N,) or good_mask.shape != (N,):
            raise ValueError("frozen_mask and good_mask must have length N")
        self.frozen_mask = frozen_mask
        self.good_mask = good_mask
        self.k = int(N - np.count_nonzero(frozen_mask))
        if self.k < 1:
            raise ValueError("code must have at least one information position")
        self.crc = crc
        self.pc = pc
        self.method = method
        self.design_param = design_param
        self.sequence = None if sequence is None else np.asarray(sequence, dtype=int)

        nonfrozen = np.flatnonzero(~frozen_mask)
        self.nonfrozen_positions = nonfrozen
        if self.crc_width > self.k:
            raise ValueError("CRC wider than the number of non-frozen positions")
        self.crc_positions = nonfrozen[self.k - self.crc_width:]
        ppos = np.asarray(pc.positions if pc is not None else (), dtype=int)
        self.parity_positions = ppos
        if np.any((ppos < 0) | (ppos >= N)):
            raise ValueError("parity positions must lie in 0..%d" % (N - 1))
        if np.any(frozen_mask[ppos]):
            raise ValueError("parity positions must be non-frozen")
        payload = ~frozen_mask
        payload[self.crc_positions] = False
        if not np.all(payload[ppos]):
            raise ValueError("parity positions collide with CRC positions")
        payload[ppos] = False
        self.payload_positions = np.flatnonzero(payload)
        self.payload_len = len(self.payload_positions)
        if not self.payload_len:
            raise ValueError("CRC and parity bits leave no payload position "
                             "(k=%d)" % self.k)
        if np.any(good_mask & ~payload):
            raise ValueError("good bits must be payload positions")

    @property
    def crc_width(self):
        return self.crc.width if self.crc is not None else 0

    def rate(self):
        """Channel rate k/N (CRC and parity bits count as transmitted info)."""
        return self.k / self.N

    def __repr__(self):
        return "CodeSpec(N=%d, k=%d, method=%r, crc=%r, pc=%s, good=%d)" % (
            self.N, self.k, self.method, self.crc,
            self.pc is not None, int(self.good_mask.sum()))


def _block_log(N):
    n = int(N).bit_length() - 1
    if N < 2 or (1 << n) != N:
        raise ValueError("block length must be a power of two >= 2, got %r" % (N,))
    if n > MAX_BLOCK_LOG:
        raise ValueError("block length %d exceeds 2**%d" % (N, MAX_BLOCK_LOG))
    return n


# -- reliability profiles ----------------------------------------------------

def bhattacharyya_profile(N, erasure_prob=0.5):
    """Bhattacharyya parameters of the N synthetic channels (lower = better).

    Starts from a BEC erasure probability and applies the standard doubling
    recursion in natural order: child 2i gets 2z - z^2 (degraded), child
    2i+1 gets z^2 (upgraded).
    """
    _block_log(N)
    if not (0.0 < erasure_prob < 1.0):
        raise ValueError("design erasure probability must be in (0,1)")
    z = np.array([erasure_prob], dtype=float)
    while len(z) < N:
        out = np.empty(2 * len(z), dtype=float)
        out[0::2] = 2.0 * z - z * z
        out[1::2] = z * z
        z = out
    return z


def _phi(x):
    # Mean-LLR reliability functional for the Gaussian approximation.
    if x < 1e-12:
        return 1.0
    if x < 10.0:
        return math.exp(-0.4527 * x ** 0.86 + 0.0218)
    return math.sqrt(math.pi / x) * math.exp(-x / 4.0) * (1.0 - 10.0 / (7.0 * x))


def _phi_inv(y):
    # Bisection inverse of _phi on (0, 1]; _phi is strictly decreasing.
    if y >= 1.0:
        return 0.0
    lo, hi = 1e-12, 1.0
    while _phi(hi) > y:
        hi *= 2.0
        if hi > 1e9:
            break
    # Stop once the midpoint equals the end it would replace: (lo, hi)
    # can no longer change, so the remaining steps would be no-ops.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _phi(mid) > y:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return 0.5 * (lo + hi)


def gaussian_approx_profile(N, design_snr_db):
    """Mean decision LLRs under the Gaussian approximation (higher = better).

    design_snr_db is the per-channel-bit Es/N0 in dB for unit-amplitude
    BPSK dimensions; the root mean LLR is 4 * 10^(snr/10).
    """
    _block_log(N)
    if not math.isfinite(design_snr_db):
        raise ValueError("design Es/N0 must be finite, got %r"
                         % (design_snr_db,))
    m = np.array([4.0 * 10.0 ** (design_snr_db / 10.0)], dtype=float)
    while len(m) < N:
        out = np.empty(2 * len(m), dtype=float)
        for i, v in enumerate(m):
            out[2 * i] = _phi_inv(1.0 - (1.0 - _phi(v)) ** 2)
            out[2 * i + 1] = 2.0 * v
        m = out
    return m


def load_reliability_sequence(path, N):
    """Read an externally supplied reliability order.

    The file holds whitespace/newline-separated indices, least reliable
    first, covering exactly 0..N-1.
    """
    with open(path) as fh:
        text = fh.read()
    try:
        return _sequence_to_array([int(tok) for tok in text.split()], N)
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None


def _sequence_to_array(seq, N):
    seq = np.asarray(seq, dtype=int)
    if sorted(seq.tolist()) != list(range(N)):
        raise ValueError("reliability sequence must be a permutation of 0..N-1")
    return seq


def construct_code(N, k, method="bhattacharyya", design_param=None,
                   crc=None, pc=None, good_threshold=0.0, sequence=None):
    """Construct a polar code: pick the N-k least reliable positions as frozen.

    method is one of 'bhattacharyya' (design_param = erasure probability,
    default 0.5), 'gaussian_approx' (design_param = design Es/N0 in dB,
    default 2.0) or 'external_sequence' (sequence = index permutation or a
    path to one, least reliable first). Reliability ties freeze the lower
    index. Deterministic for fixed inputs.
    """
    _block_log(N)
    if not (1 <= k <= N):
        raise ValueError("k must satisfy 1 <= k <= N, got %r" % (k,))
    seq_arr = None
    if method == "bhattacharyya":
        design_param = 0.5 if design_param is None else float(design_param)
        reliability = -bhattacharyya_profile(N, design_param)
    elif method == "gaussian_approx":
        design_param = 2.0 if design_param is None else float(design_param)
        reliability = gaussian_approx_profile(N, design_param)
    elif method == "external_sequence":
        if sequence is None:
            raise ValueError("external_sequence construction needs a sequence")
        if isinstance(sequence, (str, bytes)):
            seq_arr = load_reliability_sequence(sequence, N)
        else:
            seq_arr = _sequence_to_array(sequence, N)
        reliability = np.empty(N, dtype=float)
        reliability[seq_arr] = np.arange(N, dtype=float)
        design_param = None
    else:
        raise ValueError("unknown construction method %r" % (method,))

    # Ascending reliability, ties by ascending index: first N-k are frozen.
    order = np.lexsort((np.arange(N), reliability))
    frozen_mask = np.zeros(N, dtype=bool)
    frozen_mask[order[:N - k]] = True
    layout = dict(crc=crc, pc=pc, method=method, design_param=design_param,
                  sequence=seq_arr)
    spec = CodeSpec(N, frozen_mask, **layout)
    if good_threshold:
        good = good_bit_set(spec, reliability, good_threshold)
        spec = CodeSpec(N, frozen_mask, good, **layout)
    return spec


def good_bit_set(spec, reliability, threshold):
    """Mark the most reliable payload positions as good bits.

    threshold in [0,1] is the fraction of payload positions marked, with
    half-up rounding of threshold * k'; ties in reliability (the
    construction's vector) prefer the lower index. Good bits are decoded
    by forced hard decision (no path split).
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("good-bit threshold must be in [0,1]")
    cand = spec.payload_positions
    count = int(math.floor(threshold * len(cand) + 0.5))
    mask = np.zeros(spec.N, dtype=bool)
    if count:
        order = np.lexsort((cand, -reliability[cand]))
        mask[cand[order[:count]]] = True
    return mask


# -- transform / encoding ----------------------------------------------------

@functools.cache
def _byte_transform():
    """The transform of every 8-bit vector packed MSB-first, byte to byte."""
    x = np.arange(256, dtype=np.uint8)
    for h, upper in ((1, 0xAA), (2, 0xCC), (4, 0xF0)):
        x ^= (x << h) & upper     # bit i ^= bit i + h, for i mod 2h < h
    x.flags.writeable = False
    return x


def polar_transform(bits):
    """Multiply a bit vector by the Kronecker-power generator (an involution).

    Leading axes are rows: each vector along the last axis is transformed.
    Takes 0/1 integers or bools in any memory layout and returns a fresh
    uint8 array. It works on packed bytes: one table lookup does the three
    levels inside a byte (zero padding keeps that exact below 8 bits), and
    whole-byte xors do the wider ones.
    """
    x = np.asarray(bits)
    if x.dtype != bool:
        if x.dtype.kind not in "iu":
            raise ValueError("polar_transform takes bits as integers or "
                             "bools, got dtype %s" % x.dtype)
        if x.size and (x.min() < 0 or x.max() > 1):
            raise ValueError("polar_transform takes bits (0 or 1), got values "
                             "from %d to %d" % (x.min(), x.max()))
    N = x.shape[-1]
    if N > 1:
        _block_log(N)
    # packbits keeps a Fortran layout, and the xors need one C-order array.
    y = np.ascontiguousarray(_byte_transform()[np.packbits(x, axis=-1)])
    h = 1
    while h < y.shape[-1]:
        v = y.reshape(-1, 2 * h)          # a view of y's rows
        v[:, :h] ^= v[:, h:]
        h *= 2
    return np.unpackbits(y, axis=-1, count=N)


def crc_attach(bits, crc):
    """Append crc.width check bits (remainder, MSB first) to a bit vector."""
    bits = np.asarray(bits, dtype=np.uint8)
    out = np.empty(len(bits) + crc.width, dtype=np.uint8)
    out[:len(bits)] = bits
    out[len(bits):] = _crc_remainders(bits[None], crc)[0]
    return out


def crc_check(bits_with_crc, crc):
    """True iff the trailing crc.width bits match the payload's CRC.

    Runs the bit-serial register, so it stays an independent reference for
    the matrix form that crc_attach and crc_check_rows use.
    """
    bits = np.asarray(bits_with_crc, dtype=np.uint8)
    if len(bits) < crc.width:
        raise ValueError("input shorter than the CRC itself")
    rem = _crc_remainder(bits[:len(bits) - crc.width], crc)
    return bool(np.array_equal(rem, bits[len(bits) - crc.width:]))


_CRC_AFFINE_CACHE = {}


def _crc_affine(length, crc):
    """Matrix/offset pair with remainder(x) = x @ A xor r0 over GF(2).

    The remainder of a fixed-length message is affine in its bits (the
    init seed supplies the constant part), so checking many candidate
    sequences reduces to one bit-matrix product. Message bit i stands for
    x^(width+length-1-i), so row i is that power mod the generator: one
    LFSR walk from the last row up gives every row, one shift-xor each.
    The init seed is XORed into the leading message bits, so r0 is the
    XOR of the rows its bits select.
    """
    key = (length, crc.width, crc.polynomial, crc.init)
    hit = _CRC_AFFINE_CACHE.get(key)
    if hit is None:
        w, poly, mask = crc.width, crc.polynomial, (1 << crc.width) - 1
        regs = np.empty(length, dtype=np.int64)
        reg = poly                                  # x^width mod g
        for i in range(length - 1, -1, -1):
            regs[i] = reg
            reg = ((reg << 1) ^ (poly if reg >> (w - 1) else 0)) & mask
        seed = _msb_bits(crc.init, w)[:length].astype(bool)
        r0 = np.bitwise_xor.reduce(regs[:len(seed)][seed])
        hit = (_msb_bits(regs, w).astype(np.float64), _msb_bits(r0, w))
        _CRC_AFFINE_CACHE[key] = hit
    return hit


def _crc_remainders(rows, crc):
    """CRC remainders (count, width) of the rows of a (count, length) array."""
    A, r0 = _crc_affine(rows.shape[1], crc)
    return ((rows.astype(np.float64) @ A).astype(np.int64) & 1) ^ r0


def crc_check_rows(rows, crc):
    """Vectorized crc_check over the rows of a (count, length) bit array."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
    body = rows.shape[1] - crc.width
    if body < 0:
        raise ValueError("input shorter than the CRC itself")
    return np.all(_crc_remainders(rows[:, :body], crc) == rows[:, body:], axis=1)


def _crc_remainder(bits, crc):
    """Remainder of bits * x^width mod the generator, register seeded by init.

    Bit-serial long division: the reference for the matrix form.
    """
    w = crc.width
    msg = np.array(bits, dtype=np.uint8, copy=True)
    lead = min(w, len(msg))
    msg[:lead] ^= _msb_bits(crc.init, w)[:lead]
    reg, top, mask = 0, 1 << (w - 1), (1 << w) - 1
    for b in msg.tolist():
        reg ^= b << (w - 1)
        reg = (((reg << 1) ^ crc.polynomial) if reg & top else reg << 1) & mask
    return _msb_bits(reg, w)


def _msb_bits(value, width):
    """The low ``width`` bits of an integer, MSB first (a new last axis for
    an integer array)."""
    shifts = np.arange(width - 1, -1, -1)
    return ((np.asarray(value)[..., None] >> shifts) & 1).astype(np.uint8)


def build_message(payload, spec):
    """Assemble the length-N message vector u from a payload bit vector.

    Payload bits fill the payload positions in index order; CRC bits (if
    any) occupy the last crc.width non-frozen positions; parity positions
    are forced by their constraints; frozen positions are zero. A
    (count, payload_len) array of payloads gives (count, N) messages.
    """
    payload = np.asarray(payload, dtype=np.uint8)
    if payload.ndim > 2 or payload.shape[-1:] != (spec.payload_len,):
        raise ValueError("payload must have length %d, got %r"
                         % (spec.payload_len, payload.shape))
    u = np.zeros(payload.shape[:-1] + (spec.N,), dtype=np.uint8)
    u[..., spec.payload_positions] = payload
    if spec.crc is not None:
        rem = _crc_remainders(np.atleast_2d(payload), spec.crc)
        u[..., spec.crc_positions] = rem if payload.ndim == 2 else rem[0]
    if spec.pc is not None:
        for parity, sources in spec.pc.constraints:
            u[..., parity] = np.bitwise_xor.reduce(
                u[..., list(sources)], axis=-1)
    return u


def encode(payload, spec):
    """Encode a payload bit vector into a codeword."""
    return polar_transform(build_message(payload, spec))


def extract_info(u, spec):
    """Payload bits of a message vector (CRC and parity positions excluded)."""
    u = np.asarray(u, dtype=np.uint8)
    return u[spec.payload_positions]


def crc_sequence(u, spec):
    """The payload+CRC bit sequence a CRC check runs over, in index order.

    Leading axes are rows: a (count, N) array gives (count, length).
    """
    u = np.asarray(u, dtype=np.uint8)
    keep = ~spec.frozen_mask
    keep[spec.parity_positions] = False
    return u[..., keep]


# -- code spec files ----------------------------------------------------------

def save_code_spec(spec, dest):
    """Write a code spec (key = value lines, arrays space-separated) to
    dest, a file path or an open text stream."""
    lines = [
        "# polar code spec",
        "N = %d" % spec.N,
        "k = %d" % spec.k,
        "method = %s" % spec.method,
    ]
    if spec.design_param is not None:
        lines.append("design_param = %r" % (spec.design_param,))
    if spec.sequence is not None:
        lines.append("sequence = %s" % " ".join(map(str, spec.sequence.tolist())))
    lines.append("frozen = %s" % " ".join(map(str, np.flatnonzero(spec.frozen_mask))))
    good = np.flatnonzero(spec.good_mask)
    if len(good):
        lines.append("good = %s" % " ".join(map(str, good)))
    if spec.crc is not None:
        lines.append("crc_width = %d" % spec.crc.width)
        lines.append("crc_poly = 0x%X" % spec.crc.polynomial)
        if spec.crc.init:
            lines.append("crc_init = 0x%X" % spec.crc.init)
    if spec.pc is not None:
        groups = ["%d:%s" % (p, ",".join(map(str, srcs)))
                  for p, srcs in spec.pc.constraints]
        lines.append("pc = %s" % ";".join(groups))
    text = "\n".join(lines) + "\n"
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text)


def load_code_spec(path):
    """Read a code spec file written by save_code_spec: the layout, as
    saved. The construction it names is not rerun; method, design_param
    and sequence are read back as provenance only."""
    fields = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected 'key = value'" % (path, lineno))
            key, val = (part.strip() for part in line.split("=", 1))
            if key in fields:
                raise ValueError("%s:%d: duplicate key %r" % (path, lineno, key))
            fields[key] = val
    missing = [key for key in ("N", "k", "method", "frozen") if key not in fields]
    if missing:
        raise ValueError("%s: missing required key %r" % (path, missing[0]))

    def take(key, parse, default=None):
        if key not in fields:
            return default
        try:
            return parse(fields.pop(key))
        except ValueError as e:
            raise ValueError("%s: %s: %s" % (path, key, e)) from None

    N = take("N", lambda s: 1 << _block_log(int(s)))
    k = take("k", int)
    method = take("method", str)
    frozen_mask = take("frozen", lambda s: _index_mask(s, N))
    good = take("good", lambda s: _index_mask(s, N))
    crc = None
    if "crc_width" in fields:
        crc = (take("crc_width", int), take("crc_poly", lambda s: int(s, 16)),
               take("crc_init", lambda s: int(s, 16), 0))
    pc = take("pc", _parity_spec)
    design_param = take("design_param", float)
    sequence = take("sequence", lambda s: _sequence_to_array(
        [int(t) for t in s.split()], N))
    if fields:
        raise ValueError("%s: unknown keys %s" % (path, sorted(fields)))
    if N - frozen_mask.sum() != k:
        raise ValueError("%s: k = %d, but the frozen list leaves %d positions"
                         % (path, k, N - frozen_mask.sum()))
    try:
        crc = CrcSpec(*crc) if crc else None
        return CodeSpec(N, frozen_mask, good, crc=crc, pc=pc, method=method,
                        design_param=design_param, sequence=sequence)
    except ValueError as e:
        raise ValueError("%s: %s" % (path, e)) from None


def _index_mask(text, N):
    """Bool mask of length N marking the whitespace-separated indices;
    each must lie in 0..N-1 and be listed once."""
    idx = np.array([int(t) for t in text.split()], dtype=int)
    outside = idx[(idx < 0) | (idx >= N)]
    if outside.size:
        raise ValueError("index %d outside 0..%d" % (outside[0], N - 1))
    counts = np.bincount(idx, minlength=N)
    if np.any(counts > 1):
        raise ValueError("index %d listed twice" % np.argmax(counts > 1))
    return counts > 0


def _parity_spec(text):
    constraints = []
    for group in text.split(";"):
        head, _, tail = group.partition(":")
        constraints.append((int(head), [int(t) for t in tail.split(",") if t]))
    return ParityCheckSpec(constraints)
