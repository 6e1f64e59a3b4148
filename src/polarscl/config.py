"""Run configuration: flat-sectioned text files with typed keys.

Grammar (INI-style, parsed with configparser; ``#`` and ``;`` comments):

    [code]
    spec_file = code.spec     # load a saved spec; other [code] keys must stay default
    N = 1024
    k = 512
    method = gaussian_approx  # bhattacharyya | gaussian_approx | external_sequence
    design_param = 2.0        # erasure prob / design Es-N0 dB, per method
    good_threshold = 0.0
    crc_width = 24            # 0 disables the CRC
    crc_poly = 0x864cfb       # hex, leading x^width term implicit; optional
    crc_init = 0x0
    parity = 12:3,7;40:20,33  # target:sources;... (u-domain indices)
    sequence_file = seq.txt   # external_sequence only: indices, least reliable first

    [quant]
    q_c = 6
    q_i = 6
    q_sort = 7
    q_pm = 6
    channel_scale = 0.75
    q_i_overrides = 0:7       # stage:width pairs, whitespace separated

    [decoder]
    profile = flexible        # sc | flexible | ultra
    L = 8
    arithmetic = quantized    # quantized | float
    leaf_width = 4
    storage_stride = 3
    selection = crc_aided     # best_pm | crc_aided (lowest metric among CRC passes)
    max_special_node = 32     # 0 disables special-node shortcuts
    skip_frozen_prefix = true
    stage5_replicas = 4

    [arch]
    pe_count_serial = 64
    parallel_threshold = 16
    parallel_unit_latency = 2
    cycles_per_pe_pass = 1
    sort_latency = 1:0 2:2 4:6 8:12 16:14 32:16
    sort_initiation_interval = 1
    f_clk_hz = 1.0e9
    num_cores = 5

    [campaign]
    snr_db = 1.8 2.0 2.2
    seed = 20260819
    max_frames = 25000
    max_errors = 100
    batch = 128

    [output]
    csv = fer.csv             # empty/'-' writes to stdout

Every key is optional (defaults below); unknown sections or keys are
rejected with a diagnostic naming them. Values given on the command line
override the file (last wins); ``effective_text`` is the canonical
serialization that gets echoed into output headers, and ``config_hash``
its digest, so identical effective configs are recognizable byte-for-byte.
"""
import configparser
import dataclasses
import hashlib
import io

from .codes import (CRC_POLYNOMIALS, CrcSpec, ParityCheckSpec, construct_code,
                    load_code_spec)
from .cycles import ArchParams
from .engine import DEFAULT_BATCH, SELECTIONS, profile_for
from .qarith import QuantProfile


class ConfigError(ValueError):
    """Invalid configuration; message names the offending section/key."""


def _int(s):
    return int(s, 0)


def _bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError("expected a boolean, got %r" % s)


def _floats(s):
    return tuple(float(tok) for tok in s.replace(",", " ").split())


def _pairs(s):
    out = []
    for tok in s.split():
        a, b = tok.split(":")
        out.append((int(a, 0), int(b, 0)))
    return tuple(out)


def _parity(s):
    cons = []
    for item in s.split(";"):
        item = item.strip()
        if not item:
            continue
        tgt, srcs = item.split(":")
        cons.append((int(tgt), [int(x) for x in srcs.split(",")]))
    return tuple(cons)


def _choice(*names):
    def parse(s):
        if s not in names:
            raise ValueError("expected one of %s, got %r"
                             % ("/".join(names), s))
        return s
    return parse


# (parser, default) per key; defaults mirror the flexible profile so a
# bare config is a runnable CA-SCL setup.
_SCHEMA = {
    "code": {
        "spec_file": (str, ""),
        "n": (_int, 1024),
        "k": (_int, 512),
        "method": (_choice("bhattacharyya", "gaussian_approx",
                           "external_sequence"), "gaussian_approx"),
        "design_param": (float, None),
        "good_threshold": (float, 0.0),
        "crc_width": (_int, 24),
        "crc_poly": (_int, None),
        "crc_init": (_int, 0),
        "parity": (_parity, ()),
        "sequence_file": (str, ""),
    },
    "quant": {
        "q_c": (_int, 6),
        "q_i": (_int, 6),
        "q_sort": (_int, 7),
        "q_pm": (_int, 6),
        "channel_scale": (float, 0.75),
        "q_i_overrides": (_pairs, ()),
    },
    "decoder": {
        "profile": (_choice("sc", "flexible", "ultra"), "flexible"),
        "l": (_int, None),
        "arithmetic": (_choice("quantized", "float"), "quantized"),
        "leaf_width": (_int, None),
        "storage_stride": (_int, None),
        "selection": (_choice(*SELECTIONS), None),
        "max_special_node": (_int, None),
        "skip_frozen_prefix": (_bool, None),
        "stage5_replicas": (_int, None),
    },
    "arch": {
        "pe_count_serial": (_int, 64),
        "parallel_threshold": (_int, 16),
        "parallel_unit_latency": (_int, 2),
        "cycles_per_pe_pass": (_int, 1),
        "sort_latency": (_pairs, ((1, 0), (2, 2), (4, 6), (8, 12),
                                  (16, 14), (32, 16))),
        "sort_initiation_interval": (_int, 1),
        "f_clk_hz": (float, 1.0e9),
        "num_cores": (_int, 5),
    },
    "campaign": {
        "snr_db": (_floats, (1.8, 2.0, 2.2)),
        "seed": (_int, 20260819),
        "max_frames": (_int, 25000),
        "max_errors": (_int, 100),
        "batch": (_int, DEFAULT_BATCH),
    },
    "output": {
        "csv": (str, "-"),
    },
}

# decoder keys that map 1:1 onto DecoderProfile fields when set
_PROFILE_KEYS = ("leaf_width", "storage_stride", "selection",
                 "max_special_node", "skip_frozen_prefix", "stage5_replicas")


class RunConfig:
    """Validated configuration: one dict of plain values per section."""

    def __init__(self, values=None):
        self.sections = {}
        for sec, keys in _SCHEMA.items():
            self.sections[sec] = {k: d for k, (_, d) in keys.items()}
        for (sec, key), raw in (values or {}).items():
            self.set(sec, key, raw)

    def set(self, sec, key, raw):
        """Assign one key from its string form, with typed validation.

        An empty value resets the key to its default, so a serialized
        effective config (where unset keys print empty) reloads exactly.
        """
        if sec not in _SCHEMA:
            raise ConfigError("unknown config section [%s]" % sec)
        key = key.lower()
        if key not in _SCHEMA[sec]:
            raise ConfigError("unknown key '%s' in section [%s]" % (key, sec))
        parse, default = _SCHEMA[sec][key]
        raw = str(raw).strip()
        if not raw:
            self.sections[sec][key] = default
            return
        try:
            self.sections[sec][key] = parse(raw)
        except (ValueError, TypeError) as e:
            raise ConfigError("bad value for [%s] %s: %s" % (sec, key, e))

    def get(self, sec, key):
        return self.sections[sec][key]

    # -- materialization ---------------------------------------------------

    def build_spec(self):
        """CodeSpec per the [code] section (or loaded from spec_file)."""
        c = self.sections["code"]
        if c["spec_file"]:
            # Compared with the defaults, not "was set", so that a
            # serialized effective config (every key printed) reloads.
            clash = sorted(k for k, (_, d) in _SCHEMA["code"].items()
                           if k != "spec_file" and c[k] != d)
            if clash:
                raise ConfigError("[code] spec_file conflicts with %s; a "
                                  "loaded spec takes no other [code] keys"
                                  % ", ".join(clash))
            try:
                return load_code_spec(c["spec_file"])
            except OSError as e:
                raise ConfigError("[code] cannot read spec_file: %s" % e)
        crc = None
        try:
            if c["crc_width"]:
                poly = c["crc_poly"]
                if poly is None and c["crc_width"] not in CRC_POLYNOMIALS:
                    raise ValueError("crc_width %d has no built-in polynomial;"
                                     " set crc_poly" % c["crc_width"])
                crc = CrcSpec(c["crc_width"], poly, c["crc_init"])
            pc = ParityCheckSpec(list(c["parity"])) if c["parity"] else None
        except ValueError as e:
            raise ConfigError("[code] %s" % e)
        if c["method"] == "external_sequence" and not c["sequence_file"]:
            raise ConfigError("[code] method external_sequence needs "
                              "sequence_file")
        try:
            return construct_code(c["n"], c["k"], method=c["method"],
                                  design_param=c["design_param"], crc=crc,
                                  pc=pc, good_threshold=c["good_threshold"],
                                  sequence=c["sequence_file"] or None)
        except OSError as e:
            raise ConfigError("[code] cannot read sequence_file: %s" % e)
        except ValueError as e:
            raise ConfigError("[code] %s" % e)

    def build_profile(self):
        """DecoderProfile from [decoder] + [quant] overrides."""
        d = self.sections["decoder"]
        q = self.sections["quant"]
        base = profile_for(d["profile"])
        try:
            quant = QuantProfile(q_c=q["q_c"], q_i=q["q_i"],
                                 q_i_overrides=q["q_i_overrides"],
                                 q_sort=q["q_sort"], q_pm=q["q_pm"],
                                 channel_scale=q["channel_scale"])
        except ValueError as e:
            raise ConfigError("[quant] %s" % e)
        over = {k: d[k] for k in _PROFILE_KEYS if d[k] is not None}
        try:
            return dataclasses.replace(base, quant=quant, **over)
        except ValueError as e:
            raise ConfigError("[decoder] %s" % e)

    def build_arch(self):
        try:
            return ArchParams(**self.sections["arch"])
        except ValueError as e:
            raise ConfigError("[arch] %s" % e)

    def list_size(self):
        return self.sections["decoder"]["l"]

    # -- provenance --------------------------------------------------------

    def effective_text(self, skip=()):
        """Canonical serialization of every effective value."""
        return _serialize(self.sections, skip)

    def config_hash(self):
        """Hash of the result-determining config ([output] paths excluded).

        A set ``spec_file`` or ``sequence_file`` counts by its contents,
        not its path: a copied file hashes the same, a replaced one does
        not. A config that sets neither hashes its effective text alone.
        """
        code = dict(self.sections["code"])
        for key in ("spec_file", "sequence_file"):
            if code[key]:
                try:
                    with open(code[key], "rb") as f:
                        code[key] = "sha256:" + hashlib.sha256(
                            f.read()).hexdigest()
                except OSError as e:
                    raise ConfigError("[code] cannot read %s: %s" % (key, e))
        text = _serialize(dict(self.sections, code=code), skip=("output",))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def _serialize(sections, skip):
    out = io.StringIO()
    for sec in sorted(sections):
        if sec in skip:
            continue
        out.write("[%s]\n" % sec)
        for key in sorted(sections[sec]):
            out.write("%s = %s\n" % (key, _fmt(sections[sec][key])))
    return out.getvalue()


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        if v and isinstance(v[0], tuple):
            if isinstance(v[0][1], list):  # parity constraints
                return ";".join("%d:%s" % (t, ",".join(str(s) for s in ss))
                                for t, ss in v)
            return " ".join("%d:%d" % p for p in v)
        return " ".join(repr(float(x)) for x in v) if v else ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def load_config(path=None, overrides=()):
    """Parse a config file plus ``section.key=value`` override strings.

    Overrides apply after the file in the order given (last wins). path
    None skips the file and starts from defaults.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as f:
                parser.read_file(f)
        except OSError as e:
            raise ConfigError("cannot read config file: %s" % e)
        except configparser.Error as e:
            raise ConfigError("config syntax: %s" % e)
        for sec in parser.sections():
            for key, raw in parser.items(sec):
                cfg.set(sec.lower(), key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError("override must look like section.key=value: %r"
                              % item)
        target, raw = item.split("=", 1)
        sec, key = target.split(".", 1)
        cfg.set(sec.strip().lower(), key.strip(), raw)
    return cfg
