"""Bit-accurate model of fixed-point SC / SCL polar decoders.

Subsystems: code construction and encoding (codes), saturating
sign-magnitude arithmetic kernels (qarith), the list-decoder engine with
its storage/scheduling optimizations (engine), reference oracles
(reference), the cycle-level latency model (cycles) and the AWGN
simulation harness (channel).
"""

from .codes import (CodeSpec, CrcSpec, ParityCheckSpec, construct_code,
                    good_bit_set, polar_transform, encode, extract_info,
                    crc_attach, crc_check, save_code_spec, load_code_spec)
from .qarith import (QuantProfile, FloatDomain, QuantDomain,
                     quantize_channel_llr)
from .engine import (DecoderProfile, DecodeResult, profile_for, decode,
                     schedule_trace, split_and_select)
from .cycles import (ArchParams, CycleReport, latency, double_package,
                     throughput, calibrate_sort_latency)
from .channel import (ChannelConfig, FERPoint, transmit, run_fer,
                      compare_curves)

__version__ = "0.1.0"
