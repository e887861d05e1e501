"""PHY layer: PIE downlink coding, FM0 uplink coding, modems, DSP, metrics.

The scalar codecs here are the reference implementations; their batched
counterparts (and the scalar/batch engine dispatch) live in
:mod:`repro.phy.batch`.
"""

from . import dsp
from .batch import (
    Fm0BatchDecoder,
    default_engine,
    encode_baseband_batch,
    encode_levels_batch,
    matched_filter_bank,
    use_engine,
)
from .fdma import FdmaPlan, FdmaReceiver, composite_waveform
from .fm0 import Fm0Decoder, bipolar
from .fm0 import encode_baseband as fm0_encode_baseband
from .fm0 import encode_levels as fm0_encode_levels
from .metrics import (
    LinkStatistics,
    MetricsError,
    bit_error_rate,
    bit_errors,
    fm0_ber_theoretical,
    q_function,
    throughput,
)
from .modem import BackscatterModulator, DownlinkModulator
from .pie import (
    PieTiming,
    decode_edge_durations,
    decode_intervals,
    duty_cycle,
)
from .pie import encode as pie_encode
from .pie import encode_baseband as pie_encode_baseband

__all__ = [
    "dsp",
    "Fm0BatchDecoder",
    "default_engine",
    "encode_baseband_batch",
    "encode_levels_batch",
    "matched_filter_bank",
    "use_engine",
    "FdmaPlan",
    "FdmaReceiver",
    "composite_waveform",
    "Fm0Decoder",
    "bipolar",
    "fm0_encode_baseband",
    "fm0_encode_levels",
    "LinkStatistics",
    "MetricsError",
    "bit_error_rate",
    "bit_errors",
    "fm0_ber_theoretical",
    "q_function",
    "throughput",
    "BackscatterModulator",
    "DownlinkModulator",
    "PieTiming",
    "decode_edge_durations",
    "decode_intervals",
    "duty_cycle",
    "pie_encode",
    "pie_encode_baseband",
]
