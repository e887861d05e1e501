"""PHY layer: PIE downlink coding, FM0 uplink coding, modems, DSP, metrics.

The scalar codecs here are the reference implementations; their batched
counterparts (and the scalar/batch engine dispatch) live in
:mod:`repro.phy.batch`.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": ("dsp",),
    ".batch": (
        "Fm0BatchDecoder",
        "default_engine",
        "encode_baseband_batch",
        "encode_levels_batch",
        "matched_filter_bank",
        "use_engine",
    ),
    ".fdma": ("FdmaPlan", "FdmaReceiver", "composite_waveform"),
    ".fm0": (
        "Fm0Decoder",
        "bipolar",
        "encode_baseband as fm0_encode_baseband",
        "encode_levels as fm0_encode_levels",
    ),
    ".metrics": (
        "LinkStatistics",
        "MetricsError",
        "bit_error_rate",
        "bit_errors",
        "fm0_ber_theoretical",
        "q_function",
        "throughput",
    ),
    ".modem": ("BackscatterModulator", "DownlinkModulator"),
    ".pie": (
        "PieTiming",
        "decode_edge_durations",
        "decode_intervals",
        "duty_cycle",
        "encode as pie_encode",
        "encode_baseband as pie_encode_baseband",
    ),
})
