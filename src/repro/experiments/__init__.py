"""One module per paper table/figure; used by benchmarks/ and the docs.

Each module exposes ``run(...)`` returning a structured result whose
fields carry the same rows/series the paper reports.  See DESIGN.md's
per-experiment index for the figure-to-module map.
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": (
        "appendix_sensors",
        "campaign_pilot",
        "downlink_reliability",
        "fault_sweep",
        "fig04_mode_amplitudes",
        "fig05_frequency_response",
        "fig07_ring_effect",
        "fig12_range_vs_voltage",
        "fig13_power_consumption",
        "fig14_cold_start",
        "fig15_ber_vs_snr",
        "fig16_snr_vs_bitrate",
        "fig17_throughput",
        "fig18_snr_vs_position",
        "fig19_prism_effect",
        "fig20_fsk_vs_ook",
        "fig21_pilot_study",
        "fig22_backscatter_waveform",
        "fig24_self_interference",
        "tables",
    ),
})
