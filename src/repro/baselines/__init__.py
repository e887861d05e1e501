"""Baselines the paper compares against: PAB, U2B and embedded RFID."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".pab": (
        "PAB_CARRIER",
        "PAB_WATERFALL_OFFSET_DB",
        "PabLink",
        "pab_harvester",
        "pab_snr_model",
        "pool_1",
        "pool_2",
    ),
    ".rf_backscatter": (
        "DEFAULT_CONCRETE_RF_ATTENUATION",
        "RfBackscatterLink",
    ),
    ".u2b": ("crossover_bitrate", "u2b_snr_model"),
})
