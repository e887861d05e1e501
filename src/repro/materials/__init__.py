"""Material database: concretes (Table 1) and the other media the paper uses."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "Medium",
        "lame_parameters",
        "p_wave_velocity",
        "s_wave_velocity",
    ),
    ".common": (
        "AIR",
        "ALLOY_STEEL",
        "ALLOY_STEEL_YIELD_STRENGTH",
        "PAPER_Z_AIR",
        "PAPER_Z_CONCRETE",
        "PLA",
        "RESIN",
        "RESIN_TENSILE_STRENGTH",
        "SEAWATER",
        "WATER",
    ),
    ".concrete": (
        "CONCRETE_NAMES",
        "NC_P_VELOCITY",
        "NC_S_VELOCITY",
        "Concrete",
        "MixProportions",
        "all_concretes",
        "get_concrete",
    ),
})
