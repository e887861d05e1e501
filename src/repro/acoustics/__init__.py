"""Acoustic substrate: waves, boundaries, prisms, multipath, resonators."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".attenuation": (
        "SpreadingModel",
        "channel_amplitude_gain",
        "guidance_exponent",
        "range_for_gain",
    ),
    ".batch": ("attenuation_db_batch", "spreading_gains"),
    ".boundary": (
        "RefractionResult",
        "critical_angle",
        "first_critical_angle",
        "reflection_coefficient",
        "refract",
        "s_only_window",
        "second_critical_angle",
        "snell_angle",
        "transmission_energy_fraction",
    ),
    ".channel": ("AcousticChannel", "NoiseModel"),
    ".helmholtz": (
        "HelmholtzResonator",
        "HelmholtzResonatorArray",
        "design_resonator",
        "paper_resonator",
        "speed_for_target",
    ),
    ".prism": ("InjectionQuality", "WavePrism"),
    ".raytrace": (
        "Arrival",
        "ImageSourceModel",
        "StructureGeometry",
        "paper_structures",
    ),
    ".response": (
        "CARRIER_BAND",
        "OFF_RESONANT_FREQUENCY",
        "RESONANT_FREQUENCY",
        "ConcreteBlock",
        "FrequencyResponse",
        "paper_test_blocks",
    ),
    ".sounding": ("ChannelSounding", "sound_arrivals", "sound_structure"),
    ".surface": (
        "SurfaceWavePath",
        "leakage_ratio",
        "penetration_depth",
        "rayleigh_velocity",
    ),
    ".ringdown": (
        "RingdownModel",
        "fsk_symbol_waveform",
        "low_edge_residual",
        "ook_symbol_waveform",
    ),
    ".waves": (
        "PlaneWave",
        "beam_cone_volume",
        "half_beam_angle",
        "near_field_length",
        "velocity_ratio",
    ),
})
