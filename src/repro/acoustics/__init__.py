"""Acoustic substrate: waves, boundaries, prisms, multipath, resonators."""

from .attenuation import (
    SpreadingModel,
    channel_amplitude_gain,
    guidance_exponent,
    range_for_gain,
)
from .batch import attenuation_db_batch, spreading_gains
from .boundary import (
    RefractionResult,
    critical_angle,
    first_critical_angle,
    reflection_coefficient,
    refract,
    s_only_window,
    second_critical_angle,
    snell_angle,
    transmission_energy_fraction,
)
from .channel import AcousticChannel, NoiseModel
from .helmholtz import (
    HelmholtzResonator,
    HelmholtzResonatorArray,
    design_resonator,
    paper_resonator,
    speed_for_target,
)
from .prism import InjectionQuality, WavePrism
from .raytrace import Arrival, ImageSourceModel, StructureGeometry, paper_structures
from .response import (
    CARRIER_BAND,
    OFF_RESONANT_FREQUENCY,
    RESONANT_FREQUENCY,
    ConcreteBlock,
    FrequencyResponse,
    paper_test_blocks,
)
from .sounding import ChannelSounding, sound_arrivals, sound_structure
from .surface import (
    SurfaceWavePath,
    leakage_ratio,
    penetration_depth,
    rayleigh_velocity,
)
from .ringdown import (
    RingdownModel,
    fsk_symbol_waveform,
    low_edge_residual,
    ook_symbol_waveform,
)
from .waves import (
    PlaneWave,
    beam_cone_volume,
    half_beam_angle,
    near_field_length,
    velocity_ratio,
)

__all__ = [
    "SpreadingModel",
    "channel_amplitude_gain",
    "guidance_exponent",
    "range_for_gain",
    "attenuation_db_batch",
    "spreading_gains",
    "RefractionResult",
    "critical_angle",
    "first_critical_angle",
    "reflection_coefficient",
    "refract",
    "s_only_window",
    "second_critical_angle",
    "snell_angle",
    "transmission_energy_fraction",
    "AcousticChannel",
    "NoiseModel",
    "HelmholtzResonator",
    "HelmholtzResonatorArray",
    "design_resonator",
    "paper_resonator",
    "speed_for_target",
    "InjectionQuality",
    "WavePrism",
    "Arrival",
    "ImageSourceModel",
    "StructureGeometry",
    "paper_structures",
    "CARRIER_BAND",
    "OFF_RESONANT_FREQUENCY",
    "RESONANT_FREQUENCY",
    "ConcreteBlock",
    "FrequencyResponse",
    "paper_test_blocks",
    "ChannelSounding",
    "sound_arrivals",
    "sound_structure",
    "SurfaceWavePath",
    "leakage_ratio",
    "penetration_depth",
    "rayleigh_velocity",
    "RingdownModel",
    "fsk_symbol_waveform",
    "low_edge_residual",
    "ook_symbol_waveform",
    "PlaneWave",
    "beam_cone_volume",
    "half_beam_angle",
    "near_field_length",
    "velocity_ratio",
]
