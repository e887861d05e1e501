"""Link layer: budgets, simulations, adaptation, sessions, deployment."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".adaptation": (
        "CarrierTuner",
        "ForeignObjectChannel",
        "Notch",
        "TuneResult",
    ),
    ".localization": (
        "LocalizationError",
        "RangingMeasurement",
        "WallLocalizer",
        "locate",
        "simulate_round_trip",
    ),
    ".budget": ("DEFAULT_COUPLING", "PowerUpLink", "harvested_headroom_db"),
    ".deployment": (
        "DeploymentError",
        "DeploymentPlan",
        "ReaderStation",
        "SurveyEstimate",
        "estimate_survey",
        "plan_stations",
    ),
    ".session": (
        "PlacedNode",
        "SessionResult",
        "SessionTiming",
        "WallSession",
    ),
    ".simulation": (
        "DEFAULT_SIMULATION_SEED",
        "DownlinkSimulator",
        "SnrBitrateModel",
        "UplinkBasebandSimulator",
        "UplinkPassbandSimulator",
        "UplinkResult",
    ),
})
