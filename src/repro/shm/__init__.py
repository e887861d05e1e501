"""SHM analytics: the pilot-study bridge, synthetic data, PAO grading."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bridge": (
        "SECTION_NAMES",
        "SENSOR_TYPES",
        "Footbridge",
        "SensorInstallation",
        "ShmError",
        "StructuralLimits",
        "standard_sensor_layout",
    ),
    ".building": (
        "WALL_GRADES",
        "BuildingMonitor",
        "CapsuleStatus",
        "WallHealth",
    ),
    ".comparison": ("CostModel", "FalsePositiveResult", "FalsePositiveStudy"),
    ".damage": (
        "DamageAlarm",
        "DamageDetector",
        "DamageError",
        "StrainHistory",
        "strain_capacity_margin",
        "synthesize_history",
    ),
    ".monitor": (
        "AnomalyWindow",
        "BridgeMonitor",
        "ComplianceReport",
        "check_compliance",
        "cross_validate",
        "detect_anomalies",
        "rolling_rms",
    ),
    ".pao": (
        "GRADES",
        "PAO_THRESHOLDS",
        "PaoError",
        "SectionHealth",
        "collapse_risk",
        "grade",
        "grade_sections",
        "is_safe",
        "pedestrian_area_occupancy",
        "worst_grade",
    ),
    ".timeseries": (
        "JULY_HOURS",
        "STORM_END_HOUR",
        "STORM_START_HOUR",
        "JulyTimeSeriesGenerator",
        "in_storm",
    ),
})
