"""Circuit substrate: harvester, demodulator, MCU power, sensors."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".demodulator": ("EnvelopeDetector", "LevelShifter", "edge_intervals"),
    ".harvester": (
        "EnergyHarvester",
        "LowDropoutRegulator",
        "VoltageMultiplier",
    ),
    ".mcu": ("McuPowerModel",),
    ".sensors": (
        "SensorBase",
        "SensorError",
        "SensorSuite",
        "accelerometer",
        "humidity_sensor",
        "strain_sensor",
        "temperature_sensor",
    ),
})
