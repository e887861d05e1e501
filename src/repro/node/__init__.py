"""EcoCapsule node: shell mechanics and the composed battery-free node."""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".capsule": ("EcoCapsule", "Environment"),
    ".scheduler": ("DutyCyclePlan", "EnergyScheduler"),
    ".shell": (
        "DEFAULT_CONCRETE_DENSITY",
        "DEFAULT_DISPLACEMENT_BUDGET",
        "SphericalShell",
        "max_building_height",
        "pressure_difference",
        "resin_shell",
        "steel_shell",
    ),
})
