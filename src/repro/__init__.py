"""EcoCapsule reproduction: in-concrete piezoelectric backscatter for SHM.

A simulation-backed reimplementation of "Empowering Smart Buildings with
Self-Sensing Concrete for Structural Health Monitoring" (SIGCOMM 2022).
The physical substrate (concrete acoustics, PZT hardware, harvesting
circuits) is modelled from first principles and calibrated to the
paper's measurements; the algorithmic stack (PIE/FM0 coding, FSK
anti-ring downlink, backscatter uplink, Gen2-style TDMA, SHM analytics)
is implemented for real and runs end-to-end over the simulated channel.

Quick tour::

    from repro import materials, acoustics, link

    wall = acoustics.StructureGeometry(
        "my wall", length=10.0, thickness=0.2,
        medium=materials.get_concrete("NC").medium)
    budget = link.PowerUpLink(wall)
    print(budget.max_range(tx_voltage=250.0))   # metres

See ``examples/quickstart.py`` for a full read-a-sensor walkthrough and
DESIGN.md for the paper-to-module map.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".": (
        "acoustics",
        "baselines",
        "circuits",
        "errors",
        "faults",
        "link",
        "materials",
        "node",
        "obs",
        "phy",
        "protocol",
        "reader",
        "runtime",
        "shm",
        "store",
        "transducer",
        "units",
    ),
    ".errors": ("ReproError",),
})
__all__.append("__version__")
