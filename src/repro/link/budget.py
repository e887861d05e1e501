"""Power-up link budget and range solver (paper Sec. 5.2, Fig. 12).

Maps a reader drive voltage to the CBW field at a node ``d`` metres
away, and solves for the maximum power-up range:

    V_node(d) = K * V_tx * (r_ref / d)^e * 10^(-a(f) d / 20)

* ``K`` -- the system coupling constant, folding the matching network,
  PZT conversion, prism injection and contact coupling (calibrated to
  the S3-wall anchors of Fig. 12);
* ``e`` -- the guidance exponent of the structure (thin walls guide the
  S-reflections, widening range; see ``guidance_exponent``);
* ``a(f)`` -- the medium's attenuation power law.

The node powers up when ``V_node`` clears the harvester's activation
voltage (0.5 V, Fig. 14); ranges cap at the structure length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..acoustics import SpreadingModel, StructureGeometry, guidance_exponent
from ..acoustics.batch import attenuation_db_batch, spreading_gains
from ..circuits import EnergyHarvester
from ..errors import AcousticsError, PowerError

#: System coupling constant calibrated against Fig. 12's S3 anchors
#: (134 cm at 50 V, ~5 m at 200 V).
DEFAULT_COUPLING = 0.052


@dataclass
class PowerUpLink:
    """Charging-link budget for one structure.

    Args:
        structure: The structure geometry and medium.
        frequency: CBW frequency (Hz).
        coupling: System coupling constant K.
        harvester: The node's harvesting chain (activation threshold).
        spreading_exponent: Override for the guidance exponent; derived
            from the structure when None.
    """

    structure: StructureGeometry
    frequency: float = 230e3
    coupling: float = DEFAULT_COUPLING
    harvester: EnergyHarvester = field(default_factory=EnergyHarvester)
    spreading_exponent: Optional[float] = None

    def __post_init__(self) -> None:
        if self.frequency <= 0.0:
            raise AcousticsError("frequency must be positive")
        if self.coupling <= 0.0:
            raise AcousticsError("coupling must be positive")
        if self.spreading_exponent is None:
            medium = self.structure.medium
            speed = medium.cs if not medium.is_fluid else medium.cp
            self.spreading_exponent = guidance_exponent(
                self.structure.thickness, speed / self.frequency
            )
        self._spreading = SpreadingModel(exponent=self.spreading_exponent)

    def node_voltage(self, distance: float, tx_voltage: float) -> float:
        """CBW peak voltage (V) at a node ``distance`` metres from the reader."""
        if tx_voltage <= 0.0:
            raise PowerError("TX voltage must be positive")
        if distance < 0.0:
            raise PowerError("distance cannot be negative")
        gain = self._spreading.amplitude_gain(distance)
        absorption_db = self.structure.medium.attenuation_db(self.frequency, distance)
        return self.coupling * tx_voltage * gain * 10.0 ** (-absorption_db / 20.0)

    def node_voltages(self, distances, tx_voltage: float) -> np.ndarray:
        """Batched :meth:`node_voltage` over an array of distances.

        One broadcast evaluates the whole wall; results match the scalar
        budget to 1 ulp (vectorized ``**`` differs from scalar ``**`` in
        the last bit -- see docs/PERFORMANCE.md).  Power-up decisions
        sit far from the activation threshold relative to that error.
        """
        if tx_voltage <= 0.0:
            raise PowerError("TX voltage must be positive")
        distances = np.asarray(distances, dtype=float)
        if (distances < 0.0).any():
            raise PowerError("distance cannot be negative")
        gain = spreading_gains(self._spreading, distances)
        absorption_db = attenuation_db_batch(
            self.structure.medium, self.frequency, distances
        )
        return self.coupling * tx_voltage * gain * 10.0 ** (-absorption_db / 20.0)

    def powers_up(self, distance: float, tx_voltage: float) -> bool:
        """True when a node at ``distance`` wakes at ``tx_voltage``."""
        if distance > self.structure.length:
            return False
        return self.harvester.can_power_up(self.node_voltage(distance, tx_voltage))

    def max_range(self, tx_voltage: float, resolution: float = 1e-3) -> float:
        """Maximum power-up distance (m) at ``tx_voltage`` (Fig. 12).

        Bisects the monotone budget; the result caps at the structure
        length (Fig. 12's S1/S2 curves terminate at their lengths).
        Returns 0.0 when even contact range fails.
        """
        threshold = self.harvester.activation_voltage
        reference = self._spreading.reference_distance
        if self.node_voltage(reference, tx_voltage) < threshold:
            return 0.0
        limit = self.structure.length
        if self.node_voltage(limit, tx_voltage) >= threshold:
            return limit
        low, high = reference, limit
        while high - low > resolution:
            mid = 0.5 * (low + high)
            if self.node_voltage(mid, tx_voltage) >= threshold:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)

    def minimum_voltage(self, distance: float, max_voltage: float = 250.0) -> float:
        """Lowest TX voltage (V) that powers a node at ``distance``.

        Raises:
            PowerError: when even ``max_voltage`` cannot reach it.
        """
        if distance > self.structure.length:
            raise PowerError(
                f"distance {distance} m exceeds the structure length "
                f"{self.structure.length} m"
            )
        # V_node is linear in V_tx, so solve directly.
        unit = self.node_voltage(distance, 1.0)
        if unit <= 0.0:
            raise PowerError("channel gain collapsed to zero")
        needed = self.harvester.activation_voltage / unit
        if needed > max_voltage:
            raise PowerError(
                f"node at {distance} m needs {needed:.0f} V, above the "
                f"{max_voltage:.0f} V rail"
            )
        return needed

    def range_curve(
        self, voltages: List[float]
    ) -> List[Tuple[float, float]]:
        """(voltage, max range) pairs -- one Fig. 12 series."""
        return [(v, self.max_range(v)) for v in voltages]


def harvested_headroom_db(
    link: PowerUpLink, distance: float, tx_voltage: float
) -> float:
    """How many dB above the activation threshold the node field sits."""
    voltage = link.node_voltage(distance, tx_voltage)
    threshold = link.harvester.activation_voltage
    if voltage <= 0.0:
        return -math.inf
    return 20.0 * math.log10(voltage / threshold)
