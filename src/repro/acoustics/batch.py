"""Vectorized propagation-loss primitives for the batched link budget.

:meth:`repro.link.PowerUpLink.node_voltages` solves a whole wall's
charging budget in one broadcast; these are the two loss laws it
evaluates over an array of distances:

* :func:`attenuation_db_batch` -- ``Medium.attenuation_db`` over arrays
  of frequencies/distances;
* :func:`spreading_gains` -- ``SpreadingModel.amplitude_gain`` over an
  array of distances.

Equivalence contract (enforced by
``tests/test_acoustics_batch_equivalence.py``): distance vectorization
of the attenuation law is exact (the law is linear in distance);
frequency vectorization and the spreading power law match the scalar
reference to a relative tolerance of ``1e-12`` -- vectorized
``10.0 ** x`` differs from scalar ``**`` by up to 1 ulp.  The scalar
implementations remain the reference that feeds the pinned goldens'
single-point calls.
"""

from __future__ import annotations

import numpy as np

from ..errors import AcousticsError
from ..materials import Medium
from .attenuation import SpreadingModel


def attenuation_db_batch(
    medium: Medium, frequency, distance
) -> np.ndarray:
    """``Medium.attenuation_db`` over arrays of frequencies/distances.

    Broadcasts ``frequency`` against ``distance``.  Vectorizing over
    distance is *exact* (the power law is linear in distance, so the
    per-metre factor is computed once, exactly as the scalar code
    does); vectorizing over frequency matches the scalar result to
    1 ulp (vectorized ``**`` vs scalar ``**``).
    """
    frequency = np.asarray(frequency, dtype=float)
    distance = np.asarray(distance, dtype=float)
    if (distance < 0.0).any():
        raise AcousticsError("distance cannot be negative")
    if (frequency <= 0.0).any():
        raise AcousticsError("frequency must be positive")
    scale = (frequency / medium.attenuation_ref_hz) ** medium.attenuation_exponent
    return medium.attenuation_db_per_m * scale * distance


def spreading_gains(spreading: SpreadingModel, distance) -> np.ndarray:
    """Vectorized :meth:`SpreadingModel.amplitude_gain` (1-ulp close)."""
    distance = np.asarray(distance, dtype=float)
    if (distance < 0.0).any():
        raise AcousticsError("distance cannot be negative")
    effective = np.maximum(distance, spreading.reference_distance)
    return (spreading.reference_distance / effective) ** spreading.exponent


__all__ = [
    "attenuation_db_batch",
    "spreading_gains",
]
