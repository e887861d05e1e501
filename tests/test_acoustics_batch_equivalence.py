"""Scalar-vs-batched propagation equivalence harness (hypothesis tests).

Contract (see ``docs/PERFORMANCE.md``): the vectorized loss laws in
``repro.acoustics.batch`` match their scalar forms -- exactly along the
distance axis of the attenuation law (it is linear in distance), and to
a relative tolerance of ``1e-12`` along the frequency axis and for the
spreading power law, where vectorized ``**`` differs from scalar ``**``
by up to 1 ulp.  The batched link budget built on them is held to the
same tolerance.

Tolerances here are the documented ones; loosening them requires a
docs/PERFORMANCE.md edit and review.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.acoustics import (
    SpreadingModel,
    StructureGeometry,
    attenuation_db_batch,
    spreading_gains,
)
from repro.errors import AcousticsError
from repro.materials import get_concrete

#: Documented scalar-vs-batch tolerance for the 1-ulp-close paths.
RTOL = 1e-12

NC = get_concrete("NC").medium

frequency_strategy = st.floats(min_value=20e3, max_value=500e3)


class TestPropagationPrimitives:
    @given(
        seed=st.integers(0, 2**31),
        frequency=frequency_strategy,
        count=st.integers(1, 32),
    )
    @settings(max_examples=60, deadline=None)
    def test_distance_vectorized_attenuation_is_exact(
        self, seed, frequency, count
    ):
        distances = np.random.default_rng(seed).uniform(0.0, 30.0, count)
        batch = attenuation_db_batch(NC, frequency, distances)
        scalar = [NC.attenuation_db(frequency, d) for d in distances]
        # Exact: the power law is linear in distance, so the per-metre
        # factor is the same float the scalar code computes.
        assert batch.tolist() == scalar

    @given(
        frequency=frequency_strategy,
        distance=st.floats(min_value=0.0, max_value=30.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_frequency_vectorized_attenuation_is_ulp_close(
        self, frequency, distance
    ):
        freqs = np.array([frequency, 2.0 * frequency])
        batch = attenuation_db_batch(NC, freqs, distance)
        for k, f in enumerate(freqs):
            assert batch[k] == pytest.approx(
                NC.attenuation_db(float(f), distance), rel=RTOL
            )

    @given(
        exponent=st.floats(min_value=0.0, max_value=1.5),
        seed=st.integers(0, 2**31),
    )
    @settings(max_examples=40, deadline=None)
    def test_spreading_gains_match_scalar(self, exponent, seed):
        spreading = SpreadingModel(exponent=exponent)
        distances = np.random.default_rng(seed).uniform(0.0, 20.0, 16)
        batch = spreading_gains(spreading, distances)
        for k, d in enumerate(distances):
            assert batch[k] == pytest.approx(
                spreading.amplitude_gain(float(d)), rel=RTOL
            )

    def test_negative_inputs_rejected(self):
        with pytest.raises(AcousticsError):
            attenuation_db_batch(NC, 230e3, [-1.0])
        with pytest.raises(AcousticsError):
            attenuation_db_batch(NC, [0.0], 1.0)
        with pytest.raises(AcousticsError):
            spreading_gains(SpreadingModel(), [-0.5])


class TestBudgetEquivalence:
    @given(
        seed=st.integers(0, 2**31),
        tx=st.floats(min_value=1.0, max_value=250.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_node_voltages_match_scalar_budget(self, seed, tx):
        from repro.link import PowerUpLink

        geometry = StructureGeometry("wall", 20.0, 0.2, NC)
        link = PowerUpLink(structure=geometry)
        distances = np.random.default_rng(seed).uniform(0.0, 10.0, 12)
        batch = link.node_voltages(distances, tx)
        for k, d in enumerate(distances):
            assert batch[k] == pytest.approx(
                link.node_voltage(float(d), tx), rel=RTOL
            )
