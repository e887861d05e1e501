"""Batched FM0 PHY kernels + the scalar/batch engine dispatch.

The scalar functions in :mod:`repro.phy.fm0` are the *reference
implementation*: one frame at a time, per-symbol Python loops, trivially
auditable against the paper.  Every BER sweep, fault sweep and campaign
epoch funnels through them, which made them the cost ceiling on the
uplink experiments.  This module re-implements the hot path as batched
numpy kernels operating on ``(trials, symbols, samples)`` tensors:

* :func:`encode_levels_batch` / :func:`encode_baseband_batch` -- FM0
  encoding of a whole ``(trials, bits)`` matrix in closed form (the
  level of any half-symbol is a parity, not a running state);
* :func:`matched_filter_bank` -- the shared, precomputed correlator
  bank (one per ``samples_per_symbol``, cached);
* :class:`Fm0BatchDecoder` -- maximum-likelihood decoding of a whole
  trial batch with one matched-filter matmul and a vectorized
  phase-tracking state machine (the per-symbol loop runs over the
  symbol axis only; every step operates on all trials at once).

Equivalence contract (enforced by ``tests/test_phy_batch_equivalence``):
the batch kernels produce **bit-identical** levels, waveforms and
decoded bits to the scalar reference -- the matched-filter scores are
per-element dot products over the same samples in the same order, so
even the floats match exactly.

Engine dispatch
---------------

The consumers that keep both implementations
(``UplinkBasebandSimulator.measure_ber``, ``WallSession.charge``) ask
:func:`default_engine` which one to run: ``"batch"`` unless a
:func:`use_engine` block says otherwise.  ``"scalar"`` forces the
reference path for everything inside the block -- the oracle checks
flip whole experiments that way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from ..errors import DecodingError, EncodingError, ReproError

#: Engine names understood by :func:`use_engine`.
ENGINES = ("batch", "scalar")

_engine = "batch"


class EngineError(ReproError):
    """An unknown scalar/batch engine name was requested."""


def default_engine() -> str:
    """The engine in force: ``"batch"`` outside any :func:`use_engine`."""
    return _engine


@contextmanager
def use_engine(name: str) -> Iterator[str]:
    """Temporarily force the ambient engine (tests, CI cross-checks).

    >>> with use_engine("scalar"):
    ...     default_engine()
    'scalar'
    """
    global _engine
    if name not in ENGINES:
        raise EngineError(
            f"unknown PHY engine {name!r}; expected one of {ENGINES}"
        )
    previous = _engine
    _engine = name
    try:
        yield name
    finally:
        _engine = previous


# ----------------------------------------------------------------------
# Batched FM0 encoding
# ----------------------------------------------------------------------

def _as_bit_matrix(bits) -> "tuple[np.ndarray, np.ndarray]":
    """Coerce to a (trials, symbols) int matrix; returns (matrix, zeros mask)."""
    matrix = np.asarray(bits)
    if matrix.ndim == 1:
        matrix = matrix[None, :]
    if matrix.ndim != 2:
        raise EncodingError(
            f"bits must be a 1-D frame or a (trials, bits) matrix, got "
            f"shape {matrix.shape}"
        )
    matrix = matrix.astype(np.int64, copy=False)
    zeros = matrix == 0
    if matrix.size and not (zeros | (matrix == 1)).all():
        bad = matrix[~(zeros | (matrix == 1))].flat[0]
        raise EncodingError(f"bits must be 0/1, got {bad!r}")
    return matrix, zeros


def encode_levels_batch(bits, initial_level: int = 1) -> np.ndarray:
    """FM0 levels for a ``(trials, symbols)`` bit matrix, in closed form.

    Returns a ``(trials, symbols, 2)`` int array of (first-half,
    second-half) levels, bit-identical to running the scalar
    :func:`repro.phy.fm0.encode_levels` on every row.

    The scalar encoder carries a running level that flips at every
    symbol boundary and again mid-symbol for bit 0.  The level of
    symbol ``i``'s first half is therefore just a parity::

        first[i] = initial ^ parity(i + 1 + zeros_among(bits[:i]))
        second[i] = first[i] ^ (bits[i] == 0)

    which vectorizes over both axes with one cumulative sum.
    """
    if initial_level not in (0, 1):
        raise EncodingError("initial level must be 0 or 1")
    matrix, zeros = _as_bit_matrix(bits)
    trials, symbols = matrix.shape
    # zeros among bits[:, :i]  (exclusive prefix count per row)
    zeros_before = np.cumsum(zeros, axis=1) - zeros
    boundary_flips = np.arange(1, symbols + 1, dtype=np.int64)[None, :]
    first = int(initial_level) ^ ((boundary_flips + zeros_before) & 1)
    levels = np.empty((trials, symbols, 2), dtype=np.int64)
    levels[:, :, 0] = first
    levels[:, :, 1] = first ^ zeros
    return levels


def encode_baseband_batch(
    bits,
    samples_per_symbol: int,
    initial_level: int = 1,
) -> np.ndarray:
    """Sampled FM0 baseband for a whole trial batch.

    Returns a ``(trials, symbols * samples_per_symbol)`` float64 array
    whose rows are bit-identical to the scalar
    :func:`repro.phy.fm0.encode_baseband` of each frame.
    """
    if samples_per_symbol < 2 or samples_per_symbol % 2 != 0:
        raise EncodingError(
            f"samples_per_symbol must be an even integer >= 2, got "
            f"{samples_per_symbol}"
        )
    levels = encode_levels_batch(bits, initial_level)
    trials, symbols = levels.shape[:2]
    half = samples_per_symbol // 2
    # (trials, symbols, 2) -> (trials, symbols * sps): each half-level
    # repeated `half` times (one broadcast copy), exactly the scalar
    # np.full + concatenate values.
    waveform = np.empty((trials, symbols * 2, half))
    waveform[:] = levels.reshape(trials, symbols * 2, 1)
    return waveform.reshape(trials, symbols * samples_per_symbol)


# ----------------------------------------------------------------------
# The shared matched-filter bank
# ----------------------------------------------------------------------

@lru_cache(maxsize=32)
def matched_filter_bank(samples_per_symbol: int) -> np.ndarray:
    """The four +/-1 FM0 correlator rows, precomputed once per symbol size.

    Row order is ``[bit0/start0, bit0/start1, bit1/start0, bit1/start1]``
    -- the exact stacking the scalar decoder builds per call, so batch
    and scalar matched-filter scores are the same dot products.  The
    array is cached and frozen (read-only).
    """
    if samples_per_symbol < 2 or samples_per_symbol % 2 != 0:
        raise DecodingError(
            "samples_per_symbol must be an even integer >= 2, got "
            f"{samples_per_symbol}"
        )
    half = samples_per_symbol // 2
    bank = np.empty((4, samples_per_symbol))
    for start_level, sign in ((0, -1.0), (1, 1.0)):
        # bit 0: mid-symbol inversion; bit 1: constant level.
        bank[start_level] = np.concatenate(
            [sign * np.ones(half), -sign * np.ones(half)]
        )
        bank[2 + start_level] = sign * np.ones(samples_per_symbol)
    bank.setflags(write=False)
    return bank


# ----------------------------------------------------------------------
# Batched maximum-likelihood decoding
# ----------------------------------------------------------------------

@dataclass
class Fm0BatchDecoder:
    """Vectorized ML FM0 decoder for a ``(trials, samples)`` waveform batch.

    Mirrors :class:`repro.phy.fm0.Fm0Decoder` decision-for-decision:
    the same correlator bank, the same phase-consistent preference, the
    same ``2x``-score phase-slip fallback, the same tie-breaking
    (``argmax`` keeps the first maximum).  The per-symbol loop runs over
    the symbol axis only; each step is a handful of O(trials) numpy ops.

    Args:
        samples_per_symbol: Even number of samples per bit.
        initial_level: The encoder's starting level.
    """

    samples_per_symbol: int
    initial_level: int = 1

    def __post_init__(self) -> None:
        if self.samples_per_symbol < 2 or self.samples_per_symbol % 2 != 0:
            raise DecodingError(
                "samples_per_symbol must be an even integer >= 2, got "
                f"{self.samples_per_symbol}"
            )
        if self.initial_level not in (0, 1):
            raise DecodingError("initial level must be 0 or 1")
        self._bank = matched_filter_bank(self.samples_per_symbol)

    def decode(self, waveforms: np.ndarray) -> np.ndarray:
        """Decode a ``(trials, symbols * sps)`` batch into (trials, symbols) bits.

        A 1-D waveform is treated as a single trial.  Zero-trial and
        zero-symbol batches decode to correspondingly empty bit arrays.
        """
        waveforms = np.asarray(waveforms, dtype=np.float64)
        if waveforms.ndim == 1:
            waveforms = waveforms[None, :]
        if waveforms.ndim != 2:
            raise DecodingError(
                f"expected a (trials, samples) batch, got shape "
                f"{waveforms.shape}"
            )
        trials, length = waveforms.shape
        n = self.samples_per_symbol
        if length % n != 0:
            raise DecodingError(
                f"waveform length {length} is not a multiple of the "
                f"symbol length {n}"
            )
        symbols = length // n
        if trials == 0 or symbols == 0:
            return np.zeros((trials, symbols), dtype=np.int64)

        # One matmul scores every (trial, symbol) against all four
        # bases: (trials*symbols, sps) @ (sps, 4).  Each output element
        # is the same dot product the scalar decoder computes.
        scores = (
            waveforms.reshape(trials * symbols, n) @ self._bank.T
        ).reshape(trials, symbols, 4)

        bits = np.empty((trials, symbols), dtype=np.int64)
        level = np.full(trials, self.initial_level, dtype=np.int64)
        rows = np.arange(trials)
        for s in range(symbols):
            step = scores[:, s, :]  # (trials, 4)
            expected_start = 1 - level
            # Phase-consistent hypotheses: column index = bit*2 + start.
            consistent0 = step[rows, expected_start]
            consistent1 = step[rows, 2 + expected_start]
            best_bit = (consistent1 > consistent0).astype(np.int64)
            best_score = np.where(best_bit == 1, consistent1, consistent0)
            # Phase-slip fallback: the raw maximum, when clearly better.
            alt_flat = np.argmax(step, axis=1)
            slip = step[rows, alt_flat] > 2.0 * np.abs(best_score)
            bit = np.where(slip, alt_flat // 2, best_bit)
            start = np.where(slip, alt_flat % 2, expected_start)
            bits[:, s] = bit
            level = np.where(bit == 1, start, 1 - start)
        return bits


__all__ = [
    "ENGINES",
    "EngineError",
    "Fm0BatchDecoder",
    "default_engine",
    "encode_baseband_batch",
    "encode_levels_batch",
    "matched_filter_bank",
    "use_engine",
]
