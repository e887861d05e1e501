"""Receiver DSP: carrier estimation, downconversion, filtering, envelopes.

Re-implements the reader's MATLAB post-processing pipeline (Sec. 5.1):
the decoder "first takes a carrier frequency estimation by analyzing the
power carrier and then performs a digital downconversion to extract the
baseband backscatter signal", before ML FM0 decoding.

``scipy.signal`` is imported inside the functions that use it: it costs
most of a cold ``import repro``, and neither a campaign nor the serving
tier calls it.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..errors import DecodingError


def estimate_carrier(waveform: np.ndarray, sample_rate: float) -> float:
    """Estimate the dominant carrier frequency (Hz) via an FFT peak.

    Uses parabolic interpolation around the peak bin for sub-bin accuracy.
    """
    waveform = np.asarray(waveform, dtype=float)
    if waveform.size < 16:
        raise DecodingError("waveform too short for carrier estimation")
    if sample_rate <= 0.0:
        raise DecodingError("sample rate must be positive")
    # Remove the mean first: a strong DC term leaks through the window
    # into the lowest bins and would shadow the carrier peak.
    waveform = waveform - np.mean(waveform)
    spectrum = np.abs(np.fft.rfft(waveform * np.hanning(waveform.size)))
    spectrum[0] = 0.0  # ignore residual DC
    peak = int(np.argmax(spectrum))
    if peak == 0 or peak >= spectrum.size - 1:
        return peak * sample_rate / waveform.size
    # Parabolic interpolation on log magnitude.
    with np.errstate(divide="ignore"):
        a, b, c = np.log(spectrum[peak - 1 : peak + 2] + 1e-30)
    denom = a - 2.0 * b + c
    offset = 0.0 if denom == 0.0 else 0.5 * (a - c) / denom
    return (peak + offset) * sample_rate / waveform.size


def downconvert(
    waveform: np.ndarray,
    sample_rate: float,
    carrier: float,
    bandwidth: float,
) -> np.ndarray:
    """Complex baseband: mix by ``carrier`` and low-pass to ``bandwidth``.

    Returns the analytic baseband signal whose magnitude is the envelope
    of the band around the carrier and whose phase carries the
    backscatter modulation.
    """
    waveform = np.asarray(waveform, dtype=float)
    if not 0.0 < carrier < sample_rate / 2.0:
        raise DecodingError(
            f"carrier {carrier} outside (0, Nyquist={sample_rate / 2.0})"
        )
    if not 0.0 < bandwidth < sample_rate / 2.0:
        raise DecodingError("bandwidth must be in (0, Nyquist)")
    t = np.arange(waveform.size) / sample_rate
    mixed = waveform * np.exp(-2j * math.pi * carrier * t)
    return _lowpass_complex(mixed, sample_rate, bandwidth)


def _lowpass_complex(
    x: np.ndarray, sample_rate: float, cutoff: float, order: int = 5
) -> np.ndarray:
    from scipy import signal as sp_signal

    nyquist = sample_rate / 2.0
    normalised = min(cutoff / nyquist, 0.99)
    b, a = sp_signal.butter(order, normalised)
    return sp_signal.filtfilt(b, a, x.real) + 1j * sp_signal.filtfilt(b, a, x.imag)


def lowpass(x: np.ndarray, sample_rate: float, cutoff: float, order: int = 5) -> np.ndarray:
    """Zero-phase Butterworth low-pass of a real signal."""
    from scipy import signal as sp_signal

    if not 0.0 < cutoff < sample_rate / 2.0:
        raise DecodingError("cutoff must be in (0, Nyquist)")
    nyquist = sample_rate / 2.0
    b, a = sp_signal.butter(order, cutoff / nyquist)
    return sp_signal.filtfilt(b, a, np.asarray(x, dtype=float))


def bandpass(
    x: np.ndarray,
    sample_rate: float,
    low: float,
    high: float,
    order: int = 4,
) -> np.ndarray:
    """Zero-phase Butterworth band-pass of a real signal."""
    from scipy import signal as sp_signal

    nyquist = sample_rate / 2.0
    if not 0.0 < low < high < nyquist:
        raise DecodingError(f"band ({low}, {high}) invalid for Nyquist {nyquist}")
    b, a = sp_signal.butter(order, [low / nyquist, high / nyquist], btype="band")
    return sp_signal.filtfilt(b, a, np.asarray(x, dtype=float))


def envelope(waveform: np.ndarray) -> np.ndarray:
    """Amplitude envelope via the Hilbert transform."""
    from scipy import signal as sp_signal

    waveform = np.asarray(waveform, dtype=float)
    if waveform.size == 0:
        raise DecodingError("cannot compute the envelope of an empty waveform")
    return np.abs(sp_signal.hilbert(waveform))


def remove_dc(x: np.ndarray) -> np.ndarray:
    """Subtract the mean (the backscatter DC term after downconversion)."""
    x = np.asarray(x)
    return x - np.mean(x)


def power_spectrum(
    waveform: np.ndarray, sample_rate: float
) -> Tuple[np.ndarray, np.ndarray]:
    """(frequencies, power) one-sided spectrum for plots like Fig. 24."""
    from scipy import signal as sp_signal

    waveform = np.asarray(waveform, dtype=float)
    if waveform.size < 2:
        raise DecodingError("waveform too short for a spectrum")
    freqs, psd = sp_signal.periodogram(waveform, fs=sample_rate, window="hann")
    return freqs, psd


def measure_snr_db(
    waveform: np.ndarray,
    sample_rate: float,
    signal_band: Tuple[float, float],
    noise_band: Tuple[float, float],
) -> float:
    """In-band SNR (dB): signal-band power over noise-band power density.

    Both bands are integrated from the periodogram; the noise band's
    density is scaled to the signal bandwidth before the ratio, so the
    measurement matches the classic spectrum-analyzer procedure.
    """
    freqs, psd = power_spectrum(waveform, sample_rate)

    def band_power(band: Tuple[float, float]) -> float:
        low, high = band
        mask = (freqs >= low) & (freqs <= high)
        if not np.any(mask):
            raise DecodingError(f"band {band} contains no spectral bins")
        # np.trapz was removed in NumPy 2; integrate manually.
        return float(np.sum(0.5 * (psd[mask][1:] + psd[mask][:-1])
                            * np.diff(freqs[mask])))

    sig = band_power(signal_band)
    sig_width = signal_band[1] - signal_band[0]
    noise_width = noise_band[1] - noise_band[0]
    noise = band_power(noise_band) * (sig_width / noise_width)
    if noise <= 0.0:
        raise DecodingError("noise band has no power; SNR undefined")
    if sig <= 0.0:
        return -math.inf
    return 10.0 * math.log10(sig / noise)
