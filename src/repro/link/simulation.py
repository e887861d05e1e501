"""End-to-end link simulations: uplink BER/SNR/throughput, downlink SNR.

Three simulators back the paper's link experiments:

* ``UplinkBasebandSimulator`` -- Monte-Carlo FM0 decoding at complex
  baseband (the post-downconversion view) with a packet-level sync
  stage; produces the BER-vs-SNR waterfall of Fig. 15.
* ``UplinkPassbandSimulator`` -- the full carrier-level chain (CBW ->
  impedance switch -> multipath channel -> receiver DSP) for waveform-
  accurate figures (Fig. 22 demodulated signal, Fig. 24 spectrum).
* ``DownlinkSimulator`` -- PIE over FSK vs OOK through a concrete
  block's frequency response, including the ring tail (Fig. 20).

Plus ``SnrBitrateModel``, the narrowband-carrier model behind Fig. 16:
higher bitrates widen the occupied band; when the band approaches the
transducer/concrete resonance bandwidth, SNR collapses -- at ~13 kbps
for EcoCapsule's 230 kHz carrier, ~3 kbps for PAB's 15 kHz one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..acoustics import (
    ConcreteBlock,
    FrequencyResponse,
    RingdownModel,
    fsk_symbol_waveform,
    low_edge_residual,
    ook_symbol_waveform,
)
from ..errors import AcousticsError, DecodingError
from ..obs import obs_counter, obs_enabled, obs_span
from ..phy import (
    Fm0Decoder,
    LinkStatistics,
    bipolar,
    fm0_encode_baseband,
)
from ..phy.batch import (
    Fm0BatchDecoder,
    default_engine,
    encode_baseband_batch,
)
from ..phy.modem import BackscatterModulator
from ..units import db_amplitude

#: Default RNG seed for the Monte-Carlo simulators.  A fixed value (not
#: ``None``) so that out-of-the-box runs are reproducible and the
#: experiment runtime can record the seed in run manifests; pass
#: ``seed=None`` explicitly to opt back into OS-entropy draws.
DEFAULT_SIMULATION_SEED = 0x5EC0  # "SEnsing COncrete"


@dataclass(frozen=True)
class UplinkResult:
    """Outcome of one simulated uplink transfer."""

    bits_sent: int
    bit_errors: int
    duration: float
    snr_db: float
    synced: bool

    @property
    def ber(self) -> float:
        if self.bits_sent == 0:
            raise DecodingError("no bits in the result")
        return self.bit_errors / self.bits_sent

    @property
    def throughput(self) -> float:
        """Correct bits per second (the paper's Fig. 17 metric)."""
        return (self.bits_sent - self.bit_errors) / self.duration


@dataclass
class UplinkBasebandSimulator:
    """Monte-Carlo FM0 uplink at baseband.

    The ``snr_db`` argument of :meth:`run` is Eb/N0 in dB -- equivalent
    to the in-band SNR measured in a bandwidth equal to the bitrate,
    which is how the paper's spectrum-based measurement behaves.

    The ``snr_db`` fed to :meth:`run` is the *spectrum-measured* in-band
    SNR, as the paper's receiver reports it; the decoder's matched
    filter recovers ``processing_gain_db`` on top of it before symbol
    decisions.

    Two mechanisms guard each packet, reproducing the paper's
    observation that the reader "can tolerate a minimum SNR of
    approximately 2 dB, where the BER is nearly 0.5":

    * a carrier/timing detection stage whose success probability is a
      sharp logistic in the measured SNR (below ~3.5 dB the receiver
      cannot even locate the packet in the capture);
    * a known-preamble correlation check; a failed correlation also
      aborts the lock.

    An unlocked packet decodes as coin flips.

    :meth:`measure_ber` runs the engine in force
    (:func:`repro.phy.batch.default_engine`): ``"batch"`` decodes the
    synced packets with the vectorized kernels, ``"scalar"`` walks them
    through the per-packet reference path.  The RNG draw order is
    identical across engines, so a given seed yields the same packet
    stream -- and the same BER -- regardless of engine.
    """

    samples_per_symbol: int = 10
    preamble: Sequence[int] = (1, 0, 1, 0, 1, 1, 0, 0)
    sync_threshold: float = 0.5
    processing_gain_db: float = 6.0
    detection_center_db: float = 3.5
    detection_scale_db: float = 0.45
    seed: Optional[int] = DEFAULT_SIMULATION_SEED

    def __post_init__(self) -> None:
        if self.samples_per_symbol < 2 or self.samples_per_symbol % 2:
            raise DecodingError("samples_per_symbol must be even and >= 2")
        if not 0.0 < self.sync_threshold < 1.0:
            raise DecodingError("sync threshold must be in (0, 1)")
        self._rng = np.random.default_rng(self.seed)

    def noise_sigma(self, snr_db: float, amplitude: float = 1.0) -> float:
        """Per-sample noise sigma for a measured in-band SNR of ``snr_db``.

        The decoder operates at Eb/N0 = snr + processing gain; with
        Eb = n A^2 (n samples of +/-A per bit) and N0/2 = sigma^2 per
        sample, Eb/N0 = n A^2 / (2 sigma^2).
        """
        ebn0 = 10.0 ** ((snr_db + self.processing_gain_db) / 10.0)
        n = self.samples_per_symbol
        return amplitude * math.sqrt(n / (2.0 * ebn0))

    def detection_probability(self, snr_db: float) -> float:
        """Probability the receiver locates and locks onto the packet."""
        x = (snr_db - self.detection_center_db) / self.detection_scale_db
        # Clamp to avoid overflow for very low/high SNRs.
        if x < -40.0:
            return 0.0
        if x > 40.0:
            return 1.0
        return 1.0 / (1.0 + math.exp(-x))

    def run(
        self, payload: Sequence[int], bitrate: float, snr_db: float
    ) -> UplinkResult:
        """Send ``payload`` once at ``bitrate`` and Eb/N0 ``snr_db``."""
        if bitrate <= 0.0:
            raise DecodingError("bitrate must be positive")
        payload = list(payload)
        if not payload:
            raise DecodingError("payload cannot be empty")

        bits = list(self.preamble) + payload
        n = self.samples_per_symbol
        clean = bipolar(fm0_encode_baseband(bits, n))
        sigma = self.noise_sigma(snr_db)
        received = clean + self._rng.normal(0.0, sigma, size=clean.size)

        # Detection stage: can the receiver locate the packet at all?
        detected = self._rng.random() < self.detection_probability(snr_db)

        # Sync stage: correlate the known preamble waveform.
        p_len = len(self.preamble) * n
        template = clean[:p_len]
        correlation = float(np.dot(received[:p_len], template))
        normaliser = float(np.dot(template, template))
        synced = detected and correlation >= self.sync_threshold * normaliser

        duration = len(payload) / bitrate
        if not synced:
            # The receiver never locks; the payload is effectively random.
            flips = int(self._rng.binomial(len(payload), 0.5))
            result = UplinkResult(
                bits_sent=len(payload),
                bit_errors=flips,
                duration=duration,
                snr_db=snr_db,
                synced=False,
            )
        else:
            decoder = Fm0Decoder(samples_per_symbol=n)
            decoded = decoder.decode(received)
            errors = sum(
                1 for a, b in zip(decoded[len(self.preamble):], payload)
                if a != b
            )
            result = UplinkResult(
                bits_sent=len(payload),
                bit_errors=errors,
                duration=duration,
                snr_db=snr_db,
                synced=True,
            )
        if obs_enabled():
            obs_counter("link.uplink.packets").inc()
            obs_counter("link.uplink.bits_sent").inc(result.bits_sent)
            obs_counter("link.uplink.bit_errors").inc(result.bit_errors)
            obs_counter("link.uplink.symbols_simulated").inc(clean.size)
            if not result.synced:
                obs_counter("link.uplink.sync_failures").inc()
        return result

    def _transfer_draws(self, payload: Sequence[int], snr_db: float) -> dict:
        """One packet's RNG draws + sync decision, decode deferred.

        Consumes ``self._rng`` in exactly the order :meth:`run` does
        (noise normal -> detection uniform -> coin-flip binomial when
        unsynced), so scalar and batch engines see identical streams.
        """
        n = self.samples_per_symbol
        bits = np.concatenate(
            [np.asarray(self.preamble, dtype=np.int64),
             np.asarray(payload, dtype=np.int64)]
        )
        clean = bipolar(encode_baseband_batch(bits, n)[0])
        sigma = self.noise_sigma(snr_db)
        received = clean + self._rng.normal(0.0, sigma, size=clean.size)
        detected = self._rng.random() < self.detection_probability(snr_db)
        p_len = len(self.preamble) * n
        template = clean[:p_len]
        correlation = float(np.dot(received[:p_len], template))
        normaliser = float(np.dot(template, template))
        synced = detected and correlation >= self.sync_threshold * normaliser
        flips = 0
        if not synced:
            flips = int(self._rng.binomial(len(payload), 0.5))
        return {
            "received": received,
            "synced": synced,
            "flips": flips,
            "samples": clean.size,
        }

    def measure_ber(
        self,
        snr_db: float,
        bitrate: float = 1e3,
        total_bits: int = 20_000,
        packet_bits: int = 200,
    ) -> float:
        """Monte-Carlo BER at one SNR point (Fig. 15 harness).

        Dispatches on the engine in force (see the class docstring):
        the default batch engine produces bit-identical BERs to the
        scalar reference with the decode vectorized across packets.
        """
        if total_bits <= 0 or packet_bits <= 0:
            raise DecodingError("bit counts must be positive")
        with obs_span(
            "link.measure_ber", snr_db=snr_db, total_bits=total_bits
        ):
            if default_engine() == "scalar":
                ber = self._measure_ber_scalar(
                    snr_db, bitrate, total_bits, packet_bits
                )
            else:
                ber = self._measure_ber_batch(
                    snr_db, bitrate, total_bits, packet_bits
                )
        obs_counter("link.uplink.ber_points").inc()
        return ber

    def _measure_ber_scalar(
        self, snr_db: float, bitrate: float, total_bits: int, packet_bits: int
    ) -> float:
        """Reference implementation: one :meth:`run` per packet."""
        stats = LinkStatistics()
        sent = 0
        while sent < total_bits:
            payload = list(self._rng.integers(0, 2, size=packet_bits))
            result = self.run(payload, bitrate, snr_db)
            stats.bits_sent += result.bits_sent
            stats.bits_correct += result.bits_sent - result.bit_errors
            stats.trials += 1
            stats.elapsed += result.duration
            sent += packet_bits
        return stats.ber

    def _measure_ber_batch(
        self,
        snr_db: float,
        bitrate: float,
        total_bits: int,
        packet_bits: int,
    ) -> float:
        """Batched engine: per-packet RNG draws, one deferred batch decode.

        Draw order per packet matches the scalar path exactly (payload
        integers -> noise normal -> detection uniform -> coin-flip
        binomial when unsynced); only the matched-filter decode of the
        synced packets is deferred and batched, and the batch kernels
        are bit-identical to the scalar decoder, so the returned BER is
        byte-identical to the scalar engine at the same seed.
        """
        if bitrate <= 0.0:
            raise DecodingError("bitrate must be positive")
        stats = LinkStatistics()
        synced_rows = []
        synced_payloads = []
        total_symbols = 0
        sync_failures = 0
        errors = 0
        sent = 0
        duration = packet_bits / bitrate
        while sent < total_bits:
            payload = self._rng.integers(0, 2, size=packet_bits)
            transfer = self._transfer_draws(payload, snr_db)
            total_symbols += transfer["samples"]
            if transfer["synced"]:
                synced_rows.append(transfer["received"])
                synced_payloads.append(payload)
            else:
                sync_failures += 1
                errors += transfer["flips"]
            stats.trials += 1
            stats.bits_sent += packet_bits
            stats.elapsed += duration
            sent += packet_bits
        if synced_rows:
            decoded = Fm0BatchDecoder(
                samples_per_symbol=self.samples_per_symbol
            ).decode(np.stack(synced_rows))
            payload_bits = decoded[:, len(self.preamble):]
            errors += int(
                np.count_nonzero(payload_bits != np.stack(synced_payloads))
            )
        stats.bits_correct = stats.bits_sent - errors
        if obs_enabled():
            obs_counter("link.uplink.packets").inc(stats.trials)
            obs_counter("link.uplink.bits_sent").inc(stats.bits_sent)
            obs_counter("link.uplink.bit_errors").inc(errors)
            obs_counter("link.uplink.symbols_simulated").inc(total_symbols)
            if sync_failures:
                obs_counter("link.uplink.sync_failures").inc(sync_failures)
        return stats.ber


@dataclass
class SnrBitrateModel:
    """SNR as a function of uplink bitrate (Fig. 16).

    Two effects stack:

    * matched-filter noise bandwidth grows with bitrate:
      ``-10 log10(bitrate / reference_bitrate)``;
    * the occupied band collides with the carrier's usable bandwidth --
      a fraction of the carrier frequency for a resonant PZT system --
      adding ``+20 log10(1 - (bitrate/band_limit)^2)`` which collapses
      at the knee (13 kbps for EcoCapsule, 3 kbps for PAB).

    Attributes:
        snr_at_reference: SNR (dB) at the reference bitrate.
        reference_bitrate: Bitrate anchoring the SNR (bit/s).
        band_limit: Bitrate (bit/s) where the band is exhausted.
    """

    snr_at_reference: float = 18.0
    reference_bitrate: float = 1e3
    band_limit: float = 21.7e3

    def __post_init__(self) -> None:
        if self.reference_bitrate <= 0.0 or self.band_limit <= 0.0:
            raise AcousticsError("bitrates must be positive")
        if self.band_limit <= self.reference_bitrate:
            raise AcousticsError("band limit must exceed the reference bitrate")

    def snr_db(self, bitrate: float) -> float:
        """Predicted SNR (dB) at ``bitrate``; -inf beyond the band limit."""
        if bitrate <= 0.0:
            raise AcousticsError("bitrate must be positive")
        if bitrate >= self.band_limit:
            return -math.inf
        bandwidth_term = -10.0 * math.log10(bitrate / self.reference_bitrate)
        crowding = 1.0 - (bitrate / self.band_limit) ** 2
        crowding_term = 20.0 * math.log10(crowding)
        return self.snr_at_reference + bandwidth_term + crowding_term

    def max_bitrate(self, min_snr_db: float = 3.0) -> float:
        """Highest bitrate (bit/s) keeping SNR above ``min_snr_db``.

        Paper: EcoCapsule's SNR "drops rapidly to 3 dB when the bitrate
        exceeds 13 kbps".
        """
        low, high = self.reference_bitrate, self.band_limit * 0.999
        if self.snr_db(low) < min_snr_db:
            return 0.0
        while high - low > 1.0:
            mid = 0.5 * (low + high)
            if self.snr_db(mid) >= min_snr_db:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high)


@dataclass
class UplinkPassbandSimulator:
    """Full carrier-level uplink for waveform-accurate reproductions.

    Drives a CBW through the impedance switch and a channel gain, then
    decodes with the reader's DSP.  Used for the Fig. 22 demodulated
    waveform and the Fig. 24 spectrum; the Monte-Carlo BER experiments
    use the faster baseband simulator.
    """

    carrier: float = 230e3
    sample_rate: float = 1e6
    modulator: BackscatterModulator = field(default_factory=BackscatterModulator)
    channel_gain: float = 0.05
    noise_floor: float = 2e-3
    seed: Optional[int] = DEFAULT_SIMULATION_SEED

    def __post_init__(self) -> None:
        if not 0.0 < self.carrier < self.sample_rate / 2.0:
            raise AcousticsError("carrier must be below Nyquist")
        if self.channel_gain <= 0.0:
            raise AcousticsError("channel gain must be positive")
        self._rng = np.random.default_rng(self.seed)

    def received_waveform(
        self, bits: Sequence[int], cbw_amplitude: float = 1.0
    ) -> np.ndarray:
        """The reader's raw capture for an uplink transfer of ``bits``.

        Contains the (self-interfering) CBW leakage plus the shifted
        backscatter sidebands plus receiver noise -- the Fig. 24 picture.
        """
        n = self.modulator.samples_per_symbol(self.sample_rate)
        total = n * len(bits)
        t = np.arange(total) / self.sample_rate
        cbw = cbw_amplitude * np.sin(2.0 * math.pi * self.carrier * t)
        backscattered = self.modulator.reflect(cbw, bits, self.sample_rate)
        # Leakage: S-reflections and surface waves are ~10x the
        # backscatter at the RX (Sec. 3.4).
        leakage = 10.0 * self.channel_gain * cbw_amplitude
        received = (
            leakage * np.sin(2.0 * math.pi * self.carrier * t)
            + self.channel_gain * backscattered
        )
        noise = self._rng.normal(0.0, self.noise_floor, size=received.size)
        return received + noise

    def demodulate(self, waveform: np.ndarray) -> np.ndarray:
        """Backscatter envelope (the Fig. 22 square wave)."""
        from ..reader import ReaderReceiver

        receiver = ReaderReceiver(
            sample_rate=self.sample_rate, modulator=self.modulator
        )
        return receiver.baseband(waveform, carrier=self.carrier)

    def run(self, bits: Sequence[int]) -> UplinkResult:
        """Transfer ``bits`` and decode them with the reader DSP."""
        from ..reader import ReaderReceiver

        bits = list(bits)
        waveform = self.received_waveform(bits)
        receiver = ReaderReceiver(
            sample_rate=self.sample_rate, modulator=self.modulator
        )
        decoded = receiver.decode(waveform, len(bits), carrier=self.carrier)
        errors = sum(1 for a, b in zip(decoded, bits) if a != b)
        snr = receiver.uplink_snr_db(waveform, carrier=self.carrier)
        if obs_enabled():
            obs_counter("link.uplink.passband_transfers").inc()
            obs_counter("link.uplink.bits_sent").inc(len(bits))
            obs_counter("link.uplink.bit_errors").inc(errors)
        return UplinkResult(
            bits_sent=len(bits),
            bit_errors=errors,
            duration=len(bits) / self.modulator.bitrate,
            snr_db=snr,
            synced=True,
        )


@dataclass
class DownlinkSimulator:
    """PIE-over-FSK vs PIE-over-OOK comparison through a concrete block.

    Produces the per-bitrate downlink SNR of Fig. 20: the OOK low edge
    is polluted by the PZT ring tail (worse as symbols shrink), while
    the FSK low edge is a cleanly suppressed off-resonance tone.
    """

    block: ConcreteBlock
    ringdown: RingdownModel = field(default_factory=RingdownModel)
    sample_rate: float = 4e6
    off_frequency: float = 180e3

    def __post_init__(self) -> None:
        if self.sample_rate <= 0.0:
            raise AcousticsError("sample rate must be positive")
        self._response = FrequencyResponse(self.block)

    def edge_durations(self, bitrate: float) -> float:
        """High/low edge length (s) for a bit-0 symbol at ``bitrate``."""
        if bitrate <= 0.0:
            raise AcousticsError("bitrate must be positive")
        return 0.5 / bitrate

    def symbol_waveform(self, bitrate: float, scheme: str) -> np.ndarray:
        """One received bit-0 symbol under ``scheme`` ('fsk' or 'ook')."""
        edge = self.edge_durations(bitrate)
        if scheme == "ook":
            return ook_symbol_waveform(
                self.ringdown, edge, edge, self.sample_rate
            )
        if scheme == "fsk":
            return fsk_symbol_waveform(
                self.ringdown,
                self._response,
                edge,
                edge,
                self.sample_rate,
                off_frequency=self.off_frequency,
            )
        raise AcousticsError(f"unknown downlink scheme {scheme!r}")

    def symbol_snr_db(self, bitrate: float, scheme: str) -> float:
        """Downlink symbol SNR (dB): high-edge RMS over low-edge residual.

        The PIE decoder distinguishes edges by amplitude, so the relevant
        'noise' is whatever amplitude survives in the low edge -- ring
        tail for OOK, suppressed off-tone for FSK.
        """
        waveform = self.symbol_waveform(bitrate, scheme)
        if obs_enabled():
            obs_counter("link.downlink.symbols_simulated").inc()
            obs_counter(f"link.downlink.symbols.{scheme}").inc()
        edge = self.edge_durations(bitrate)
        residual = low_edge_residual(waveform, edge, self.sample_rate)
        if residual <= 0.0:
            return math.inf
        return db_amplitude(1.0 / residual)

    def fsk_gain(self, bitrate: float) -> float:
        """Linear SNR improvement factor of FSK over OOK (paper: 3-5x)."""
        ook = self.symbol_snr_db(bitrate, "ook")
        fsk = self.symbol_snr_db(bitrate, "fsk")
        return 10.0 ** ((fsk - ook) / 20.0)
