"""The data encoding and decoding pipeline (paper section 2.3).

Transmit direction (:class:`DataEncoder`):

1. rate-2/3 convolutional coding (constraint length 7);
2. interleaving of the coded bits across the selected subcarriers
   (symbol-first fill, one-third-band stride within a symbol);
3. differential BPSK across consecutive OFDM symbols per subcarrier,
   with a known CAZAC training symbol acting both as equalizer training
   and as the differential reference;
4. OFDM modulation restricted to the selected band (bins outside the band
   are zero), fixed per-symbol transmit power, cyclic prefix.

Receive direction (:class:`DataDecoder`):

1. 1-4 kHz FIR band-pass filtering;
2. time-domain MMSE equalization fitted on the training symbol;
3. per-symbol FFT, extraction of the selected band;
4. differential demodulation (soft values from the phase difference of
   consecutive symbols);
5. de-interleaving and Viterbi decoding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.adaptation import BandSelection
from repro.core.config import (
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    EQUALIZER_NUM_TAPS,
    SAMPLE_RATE_HZ,
    OFDMConfig,
)
from repro.core.equalizer import MMSEEqualizer
from repro.core.ofdm import OFDMModulator
from repro.dsp.filters import FIRBandpassFilter
from repro.dsp.sequences import zadoff_chu
from repro.fec.convolutional import PuncturedConvolutionalCode
from repro.fec.interleaver import SubcarrierInterleaver

_EPS = 1e-30


@dataclass(frozen=True)
class EncodedPacket:
    """A fully encoded data burst ready for transmission.

    Attributes
    ----------
    waveform:
        Time-domain samples: training symbol followed by the data symbols
        (each with its cyclic prefix).
    band:
        The band selection the packet was encoded for.
    num_payload_bits:
        Number of information bits carried.
    num_coded_bits:
        Number of coded bits after the convolutional code.
    num_data_symbols:
        Number of OFDM data symbols (excluding the training symbol).
    """

    waveform: np.ndarray
    band: BandSelection
    num_payload_bits: int
    num_coded_bits: int
    num_data_symbols: int


@dataclass(frozen=True)
class DecodedPacket:
    """Result of decoding a data burst.

    Attributes
    ----------
    bits:
        The decoded payload bits.
    soft_bits:
        The de-interleaved soft coded bits fed to the Viterbi decoder
        (useful for diagnostics and the uncoded-BER evaluations).
    hard_coded_bits:
        Hard decisions on the coded bits before Viterbi decoding.
    """

    bits: np.ndarray
    soft_bits: np.ndarray
    hard_coded_bits: np.ndarray


class DataEncoder:
    """Encodes payload bits into an OFDM burst inside a selected band."""

    def __init__(
        self,
        ofdm_config: OFDMConfig | None = None,
        use_differential: bool = True,
        use_interleaving: bool = True,
    ) -> None:
        self.ofdm_config = ofdm_config or OFDMConfig()
        self.use_differential = bool(use_differential)
        self.use_interleaving = bool(use_interleaving)
        self._modulator = OFDMModulator(self.ofdm_config)
        self._code = PuncturedConvolutionalCode()
        # Per-band caches: the training waveform and its CAZAC values are
        # deterministic for a band, and band selections repeat heavily
        # across the packets of a session.  Entries are read-only arrays.
        self._training_values_cache: dict[int, np.ndarray] = {}
        self._training_symbol_cache: dict[tuple[int, int], np.ndarray] = {}

    # ------------------------------------------------------------------ helpers
    def training_bin_values(self, band: BandSelection) -> np.ndarray:
        """CAZAC values used for the training symbol inside the band."""
        cached = self._training_values_cache.get(band.num_bins)
        if cached is None:
            cached = zadoff_chu(band.num_bins, root=3)
            cached.setflags(write=False)
            self._training_values_cache[band.num_bins] = cached
        return cached

    def training_symbol(self, band: BandSelection) -> np.ndarray:
        """Return the known training symbol waveform for a band."""
        key = (band.start_bin, band.end_bin)
        cached = self._training_symbol_cache.get(key)
        if cached is None:
            bins = band.absolute_bins()
            cached = self._modulator.modulate(
                self.training_bin_values(band), bins, add_cyclic_prefix=True
            )
            cached.setflags(write=False)
            self._training_symbol_cache[key] = cached
        return cached

    def num_data_symbols(self, num_payload_bits: int, band: BandSelection) -> int:
        """Number of OFDM data symbols needed for a payload in a band."""
        coded = self._code.coded_length(num_payload_bits)
        interleaver = SubcarrierInterleaver(band.num_bins)
        return max(1, interleaver.num_symbols(coded))

    # ------------------------------------------------------------------ encode
    def encode(self, payload_bits: np.ndarray, band: BandSelection) -> EncodedPacket:
        """Encode ``payload_bits`` for transmission in ``band``."""
        payload_bits = np.asarray(payload_bits, dtype=int).ravel()
        if payload_bits.size == 0:
            raise ValueError("payload must contain at least one bit")
        if not np.all((payload_bits == 0) | (payload_bits == 1)):
            raise ValueError("payload bits must be 0 or 1")
        coded_bits = self._code.encode(payload_bits)
        interleaver = SubcarrierInterleaver(band.num_bins)
        if self.use_interleaving:
            grid = interleaver.interleave(coded_bits)
        else:
            n_symbols = interleaver.num_symbols(coded_bits.size)
            grid = np.zeros((n_symbols, band.num_bins), dtype=int)
            flat = grid.reshape(-1)
            flat[: coded_bits.size] = coded_bits
            grid = flat.reshape(n_symbols, band.num_bins)

        bins = band.absolute_bins()
        reference = self.training_bin_values(band)
        antipodal = 1.0 - 2.0 * grid.astype(float)
        if self.use_differential:
            # Differential BPSK: symbol k carries the running sign product,
            # so the per-symbol recurrence collapses to one cumulative
            # product (the signs are exactly +/-1, keeping this exact).
            values = reference[None, :] * np.cumprod(antipodal, axis=0)
        else:
            values = reference[None, :] * antipodal
        data_symbols = self._modulator.modulate_many(values, bins, add_cyclic_prefix=True)
        waveform = np.concatenate([self.training_symbol(band), data_symbols.ravel()])
        return EncodedPacket(
            waveform=waveform,
            band=band,
            num_payload_bits=int(payload_bits.size),
            num_coded_bits=int(coded_bits.size),
            num_data_symbols=int(grid.shape[0]),
        )


class DataDecoder:
    """Decodes an OFDM burst produced by :class:`DataEncoder`."""

    def __init__(
        self,
        ofdm_config: OFDMConfig | None = None,
        use_differential: bool = True,
        use_interleaving: bool = True,
        use_equalizer: bool = True,
    ) -> None:
        self.ofdm_config = ofdm_config or OFDMConfig()
        self.use_differential = bool(use_differential)
        self.use_interleaving = bool(use_interleaving)
        self.use_equalizer = bool(use_equalizer)
        self._modulator = OFDMModulator(self.ofdm_config)
        self._code = PuncturedConvolutionalCode()
        self._encoder = DataEncoder(
            self.ofdm_config,
            use_differential=use_differential,
            use_interleaving=use_interleaving,
        )
        self._bandpass = FIRBandpassFilter(BAND_LOW_HZ, BAND_HIGH_HZ, SAMPLE_RATE_HZ)

    def expected_length(self, num_payload_bits: int, band: BandSelection) -> int:
        """Number of samples the data burst occupies for a given payload."""
        symbols = self._encoder.num_data_symbols(num_payload_bits, band) + 1
        return symbols * self.ofdm_config.extended_symbol_length

    def decode(
        self,
        received: np.ndarray,
        band: BandSelection,
        num_payload_bits: int,
        apply_bandpass: bool = True,
    ) -> DecodedPacket:
        """Decode a received burst starting at sample 0 of ``received``.

        ``received`` must begin at the training symbol (the caller aligns it
        using the preamble synchronization plus the known silence interval).
        """
        received = np.asarray(received, dtype=float).ravel()
        needed = self.expected_length(num_payload_bits, band)
        if received.size < needed:
            raise ValueError(f"received burst too short: {received.size} < {needed}")
        burst = received[:needed]
        if apply_bandpass:
            burst = self._bandpass.apply(burst)

        extended = self.ofdm_config.extended_symbol_length
        num_data_symbols = self._encoder.num_data_symbols(num_payload_bits, band)
        reference_training = self._encoder.training_symbol(band)

        if self.use_equalizer:
            equalizer = MMSEEqualizer(
                num_taps=min(EQUALIZER_NUM_TAPS, extended - 1),
            )
            equalizer.fit(burst[:extended], reference_training)
            burst = equalizer.apply(burst)

        bins = band.absolute_bins()
        spectra = self._modulator.demodulate_many(burst, num_data_symbols + 1, bins)

        coded_bits_expected = self._code.coded_length(num_payload_bits)
        interleaver = SubcarrierInterleaver(band.num_bins)

        if self.use_differential:
            reference = spectra[:-1]
            current = spectra[1:]
        else:
            # Non-differential: compare against the known training values
            # scaled by the per-symbol channel estimated from the training
            # symbol itself.
            training_values = self._encoder.training_bin_values(band)
            channel = spectra[0] / np.where(np.abs(training_values) > 0, training_values, 1.0)
            reference = np.broadcast_to(channel * training_values, spectra[1:].shape)
            current = spectra[1:]
        correlation = np.real(current * np.conj(reference))
        magnitude = np.abs(current) * np.abs(reference)
        soft_grid = -correlation / np.maximum(magnitude, _EPS)

        if self.use_interleaving:
            soft_bits = interleaver.deinterleave(soft_grid, coded_bits_expected)
        else:
            soft_bits = soft_grid.reshape(-1)[:coded_bits_expected]
        hard_coded = (soft_bits > 0).astype(int)
        decoded = self._code.decode(soft_bits, num_data_bits=num_payload_bits)
        return DecodedPacket(bits=decoded, soft_bits=soft_bits, hard_coded_bits=hard_coded)

    def coded_reference_bits(self, payload_bits: np.ndarray) -> np.ndarray:
        """Return the coded bits for a payload (for uncoded-BER accounting)."""
        return self._code.encode(np.asarray(payload_bits, dtype=int).ravel())
