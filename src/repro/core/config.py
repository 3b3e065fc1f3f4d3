"""Configuration objects for the AquaApp modem and protocol.

The numeric defaults follow the paper exactly:

* 48 kHz audio sampling rate, 960-sample (20 ms) OFDM symbols, 50 Hz
  subcarrier spacing, 67-sample cyclic prefix (6.9 % overhead);
* a 1-4 kHz communication band giving 60 usable data subcarriers;
* a preamble of eight CAZAC-filled OFDM symbols with the PN sign pattern
  ``[-1, 1, 1, 1, 1, 1, -1, 1]``;
* band-adaptation SNR threshold of 7 dB and conservative factor 0.8;
* a rate-2/3, constraint-length-7 convolutional code;
* a time-domain MMSE equalizer with a 480-sample channel length.

Alternative subcarrier spacings (25 Hz / 10 Hz, used by the Fig. 17
experiment) are obtained with :meth:`OFDMConfig.with_subcarrier_spacing`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.utils.validation import require_positive


@dataclass(frozen=True)
class OFDMConfig:
    """Physical-layer OFDM parameters.

    Attributes
    ----------
    sample_rate_hz:
        Audio sampling rate of the mobile device.
    symbol_length:
        OFDM symbol length in samples (FFT size).
    cyclic_prefix_length:
        Cyclic prefix length in samples.
    band_low_hz, band_high_hz:
        Edges of the communication band.  Subcarriers whose centre
        frequency ``f`` satisfies ``band_low_hz <= f < band_high_hz`` are
        usable for data.
    """

    sample_rate_hz: float = 48000.0
    symbol_length: int = 960
    cyclic_prefix_length: int = 67
    band_low_hz: float = 1000.0
    band_high_hz: float = 4000.0

    def __post_init__(self) -> None:
        require_positive(self.sample_rate_hz, "sample_rate_hz")
        require_positive(self.symbol_length, "symbol_length")
        if self.cyclic_prefix_length < 0:
            raise ValueError("cyclic_prefix_length must be non-negative")
        if not 0 < self.band_low_hz < self.band_high_hz <= self.sample_rate_hz / 2:
            raise ValueError(
                "band edges must satisfy 0 < low < high <= Nyquist, got "
                f"({self.band_low_hz}, {self.band_high_hz})"
            )
        if self.num_data_bins < 1:
            raise ValueError("the configured band contains no usable subcarriers")

    # ------------------------------------------------------------ derived
    @property
    def subcarrier_spacing_hz(self) -> float:
        """Spacing between adjacent OFDM subcarriers in Hz."""
        return self.sample_rate_hz / self.symbol_length

    @property
    def symbol_duration_s(self) -> float:
        """Duration of the OFDM symbol (without cyclic prefix) in seconds."""
        return self.symbol_length / self.sample_rate_hz

    @property
    def extended_symbol_length(self) -> int:
        """Symbol length including the cyclic prefix, in samples."""
        return self.symbol_length + self.cyclic_prefix_length

    @property
    def extended_symbol_duration_s(self) -> float:
        """Duration of the OFDM symbol including the cyclic prefix."""
        return self.extended_symbol_length / self.sample_rate_hz

    # cached_property stores straight into __dict__, which bypasses the
    # frozen-dataclass setattr guard -- these derived values are immutable
    # functions of the (frozen) fields and are read on every packet.
    @cached_property
    def first_data_bin(self) -> int:
        """Index of the first usable data subcarrier."""
        return int(np.ceil(self.band_low_hz / self.subcarrier_spacing_hz))

    @cached_property
    def last_data_bin(self) -> int:
        """Index of the last usable data subcarrier (inclusive)."""
        last = int(np.ceil(self.band_high_hz / self.subcarrier_spacing_hz)) - 1
        return max(last, self.first_data_bin)

    @property
    def num_data_bins(self) -> int:
        """Number of usable data subcarriers in the communication band."""
        return self.last_data_bin - self.first_data_bin + 1

    @cached_property
    def data_bins(self) -> np.ndarray:
        """Array of usable data subcarrier indices (read-only)."""
        bins = np.arange(self.first_data_bin, self.last_data_bin + 1)
        bins.setflags(write=False)
        return bins

    def bin_frequency_hz(self, bin_index: int) -> float:
        """Return the centre frequency of an absolute subcarrier index."""
        return float(bin_index * self.subcarrier_spacing_hz)

    def frequency_to_bin(self, frequency_hz: float) -> int:
        """Return the subcarrier index nearest to ``frequency_hz``."""
        return int(round(frequency_hz / self.subcarrier_spacing_hz))

    # --------------------------------------------------------------- variants
    def with_subcarrier_spacing(self, spacing_hz: float) -> "OFDMConfig":
        """Return a copy with a different subcarrier spacing.

        The symbol length is recomputed so the sample rate is unchanged and
        the cyclic prefix keeps the same fractional overhead as the default
        configuration (67 / 960 samples, roughly 7 %).
        """
        require_positive(spacing_hz, "spacing_hz")
        symbol_length = int(round(self.sample_rate_hz / spacing_hz))
        if symbol_length < 8:
            raise ValueError("subcarrier spacing too large for the sample rate")
        prefix = int(round(symbol_length * 67.0 / 960.0))
        return replace(
            self, symbol_length=symbol_length, cyclic_prefix_length=prefix
        )


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-level parameters for the post-preamble feedback scheme.

    Attributes
    ----------
    num_preamble_symbols:
        Number of repeated OFDM symbols in the preamble.
    preamble_pn_signs:
        Sign pattern applied to the preamble symbols.
    snr_threshold_db:
        Band-adaptation SNR threshold (epsilon, 7 dB in the paper).
    conservative_lambda:
        Band-adaptation conservative factor (lambda, 0.8 in the paper).
    coarse_detection_threshold:
        Normalized cross-correlation threshold for the coarse detector.
    sliding_correlation_threshold:
        Normalized sliding-correlation threshold for the fine detector.
        The paper quotes 0.6 (with impulsive noise staying below 0.2); the
        default here is 0.55 because the simulated 30 m channel sits at a
        slightly lower in-band SNR than the measured one and the metric is
        approximately ``SNR / (SNR + 1)``.  Benchmarks that study the
        detector sweep this value explicitly.
    sliding_correlation_step:
        Step size in samples for the fine detector.
    equalizer_num_taps:
        Length of the time-domain MMSE equalizer (the "channel length L of
        480 samples" in the paper).
    payload_bits:
        Number of data bits per packet (16 in the messaging app).
    feedback_search_step:
        Step in samples of the sliding FFT used to locate the feedback
        symbol at the original sender.
    ack_dominance_threshold:
        Minimum fraction of the in-band energy the ACK tone must carry for
        a received single-tone symbol to count as an acknowledgement.
        Noise spreads energy over all 60 data bins, so a genuine ACK
        dominates its bin; 0.2 rejects noise-only symbols while tolerating
        frequency-selective fading of the tone itself.
    carrier_sense_interval_s:
        How often the MAC layer measures in-band energy (80 ms).
    max_range_m:
        Maximum operating range assumed when bounding the feedback search
        window (30 m in the paper).
    """

    num_preamble_symbols: int = 8
    preamble_pn_signs: tuple[int, ...] = (-1, 1, 1, 1, 1, 1, -1, 1)
    snr_threshold_db: float = 7.0
    conservative_lambda: float = 0.8
    coarse_detection_threshold: float = 0.15
    sliding_correlation_threshold: float = 0.55
    sliding_correlation_step: int = 8
    equalizer_num_taps: int = 480
    payload_bits: int = 16
    feedback_search_step: int = 16
    ack_dominance_threshold: float = 0.2
    carrier_sense_interval_s: float = 0.08
    max_range_m: float = 30.0
    code_rate: float = 2.0 / 3.0
    constraint_length: int = 7

    def __post_init__(self) -> None:
        if self.num_preamble_symbols != len(self.preamble_pn_signs):
            raise ValueError(
                "preamble_pn_signs must have num_preamble_symbols entries"
            )
        if not 0 < self.conservative_lambda <= 1:
            raise ValueError("conservative_lambda must be in (0, 1]")
        if self.snr_threshold_db < 0:
            raise ValueError("snr_threshold_db must be non-negative")
        require_positive(self.equalizer_num_taps, "equalizer_num_taps")
        require_positive(self.payload_bits, "payload_bits")
        if not 0 < self.sliding_correlation_threshold < 1:
            raise ValueError("sliding_correlation_threshold must be in (0, 1)")
        if not 0 < self.ack_dominance_threshold < 1:
            raise ValueError("ack_dominance_threshold must be in (0, 1)")

    @property
    def pn_signs_array(self) -> np.ndarray:
        """Preamble sign pattern as a float array."""
        return np.array(self.preamble_pn_signs, dtype=float)
