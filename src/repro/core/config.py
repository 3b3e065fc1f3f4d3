"""Configuration objects and fixed parameters of the AquaApp modem.

The paper fixes most of the PHY by design, so those values are module
constants here:

* 48 kHz audio sampling rate (:data:`SAMPLE_RATE_HZ`);
* a 1-4 kHz communication band (:data:`BAND_LOW_HZ`,
  :data:`BAND_HIGH_HZ`) giving 60 usable data subcarriers at the default
  50 Hz spacing;
* a preamble of eight CAZAC-filled OFDM symbols with the PN sign pattern
  ``[-1, 1, 1, 1, 1, 1, -1, 1]`` and its two detector thresholds;
* a time-domain MMSE equalizer with a 480-sample channel length;
* a rate-2/3 convolutional code (constraint length 7, fixed by
  :class:`~repro.fec.PuncturedConvolutionalCode`);
* the MAC's 80 ms carrier-sense interval.

What the modem adapts at run time, or what a figure sweeps, stays in a
dataclass: :class:`OFDMConfig` (960-sample, i.e. 20 ms, symbols at 50 Hz
subcarrier spacing with a 67-sample cyclic prefix, 6.9 % overhead) and
:class:`ProtocolConfig` (band-adaptation SNR threshold of 7 dB and
conservative factor 0.8, 16-bit payloads).  Alternative subcarrier spacings
(25 Hz / 10 Hz, used by the Fig. 17 experiment) are obtained with
:meth:`OFDMConfig.with_subcarrier_spacing`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from repro.utils.validation import require_positive

#: Audio sampling rate of the mobile devices (Hz).
SAMPLE_RATE_HZ = 48000.0
#: Edges of the communication band (Hz).  Subcarriers whose centre
#: frequency ``f`` satisfies ``BAND_LOW_HZ <= f < BAND_HIGH_HZ`` carry data.
BAND_LOW_HZ = 1000.0
BAND_HIGH_HZ = 4000.0

#: Sign pattern applied to the repeated preamble symbols.
PREAMBLE_PN_SIGNS = (-1, 1, 1, 1, 1, 1, -1, 1)
#: Number of repeated OFDM symbols in the preamble.
NUM_PREAMBLE_SYMBOLS = len(PREAMBLE_PN_SIGNS)
#: Normalized cross-correlation threshold of the coarse preamble detector.
COARSE_DETECTION_THRESHOLD = 0.15
#: Normalized sliding-correlation threshold of the fine preamble detector.
#: The paper quotes 0.6 (with impulsive noise staying below 0.2); 0.55 is
#: used because the simulated 30 m channel sits at a slightly lower in-band
#: SNR than the measured one and the metric is about ``SNR / (SNR + 1)``.
SLIDING_CORRELATION_THRESHOLD = 0.55
#: Step in samples of the fine preamble detector.
SLIDING_CORRELATION_STEP = 8

#: Length of the time-domain MMSE equalizer (the "channel length L of 480
#: samples" in the paper).
EQUALIZER_NUM_TAPS = 480
#: Rate of the convolutional code: the information bits per coded bit.
CODE_RATE = 2.0 / 3.0

#: Step in samples of the sliding FFT that locates the feedback symbol at
#: the original sender.
FEEDBACK_SEARCH_STEP = 16
#: Maximum operating range that bounds the feedback search window (30 m in
#: the paper).
MAX_RANGE_M = 30.0
#: Minimum fraction of the in-band energy the ACK tone must carry for a
#: received single-tone symbol to count as an acknowledgement.  Noise
#: spreads energy over all 60 data bins, so a genuine ACK dominates its bin;
#: 0.2 rejects noise-only symbols while tolerating frequency-selective
#: fading of the tone itself.
ACK_DOMINANCE_THRESHOLD = 0.2

#: How often the MAC layer measures in-band energy (80 ms in the paper).
CARRIER_SENSE_INTERVAL_S = 0.08


@dataclass(frozen=True)
class OFDMConfig:
    """Physical-layer OFDM parameters.

    Attributes
    ----------
    symbol_length:
        OFDM symbol length in samples (FFT size).
    cyclic_prefix_length:
        Cyclic prefix length in samples.
    """

    symbol_length: int = 960
    cyclic_prefix_length: int = 67

    def __post_init__(self) -> None:
        require_positive(self.symbol_length, "symbol_length")
        if self.cyclic_prefix_length < 0:
            raise ValueError("cyclic_prefix_length must be non-negative")

    # ------------------------------------------------------------ derived
    @property
    def subcarrier_spacing_hz(self) -> float:
        """Spacing between adjacent OFDM subcarriers in Hz."""
        return SAMPLE_RATE_HZ / self.symbol_length

    @property
    def symbol_duration_s(self) -> float:
        """Duration of the OFDM symbol (without cyclic prefix) in seconds."""
        return self.symbol_length / SAMPLE_RATE_HZ

    @property
    def extended_symbol_length(self) -> int:
        """Symbol length including the cyclic prefix, in samples."""
        return self.symbol_length + self.cyclic_prefix_length

    @property
    def extended_symbol_duration_s(self) -> float:
        """Duration of the OFDM symbol including the cyclic prefix."""
        return self.extended_symbol_length / SAMPLE_RATE_HZ

    # cached_property stores straight into __dict__, which bypasses the
    # frozen-dataclass setattr guard -- these derived values are immutable
    # functions of the (frozen) fields and are read on every packet.
    @cached_property
    def first_data_bin(self) -> int:
        """Index of the first usable data subcarrier."""
        return int(np.ceil(BAND_LOW_HZ / self.subcarrier_spacing_hz))

    @cached_property
    def last_data_bin(self) -> int:
        """Index of the last usable data subcarrier (inclusive)."""
        last = int(np.ceil(BAND_HIGH_HZ / self.subcarrier_spacing_hz)) - 1
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
        symbol_length = int(round(SAMPLE_RATE_HZ / spacing_hz))
        if symbol_length < 8:
            raise ValueError("subcarrier spacing too large for the sample rate")
        prefix = int(round(symbol_length * 67.0 / 960.0))
        return replace(
            self, symbol_length=symbol_length, cyclic_prefix_length=prefix
        )


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol-level parameters of the band adaptation and the payload.

    Attributes
    ----------
    snr_threshold_db:
        Band-adaptation SNR threshold (epsilon, 7 dB in the paper).
    conservative_lambda:
        Band-adaptation conservative factor (lambda, 0.8 in the paper).
    payload_bits:
        Number of data bits per packet (16 in the messaging app).
    """

    snr_threshold_db: float = 7.0
    conservative_lambda: float = 0.8
    payload_bits: int = 16

    def __post_init__(self) -> None:
        if not 0 < self.conservative_lambda <= 1:
            raise ValueError("conservative_lambda must be in (0, 1]")
        if self.snr_threshold_db < 0:
            raise ValueError("snr_threshold_db must be non-negative")
        require_positive(self.payload_bits, "payload_bits")
