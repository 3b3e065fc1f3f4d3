"""Feedback symbol encoding and decoding.

The receiver (Bob) reports the selected band back to the transmitter
(Alice) in a single OFDM symbol: all transmit power is placed on the two
subcarriers corresponding to ``f_begin`` and ``f_end`` (section 2.2.3).
Because the whole symbol energy is concentrated on two tones, Alice can
decode the feedback reliably even though she has no channel estimate for
the backward path: she slides an FFT window across the expected arrival
interval, finds the offset with the most in-band energy and picks the two
strongest subcarriers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.physics import SOUND_SPEED_M_S
from repro.core.config import FEEDBACK_SEARCH_STEP, MAX_RANGE_M, SAMPLE_RATE_HZ, OFDMConfig
from repro.core.ofdm import OFDMModulator


@dataclass(frozen=True)
class FeedbackDecodeResult:
    """Outcome of searching for and decoding a feedback symbol.

    Attributes
    ----------
    found:
        Whether a plausible feedback symbol was located.
    start_bin, end_bin:
        Decoded band edges as absolute subcarrier indices.
    offset:
        Sample offset at which the symbol was found.
    peak_power_ratio:
        Ratio of the energy in the two selected bins to the total in-band
        energy at the chosen offset; a quality indicator.
    """

    found: bool
    start_bin: int
    end_bin: int
    offset: int
    peak_power_ratio: float


class FeedbackCodec:
    """Encodes and decodes the two-tone band feedback symbol."""

    def __init__(self, ofdm_config: OFDMConfig | None = None) -> None:
        self.ofdm_config = ofdm_config or OFDMConfig()
        self._modulator = OFDMModulator(self.ofdm_config)
        # Band selections repeat across a session's packets; the two-tone
        # symbol for a band is deterministic, so modulate it once.
        self._symbol_cache: dict[tuple[int, int], np.ndarray] = {}

    # ----------------------------------------------------------------- encode
    def encode(self, start_bin: int, end_bin: int) -> np.ndarray:
        """Return the feedback OFDM symbol for a selected band.

        Both ``start_bin`` and ``end_bin`` are absolute subcarrier indices;
        they may be equal for a single-bin band, in which case the entire
        power goes onto that one tone.
        """
        config = self.ofdm_config
        if start_bin > end_bin:
            start_bin, end_bin = end_bin, start_bin
        if start_bin < config.first_data_bin or end_bin > config.last_data_bin:
            raise ValueError(
                f"feedback bins [{start_bin}, {end_bin}] outside the data band"
            )
        cached = self._symbol_cache.get((start_bin, end_bin))
        if cached is not None:
            return cached
        if start_bin == end_bin:
            bins = np.array([start_bin])
            values = np.array([1.0 + 0.0j])
        else:
            bins = np.array([start_bin, end_bin])
            values = np.array([1.0 + 0.0j, 1.0 + 0.0j])
        symbol = self._modulator.modulate(values, bins, add_cyclic_prefix=True)
        symbol.setflags(write=False)
        self._symbol_cache[(start_bin, end_bin)] = symbol
        return symbol

    # ----------------------------------------------------------------- decode
    def decode(self, received: np.ndarray) -> FeedbackDecodeResult:
        """Locate and decode the feedback symbol within ``received``.

        ``received`` is the audio captured by the original transmitter after
        it finished sending the preamble (it stays silent while listening).
        Candidate symbol starts run from the first sample up to the maximum
        round-trip time at :data:`~repro.core.config.MAX_RANGE_M` plus one symbol,
        as the paper describes.
        """
        config = self.ofdm_config
        received = np.asarray(received, dtype=float)
        window = config.symbol_length
        max_round_trip_s = 2.0 * MAX_RANGE_M / SOUND_SPEED_M_S
        search_stop = min(
            int(max_round_trip_s * SAMPLE_RATE_HZ) + config.extended_symbol_length,
            received.size - window,
        )
        if search_stop < 0:
            return FeedbackDecodeResult(False, -1, -1, -1, 0.0)

        offsets = np.arange(0, search_stop + 1, FEEDBACK_SEARCH_STEP)
        data_bins = config.data_bins
        # Two-pass search.  The first pass finds how much two-tone energy any
        # window captures; the second pass restricts attention to windows that
        # capture a substantial fraction of it and, among those, picks the one
        # whose energy is *most concentrated* in its two strongest bins.  That
        # window is the one best aligned with the OFDM symbol (minimal
        # spectral leakage), which matters when the two tones arrive with very
        # different strengths because of frequency-selective fading.
        #
        # All candidate windows are transformed with one batched rFFT and the
        # per-window tone picking runs vectorized; the selection is identical
        # to scanning the offsets one at a time.
        frames = np.lib.stride_tricks.sliding_window_view(received, window)[offsets]
        spectra = np.abs(np.fft.rfft(frames, axis=1)[:, data_bins]) ** 2
        energies = spectra.sum(axis=1)
        valid = energies > 0.0
        if not np.any(valid):
            return FeedbackDecodeResult(False, -1, -1, -1, 0.0)
        spectra = spectra[valid]
        energies = energies[valid]
        offsets = offsets[valid]
        firsts, seconds = self._top_two_tones_batch(spectra)
        rows = np.arange(spectra.shape[0])
        scores = spectra[rows, firsts] + spectra[rows, seconds]
        max_score = float(scores.max())
        if max_score <= 0.0:
            return FeedbackDecodeResult(False, -1, -1, -1, 0.0)
        ratios = scores / energies
        strong = np.flatnonzero(scores >= 0.5 * max_score)
        best = int(strong[np.argmax(ratios[strong])])
        best_offset = int(offsets[best])
        first = int(firsts[best])
        second = int(seconds[best])
        best_ratio = float(ratios[best])

        low, high = sorted((first, second))
        start_bin = int(data_bins[low])
        end_bin = int(data_bins[high])
        # A genuine two-tone symbol concentrates most in-band energy in the
        # two selected bins (plus a little leakage); random noise does not.
        found = best_ratio > 0.2
        return FeedbackDecodeResult(found, start_bin, end_bin, best_offset, best_ratio)

    @staticmethod
    def _top_two_tones_batch(spectra: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Two strongest non-adjacent tones per row of ``spectra`` (index arrays).

        The bins next to the strongest tone are excluded when picking the
        second tone, because a slight symbol-timing offset leaks energy of a
        strong tone into its immediate neighbours and that leakage can
        otherwise outweigh a genuinely transmitted tone sitting in a fade.
        A second tone more than ~26 dB below the first is treated as absent
        (the row's second index repeats the first), which is how a
        single-bin band (one transmitted tone) is recognized.
        """
        num_rows, num_bins = spectra.shape
        rows = np.arange(num_rows)
        firsts = np.argmax(spectra, axis=1)
        masked = spectra.copy()
        masked[rows, firsts] = -np.inf
        masked[rows, np.maximum(firsts - 1, 0)] = -np.inf
        masked[rows, np.minimum(firsts + 1, num_bins - 1)] = -np.inf
        seconds = np.argmax(masked, axis=1)
        all_masked = ~np.isfinite(masked[rows, seconds])
        too_weak = spectra[rows, seconds] < 0.0025 * spectra[rows, firsts]
        seconds = np.where(all_masked | too_weak, firsts, seconds)
        return firsts, seconds
