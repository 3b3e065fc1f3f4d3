"""Preamble generation, detection and symbol synchronization.

The preamble serves three purposes (paper section 2.2.1): packet detection,
symbol synchronization and channel estimation.  It consists of eight
identical OFDM symbols whose data subcarriers carry a CAZAC (Zadoff-Chu)
sequence, with each symbol multiplied by the PN sign pattern
``[-1, 1, 1, 1, 1, 1, -1, 1]``.

Detection is two-stage:

1. *Coarse*: normalized cross-correlation of the received audio against the
   known preamble waveform; peaks above a low threshold become candidates.
2. *Fine*: the normalized sliding correlation of the candidate window.  The
   window is split into eight segments, PN signs are removed, neighbouring
   segments are correlated and the sum is normalized by the window energy.
   A genuine preamble gives a metric near ``SNR / (SNR + 1)`` regardless of
   absolute level, while impulsive noise stays small.  The metric peak also
   gives the fine timing used to synchronize all later OFDM symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import (
    COARSE_DETECTION_THRESHOLD,
    NUM_PREAMBLE_SYMBOLS,
    PREAMBLE_PN_SIGNS,
    SAMPLE_RATE_HZ,
    SLIDING_CORRELATION_STEP,
    SLIDING_CORRELATION_THRESHOLD,
    OFDMConfig,
)
from repro.core.ofdm import OFDMModulator
from repro.dsp.correlation import (
    TemplateCorrelator,
    sliding_correlation_curve,
)
from repro.dsp.sequences import zadoff_chu

#: The preamble's PN sign pattern as a read-only float array.
_PN_SIGNS = np.array(PREAMBLE_PN_SIGNS, dtype=float)
_PN_SIGNS.setflags(write=False)


@dataclass(frozen=True)
class PreambleDetection:
    """Result of a preamble search.

    Attributes
    ----------
    detected:
        Whether a preamble was found.
    start_index:
        Sample index of the detected preamble start (-1 when not found).
    coarse_metric:
        Peak normalized cross-correlation value of the coarse stage.
    fine_metric:
        Peak normalized sliding-correlation value of the fine stage.
    """

    detected: bool
    start_index: int
    coarse_metric: float
    fine_metric: float


class PreambleGenerator:
    """Builds the CAZAC preamble waveform and its reference symbols."""

    def __init__(self, ofdm_config: OFDMConfig | None = None) -> None:
        self.ofdm_config = ofdm_config or OFDMConfig()
        self._modulator = OFDMModulator(self.ofdm_config)
        self._bin_values = zadoff_chu(self.ofdm_config.num_data_bins)
        self._base_symbol_cache: np.ndarray | None = None
        self._waveform_cache: np.ndarray | None = None

    @property
    def reference_bin_values(self) -> np.ndarray:
        """CAZAC values placed on the data subcarriers of each preamble symbol."""
        return self._bin_values.copy()

    @property
    def num_symbols(self) -> int:
        """Number of OFDM symbols in the preamble."""
        return NUM_PREAMBLE_SYMBOLS

    @property
    def symbol_length(self) -> int:
        """Length of one preamble symbol including its cyclic prefix."""
        return self.ofdm_config.extended_symbol_length

    @property
    def total_length(self) -> int:
        """Total length of the preamble waveform in samples."""
        return self.num_symbols * self.symbol_length

    @property
    def duration_s(self) -> float:
        """Duration of the preamble in seconds."""
        return self.total_length / SAMPLE_RATE_HZ

    def base_symbol(self) -> np.ndarray:
        """Return one un-signed preamble symbol (with cyclic prefix).

        The symbol is deterministic for a generator, so it is computed once
        and returned as a cached read-only array: the detection and packet
        loops call this per packet and must not pay a fresh OFDM modulation
        (or an allocation) every time.
        """
        if self._base_symbol_cache is None:
            symbol = self._modulator.modulate(
                self._bin_values, self.ofdm_config.data_bins, add_cyclic_prefix=True
            )
            symbol.setflags(write=False)
            self._base_symbol_cache = symbol
        return self._base_symbol_cache

    def waveform(self) -> np.ndarray:
        """Return the full preamble waveform (eight signed symbols).

        Cached and read-only, like :meth:`base_symbol`.
        """
        if self._waveform_cache is None:
            base = self.base_symbol()
            waveform = np.concatenate([sign * base for sign in _PN_SIGNS])
            waveform.setflags(write=False)
            self._waveform_cache = waveform
        return self._waveform_cache


class PreambleDetector:
    """Two-stage preamble detector and synchronizer."""

    #: Coarse-stage candidates the fine stage examines.
    MAX_CANDIDATES = 4

    def __init__(self, generator: PreambleGenerator) -> None:
        self.generator = generator
        self.ofdm_config = generator.ofdm_config
        self._template = generator.waveform()
        # Conjugate spectrum of the template, cached for the FFT coarse
        # search (shared across every packet of a session).
        self._correlator = TemplateCorrelator(self._template)

    def coarse_candidates(self, received: np.ndarray) -> list[tuple[int, float]]:
        """Return up to :attr:`MAX_CANDIDATES` coarse-stage candidate offsets.

        Each candidate is a ``(offset, metric)`` pair where the metric is the
        normalized cross-correlation against the preamble template.  Only
        above-threshold offsets are sorted (instead of the full correlation
        buffer); the resulting candidate list is identical to scanning all
        offsets in descending metric order.
        """
        received = np.asarray(received, dtype=float)
        if received.size < self._template.size:
            return []
        correlation = self._correlator.correlate(received)
        above = np.flatnonzero(correlation >= COARSE_DETECTION_THRESHOLD)
        if above.size == 0:
            return []
        order = above[np.argsort(correlation[above])[::-1]]
        candidates: list[tuple[int, float]] = []
        min_separation = self.ofdm_config.symbol_length
        for index in order:
            if len(candidates) >= self.MAX_CANDIDATES:
                break
            if all(abs(int(index) - c[0]) > min_separation for c in candidates):
                candidates.append((int(index), float(correlation[index])))
        return candidates

    def detect(self, received: np.ndarray) -> PreambleDetection:
        """Search ``received`` for the preamble and return the best detection."""
        candidates = self.coarse_candidates(received)
        if not candidates:
            return PreambleDetection(False, -1, 0.0, 0.0)
        segment_length = self.generator.symbol_length
        best = PreambleDetection(False, -1, 0.0, 0.0)
        half_symbol = self.ofdm_config.symbol_length // 2
        for offset, coarse_metric in candidates:
            start = offset - half_symbol
            stop = offset + half_symbol
            indices, metric = sliding_correlation_curve(
                received,
                start,
                stop,
                segment_length,
                _PN_SIGNS,
                step=SLIDING_CORRELATION_STEP,
            )
            if indices.size == 0:
                continue
            peak = int(np.argmax(metric))
            fine_metric = float(metric[peak])
            if fine_metric > best.fine_metric:
                detected = fine_metric >= SLIDING_CORRELATION_THRESHOLD
                best = PreambleDetection(detected, int(indices[peak]), coarse_metric, fine_metric)
        return best

    def extract_symbols(self, received: np.ndarray, start_index: int) -> np.ndarray:
        """Return the received preamble as (num_symbols, symbol_length) rows.

        The PN signs are removed and the cyclic prefixes stripped, so the
        rows can be FFT'd directly for channel estimation.
        """
        received = np.asarray(received, dtype=float)
        step = self.generator.symbol_length
        total = self.generator.total_length
        if start_index < 0 or start_index + total > received.size:
            raise ValueError("preamble does not fit in the received buffer at that offset")
        prefix = self.ofdm_config.cyclic_prefix_length
        length = self.ofdm_config.symbol_length
        frames = received[start_index:start_index + total].reshape(
            self.generator.num_symbols, step
        )[:, prefix:prefix + length]
        return frames * _PN_SIGNS[:, None]
