"""Frequency band adaptation (Algorithm 1 of the paper).

Given the per-subcarrier SNR estimated from the preamble, the receiver
selects the *largest contiguous* band of subcarriers such that, after the
transmit power of the dropped subcarriers is reallocated to the kept ones,
every kept subcarrier still exceeds the SNR threshold:

    maximize  L = n - m + 1
    such that SNR_k + lambda * 10*log10(N0 / L) > epsilon   for all k in [m, n]

``epsilon`` is 7 dB and ``lambda`` (a conservative factor accounting for
imperfect power reallocation and channel drift due to mobility) is 0.8 in
the paper.  Only ``(f_begin, f_end)`` is fed back to the transmitter, which
keeps the feedback overhead to a single OFDM symbol.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import OFDMConfig, ProtocolConfig


@dataclass(frozen=True)
class BandSelection:
    """Result of the frequency band adaptation algorithm.

    Attributes
    ----------
    start_offset, end_offset:
        Inclusive indices of the selected band *relative to the data bins*
        (0 = first data subcarrier).
    start_bin, end_bin:
        Corresponding absolute subcarrier indices.
    start_frequency_hz, end_frequency_hz:
        Corresponding subcarrier centre frequencies.
    num_bins:
        Width of the selected band in subcarriers.
    satisfied:
        Whether the SNR constraint was met.  When no band satisfies the
        constraint the algorithm falls back to the single best subcarrier
        and reports ``satisfied=False``.
    """

    start_offset: int
    end_offset: int
    start_bin: int
    end_bin: int
    start_frequency_hz: float
    end_frequency_hz: float
    num_bins: int
    satisfied: bool

    def absolute_bins(self) -> np.ndarray:
        """Return the absolute subcarrier indices of the selected band."""
        return np.arange(self.start_bin, self.end_bin + 1)


def select_frequency_band(
    snr_db: np.ndarray,
    config: OFDMConfig | None = None,
    protocol: ProtocolConfig | None = None,
) -> BandSelection:
    """Run Algorithm 1 and return the selected contiguous band.

    Parameters
    ----------
    snr_db:
        Estimated SNR per data subcarrier (one entry per bin between the
        band edges, lowest frequency first).
    config:
        OFDM configuration used to translate offsets into absolute bins and
        frequencies.  Defaults to the paper configuration.
    protocol:
        Protocol configuration carrying the SNR threshold and the
        conservative lambda (an ablation varies them through its own
        ``ProtocolConfig``).
    """
    config = config or OFDMConfig()
    protocol = protocol or ProtocolConfig()
    threshold = float(protocol.snr_threshold_db)
    lam = float(protocol.conservative_lambda)
    snr_db = np.asarray(snr_db, dtype=float).ravel()
    n0 = snr_db.size
    if n0 == 0:
        raise ValueError("snr_db must contain at least one subcarrier")
    if n0 != config.num_data_bins:
        raise ValueError(
            f"snr_db has {n0} entries but the configuration defines {config.num_data_bins} data bins"
        )

    # Window minima for every width at once via the pairwise-minimum
    # recurrence min_w[i] = min(min_{w-1}[i], snr[i+w-1]) -- O(n^2) total
    # instead of one sliding-window reduction per width.  Only the best
    # window per width is needed later, so the minima buffer is updated in
    # place and just the (argmax, max) pairs are kept.
    best_starts = np.empty(n0, dtype=int)
    best_minima = np.empty(n0)
    running = snr_db.copy()
    best = int(np.argmax(running))
    best_starts[0] = best
    best_minima[0] = running[best]
    for width in range(2, n0 + 1):
        view = running[: n0 - width + 1]
        np.minimum(view, snr_db[width - 1:], out=view)
        best = int(np.argmax(view))
        best_starts[width - 1] = best
        best_minima[width - 1] = view[best]

    for width in range(n0, 0, -1):
        bonus = lam * 10.0 * np.log10(n0 / width)
        # Among equally wide qualifying bands prefer the one with the
        # highest worst-case SNR, which is the conservative choice; the
        # first-qualifying-argmax is exactly what scanning all qualifying
        # windows yields.
        if best_minima[width - 1] + bonus > threshold:
            start = int(best_starts[width - 1])
            end = start + width - 1
            return _build_selection(start, end, config, satisfied=True)

    # No band satisfies the constraint even at width one: fall back to the
    # single strongest subcarrier so the link can still attempt delivery.
    best = int(np.argmax(snr_db))
    return _build_selection(best, best, config, satisfied=False)


def _build_selection(
    start_offset: int, end_offset: int, config: OFDMConfig, satisfied: bool
) -> BandSelection:
    start_bin = int(config.first_data_bin + start_offset)
    end_bin = int(config.first_data_bin + end_offset)
    return BandSelection(
        start_offset=int(start_offset),
        end_offset=int(end_offset),
        start_bin=start_bin,
        end_bin=end_bin,
        start_frequency_hz=config.bin_frequency_hz(start_bin),
        end_frequency_hz=config.bin_frequency_hz(end_bin),
        num_bins=int(end_offset - start_offset + 1),
        satisfied=bool(satisfied),
    )


def selection_from_bins(start_bin: int, end_bin: int, config: OFDMConfig | None = None) -> BandSelection:
    """Build a :class:`BandSelection` directly from absolute bin indices.

    Used by the fixed-bandwidth baseline schemes and by the transmitter
    after decoding the feedback symbol.
    """
    config = config or OFDMConfig()
    if start_bin > end_bin:
        start_bin, end_bin = end_bin, start_bin
    if start_bin < config.first_data_bin or end_bin > config.last_data_bin:
        raise ValueError(
            f"bins [{start_bin}, {end_bin}] outside the data band "
            f"[{config.first_data_bin}, {config.last_data_bin}]"
        )
    return _build_selection(
        start_bin - config.first_data_bin, end_bin - config.first_data_bin, config, satisfied=True
    )
