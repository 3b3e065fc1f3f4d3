"""Statistics helpers for link-level experiments."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def empirical_cdf(values: list[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(sorted_values, cumulative_probability)`` for a CDF plot."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.array([]), np.array([])
    ordered = np.sort(values)
    probabilities = np.arange(1, ordered.size + 1) / ordered.size
    return ordered, probabilities


def median(values: list[float] | np.ndarray) -> float:
    """Return the median of ``values`` (NaN for an empty input)."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return float("nan")
    return float(np.median(values))


@dataclass
class Counter:
    """A simple ratio counter (events over trials)."""

    events: int = 0
    trials: int = 0

    def record(self, happened: bool) -> None:
        """Record one trial."""
        self.trials += 1
        if happened:
            self.events += 1

    @property
    def rate(self) -> float:
        """Fraction of trials in which the event happened."""
        return self.events / self.trials if self.trials else float("nan")


def summarize_packets(results: list) -> dict:
    """Return a dictionary summary of a list of :class:`PacketResult`.

    Provided for quick inspection in notebooks and examples; the structured
    :class:`~repro.link.session.LinkStatistics` object is what the
    experiment layer uses.
    """
    from repro.link.session import LinkStatistics  # local import to avoid a cycle

    stats = LinkStatistics.from_results(results)
    return {
        "num_packets": stats.num_packets,
        "packet_error_rate": stats.packet_error_rate,
        "bit_error_rate": stats.coded_bit_error_rate,
        "median_bitrate_bps": stats.median_bitrate_bps,
        "preamble_detection_rate": stats.preamble_detection_rate,
        "feedback_error_rate": stats.feedback_error_rate,
    }
