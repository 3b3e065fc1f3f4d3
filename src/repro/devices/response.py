"""Frequency-response curves for speakers, microphones and cases.

A :class:`FrequencyResponse` is a smooth magnitude response defined by
anchor points plus optional narrow notches.  Device speakers and
microphones are *not* designed for underwater use, so the paper observes
uneven responses with deep notches whose positions differ between device
models, plus a general roll-off above roughly 4 kHz (Fig. 3a).  The
response can be queried in dB, converted to an FIR filter, or applied
directly to a waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.fastconv import convolve_full
from repro.dsp.filters import design_fir_from_response
from repro.utils.validation import require_positive


@dataclass(frozen=True)
class ResponseNotch:
    """A narrow dip in a frequency response.

    Attributes
    ----------
    frequency_hz:
        Centre frequency of the notch.
    depth_db:
        Depth of the notch (positive number of dB *below* the surrounding
        response).
    width_hz:
        Approximate -3 dB width of the notch.
    """

    frequency_hz: float
    depth_db: float
    width_hz: float


@dataclass(frozen=True)
class FrequencyResponse:
    """A smooth magnitude response with optional notches.

    Parameters
    ----------
    anchor_frequencies_hz, anchor_gains_db:
        Control points of the smooth part of the response; values between
        anchors are interpolated linearly in the log-frequency domain.
    notches:
        Narrow Gaussian-shaped dips superimposed on the smooth response.
    label:
        Human-readable description used in reports.
    """

    anchor_frequencies_hz: tuple[float, ...]
    anchor_gains_db: tuple[float, ...]
    notches: tuple[ResponseNotch, ...] = field(default_factory=tuple)
    label: str = ""

    def __post_init__(self) -> None:
        if len(self.anchor_frequencies_hz) != len(self.anchor_gains_db):
            raise ValueError("anchor frequencies and gains must have the same length")
        if len(self.anchor_frequencies_hz) < 2:
            raise ValueError("need at least two anchor points")
        freqs = np.asarray(self.anchor_frequencies_hz, dtype=float)
        if np.any(freqs <= 0) or np.any(np.diff(freqs) <= 0):
            raise ValueError("anchor frequencies must be positive and strictly increasing")

    def gain_db(self, frequencies_hz: np.ndarray | float) -> np.ndarray | float:
        """Return the response gain in dB at the given frequencies."""
        scalar = np.isscalar(frequencies_hz)
        freqs = np.atleast_1d(np.asarray(frequencies_hz, dtype=float))
        anchors = np.asarray(self.anchor_frequencies_hz, dtype=float)
        gains = np.asarray(self.anchor_gains_db, dtype=float)
        log_freqs = np.log10(np.maximum(freqs, 1.0))
        result = np.interp(log_freqs, np.log10(anchors), gains,
                           left=gains[0], right=gains[-1])
        for notch in self.notches:
            sigma = max(notch.width_hz / 2.355, 1.0)  # FWHM -> sigma
            result -= notch.depth_db * np.exp(-0.5 * ((freqs - notch.frequency_hz) / sigma) ** 2)
        if scalar:
            return float(result[0])
        return result

    def as_fir(self, sample_rate_hz: float = 48000.0, num_taps: int = 257) -> np.ndarray:
        """Return an FIR filter approximating this response."""
        require_positive(sample_rate_hz, "sample_rate_hz")
        grid = np.linspace(50.0, sample_rate_hz / 2.0 - 50.0, 256)
        return design_fir_from_response(grid, self.gain_db(grid), sample_rate_hz, num_taps)

    def apply(self, samples: np.ndarray, sample_rate_hz: float = 48000.0) -> np.ndarray:
        """Filter ``samples`` with this response (group delay compensated).

        An FFT convolution, equal to direct FIR filtering within ~1e-13
        relative.
        """
        taps = self.as_fir(sample_rate_hz)
        delay = (taps.size - 1) // 2
        samples = np.asarray(samples, dtype=float)
        return convolve_full(samples, taps)[delay:delay + samples.size]

    def combined_with(self, other: "FrequencyResponse", label: str = "") -> "FrequencyResponse":
        """Return the cascade of two responses (gains added in dB)."""
        freqs = np.unique(np.concatenate([
            np.asarray(self.anchor_frequencies_hz), np.asarray(other.anchor_frequencies_hz)
        ]))
        gains = self.gain_db(freqs) + other.gain_db(freqs)
        return FrequencyResponse(
            anchor_frequencies_hz=tuple(float(f) for f in freqs),
            anchor_gains_db=tuple(float(g) for g in gains),
            notches=tuple(self.notches) + tuple(other.notches),
            label=label or f"{self.label}+{other.label}",
        )
