"""Spectrum estimation helpers.

Used by the characterization figures of :mod:`repro.validation`
(frequency selectivity, ambient noise, reciprocity, air-in-case) and by
the carrier-sense MAC energy detector.
"""

from __future__ import annotations

import numpy as np

from repro.utils.units import power_ratio_to_db
from repro.utils.validation import require_positive


def band_power(
    samples: np.ndarray,
    sample_rate_hz: float,
    low_hz: float,
    high_hz: float,
) -> float:
    """Return the mean power of ``samples`` restricted to a frequency band.

    This is the quantity the carrier-sense MAC measures every 80 ms over
    the 1-4 kHz communication band.
    """
    require_positive(sample_rate_hz, "sample_rate_hz")
    if not 0 <= low_hz < high_hz <= sample_rate_hz / 2:
        raise ValueError("invalid band edges")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return 0.0
    spectrum = np.fft.rfft(samples)
    freqs = np.fft.rfftfreq(samples.size, d=1.0 / sample_rate_hz)
    mask = (freqs >= low_hz) & (freqs <= high_hz)
    # Parseval: mean power contribution of the selected bins.
    total = np.sum(np.abs(spectrum[mask]) ** 2)
    if samples.size % 2 == 0 and mask[-1]:
        # Nyquist bin counted once.
        pass
    return float(2.0 * total / (samples.size ** 2))


def band_power_db(
    samples: np.ndarray,
    sample_rate_hz: float,
    low_hz: float,
    high_hz: float,
) -> float:
    """Return :func:`band_power` expressed in dB."""
    return power_ratio_to_db(max(band_power(samples, sample_rate_hz, low_hz, high_hz), 1e-30))


def frequency_response_from_probe(
    transmitted: np.ndarray,
    received: np.ndarray,
    sample_rate_hz: float,
    freqs_hz: np.ndarray,
) -> np.ndarray:
    """Estimate an end-to-end magnitude response (dB) at the given frequencies.

    The estimate is the ratio of received to transmitted energy density,
    each smoothed over five FFT bins, evaluated at ``freqs_hz``.  This
    mirrors how the paper's Fig. 3 curves are produced from chirp probes.
    """
    require_positive(sample_rate_hz, "sample_rate_hz")
    transmitted = np.asarray(transmitted, dtype=float)
    received = np.asarray(received, dtype=float)
    n = max(transmitted.size, received.size)
    n_fft = int(2 ** np.ceil(np.log2(max(n, 16))))
    tx_spec = np.abs(np.fft.rfft(transmitted, n=n_fft)) ** 2
    rx_spec = np.abs(np.fft.rfft(received, n=n_fft)) ** 2
    grid = np.fft.rfftfreq(n_fft, d=1.0 / sample_rate_hz)
    kernel = np.ones(5) / 5
    tx_spec = np.convolve(tx_spec, kernel, mode="same")
    rx_spec = np.convolve(rx_spec, kernel, mode="same")
    ratio = rx_spec / np.maximum(tx_spec, 1e-30)
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    values = np.interp(freqs_hz, grid, ratio)
    return power_ratio_to_db(np.maximum(values, 1e-30))
