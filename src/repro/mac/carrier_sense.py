"""Energy-detection carrier sense.

The physical carrier-sense primitive measures the average energy in the
1-4 kHz communication band over a short window (80 ms in the paper) and
compares it against a threshold calibrated from a few seconds of ambient
noise recorded at the site before use.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import (
    BAND_HIGH_HZ,
    BAND_LOW_HZ,
    CARRIER_SENSE_INTERVAL_S,
    SAMPLE_RATE_HZ,
)
from repro.dsp.spectrum import band_power
from repro.utils.units import power_ratio_to_db


class EnergyDetector:
    """Measures the energy in the communication band, once per
    carrier-sense interval, and decides whether the channel is busy."""

    #: The busy threshold sits this many dB above the ambient noise floor.
    THRESHOLD_MARGIN_DB = 6.0

    def __init__(self) -> None:
        self.threshold_db: float | None = None

    @property
    def samples_per_measurement(self) -> int:
        """Number of samples in one 80 ms measurement window."""
        return int(round(CARRIER_SENSE_INTERVAL_S * SAMPLE_RATE_HZ))

    def measure_db(self, samples: np.ndarray) -> float:
        """Return the in-band energy of a measurement window in dB."""
        power = band_power(samples, SAMPLE_RATE_HZ, BAND_LOW_HZ, BAND_HIGH_HZ)
        return power_ratio_to_db(max(power, 1e-30))

    def calibrate(self, ambient_samples: np.ndarray) -> float:
        """Set the busy threshold from a recording of ambient noise.

        The paper computes the threshold from the average noise level over a
        few seconds in each environment before use.
        """
        ambient_samples = np.asarray(ambient_samples, dtype=float)
        window = self.samples_per_measurement
        if ambient_samples.size < window:
            raise ValueError("need at least one measurement window of ambient noise")
        num_windows = ambient_samples.size // window
        levels = [
            self.measure_db(ambient_samples[i * window:(i + 1) * window])
            for i in range(num_windows)
        ]
        self.threshold_db = float(np.mean(levels) + self.THRESHOLD_MARGIN_DB)
        return self.threshold_db

    def is_busy(self, samples: np.ndarray) -> bool:
        """Return whether the channel is busy according to the threshold."""
        if self.threshold_db is None:
            raise RuntimeError("detector must be calibrated before use")
        return self.measure_db(samples) > self.threshold_db
