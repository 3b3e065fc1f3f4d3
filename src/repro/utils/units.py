"""Decibel and unit conversion helpers.

The modem and channel code work in two different dB conventions:

* *power* quantities (SNR, noise levels, transmission loss) use
  ``10 * log10``;
* *amplitude* quantities (filter gains, reflection coefficients) use
  ``20 * log10``.

Keeping the conversions in one module avoids the classic factor-of-two
mistakes when the two conventions meet.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-30


def power_ratio_to_db(ratio: float | np.ndarray) -> float | np.ndarray:
    """Convert a linear *power* ratio to dB (``10 * log10(ratio)``)."""
    arr = np.asarray(ratio, dtype=float)
    out = 10.0 * np.log10(np.maximum(arr, _EPS))
    return out if isinstance(ratio, np.ndarray) else float(out)


def db_to_amplitude_ratio(db: float | np.ndarray) -> float | np.ndarray:
    """Convert a dB value to a linear *amplitude* ratio (``10 ** (db / 20)``)."""
    return 10.0 ** (np.asarray(db, dtype=float) / 20.0) if isinstance(db, np.ndarray) else 10.0 ** (db / 20.0)
