"""CAZAC (Zadoff-Chu) sequences.

The AquaApp preamble fills its OFDM subcarriers with a CAZAC sequence
because such sequences have constant amplitude (unit peak-to-average power
ratio in the frequency domain) and an ideal periodic autocorrelation, which
makes them well suited both for detection by correlation and for channel
estimation.  (The pseudo-noise sign pattern over the eight preamble
symbols is :data:`repro.core.config.PREAMBLE_PN_SIGNS`.)
"""

from __future__ import annotations

import math

import numpy as np


def zadoff_chu(length: int, root: int = 1) -> np.ndarray:
    """Return a Zadoff-Chu sequence of ``length`` complex samples.

    Parameters
    ----------
    length:
        Number of elements in the sequence.  Any positive integer is
        accepted; odd lengths give the classical ideal autocorrelation, but
        even lengths (used when the number of OFDM data bins is even) still
        provide constant amplitude and low autocorrelation sidelobes.
    root:
        Sequence root ``u``.  Must be coprime with ``length`` for the ideal
        autocorrelation property; if it is not, the nearest coprime root is
        used instead so callers never silently get a degenerate sequence.

    Returns
    -------
    numpy.ndarray
        Complex array of unit-magnitude samples.
    """
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if root <= 0:
        raise ValueError(f"root must be positive, got {root}")
    u = root % length
    if u == 0:
        u = 1
    # Walk to the nearest root that is coprime with the length.
    while math.gcd(u, length) != 1:
        u += 1
        if u >= length:
            u = 1
    n = np.arange(length)
    if length % 2 == 0:
        phase = -np.pi * u * n * n / length
    else:
        phase = -np.pi * u * n * (n + 1) / length
    return np.exp(1j * phase)
