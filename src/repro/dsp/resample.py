"""Doppler resampling.

Motion of a diver holding the phone compresses or dilates the received
waveform.  At the speeds relevant to the paper (relative speeds below
2 m/s against a 1500 m/s sound speed) the Doppler factor is at most about
0.13 %, i.e. a few Hz of shift at 4 kHz, which is small compared with the
50 Hz subcarrier spacing -- exactly the argument made in section 2.3 of the
paper.  The channel simulator still models it so that the claim can be
verified rather than assumed.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_positive

#: Nominal underwater sound speed used throughout the paper (m/s).
SOUND_SPEED_WATER_M_S = 1500.0

#: Read-only cached 0..n-1 ramps for the per-packet Doppler warp (the same
#: buffer lengths recur throughout a session).
_INDEX_RAMP_CACHE: dict[int, np.ndarray] = {}


def _index_ramp(n: int) -> np.ndarray:
    ramp = _INDEX_RAMP_CACHE.get(n)
    if ramp is None:
        if len(_INDEX_RAMP_CACHE) > 16:
            _INDEX_RAMP_CACHE.clear()
        ramp = np.arange(n, dtype=float)
        ramp.setflags(write=False)
        _INDEX_RAMP_CACHE[n] = ramp
    return ramp


def doppler_factor(relative_speed_m_s: float) -> float:
    """Return the time-scaling factor for a given closing speed.

    Positive ``relative_speed_m_s`` means the devices are approaching each
    other (received signal compressed, frequencies shifted up).
    """
    if abs(relative_speed_m_s) >= SOUND_SPEED_WATER_M_S:
        raise ValueError("relative speed must be below the sound speed")
    return 1.0 + relative_speed_m_s / SOUND_SPEED_WATER_M_S


def apply_doppler(
    samples: np.ndarray,
    factor: float,
) -> np.ndarray:
    """Resample ``samples`` by the Doppler ``factor`` (output keeps length).

    A factor of 1.0 returns the input unchanged.  Linear interpolation is
    sufficient here because the factor is always within a fraction of a
    percent of unity for human-speed motion.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        return samples.copy()
    require_positive(factor, "factor")
    if abs(factor - 1.0) < 1e-12:
        return samples.copy()
    original_index = _index_ramp(samples.size)
    warped_index = original_index * factor
    return np.interp(warped_index, original_index, samples, left=0.0, right=0.0)

