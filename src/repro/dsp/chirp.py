"""Linear frequency modulated (LFM) chirps.

Chirps are used by the characterization experiments in the paper (Fig. 3):
a 1-5 kHz chirp probes the end-to-end frequency response of a device pair
through the water, and a 1-3 kHz chirp probes channel reciprocity.  The
modem itself does *not* use chirps for its preamble (the paper found LFM
detection not robust enough and uses a CAZAC preamble instead), but the
channel-response figures of :mod:`repro.validation` need them.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_positive


def lfm_chirp(
    f_start_hz: float,
    f_end_hz: float,
    duration_s: float,
    sample_rate_hz: float,
) -> np.ndarray:
    """Return a real-valued, unit-amplitude linear frequency modulated chirp.

    Parameters
    ----------
    f_start_hz, f_end_hz:
        Start and end frequencies of the sweep in Hz.  A downward sweep
        (``f_end_hz < f_start_hz``) is allowed.
    duration_s:
        Sweep duration in seconds.
    sample_rate_hz:
        Sampling rate in Hz.
    """
    require_positive(duration_s, "duration_s")
    require_positive(sample_rate_hz, "sample_rate_hz")
    if f_start_hz < 0 or f_end_hz < 0:
        raise ValueError("chirp frequencies must be non-negative")
    num_samples = int(round(duration_s * sample_rate_hz))
    if num_samples < 2:
        raise ValueError("chirp too short for the given sample rate")
    t = np.arange(num_samples) / sample_rate_hz
    sweep_rate = (f_end_hz - f_start_hz) / duration_s
    phase = 2.0 * np.pi * (f_start_hz * t + 0.5 * sweep_rate * t * t)
    return np.sin(phase)
