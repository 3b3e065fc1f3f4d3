"""Underwater acoustic propagation physics.

Standard empirical models are used:

* sound speed from Mackenzie's nine-term equation (simplified to the three
  dominant terms for the shallow, fresh-to-brackish water sites of the
  paper);
* absorption from Thorp's formula -- essentially negligible below 4 kHz
  over tens of metres, but included so the long-range beacon experiments
  see the correct (small) trend;
* spherical spreading loss ``20 * log10(d)``, applied per path by the
  multipath tap builder (:mod:`repro.channel.multipath`): it matches the
  short, shallow links of the paper, where boundary losses remove most of
  the energy that cylindrical spreading would otherwise retain.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.resample import SOUND_SPEED_WATER_M_S

#: Canonical nominal sound speed (m/s) for distance-to-delay conversions.
#: The paper simply uses 1500 m/s; every layer that needs the nominal value
#: (MAC sensing delays, network propagation delays, feedback timeouts)
#: imports this name so the constant is defined exactly once.  The literal
#: lives in :mod:`repro.dsp.resample` (the lowest layer that needs it);
#: this is the canonical spelling for everything above the DSP layer.
SOUND_SPEED_M_S = SOUND_SPEED_WATER_M_S


def sound_speed_m_s(
    temperature_c: float = 12.0,
    salinity_ppt: float = 0.5,
    depth_m: float = 5.0,
) -> float:
    """Return the speed of sound in water (m/s).

    Uses the leading terms of Mackenzie (1981).  For the paper's fresh- and
    brackish-water sites at 2-15 m depth this lands in the 1450-1500 m/s
    range; the paper itself simply uses 1500 m/s.
    """
    t = temperature_c
    s = salinity_ppt
    d = depth_m
    return (
        1448.96
        + 4.591 * t
        - 5.304e-2 * t ** 2
        + 2.374e-4 * t ** 3
        + 1.340 * (s - 35.0)
        + 1.630e-2 * d
        + 1.675e-7 * d ** 2
    )


def absorption_db_per_km(frequency_hz: float | np.ndarray) -> float | np.ndarray:
    """Return Thorp's absorption coefficient in dB/km at ``frequency_hz``."""
    f_khz = np.asarray(frequency_hz, dtype=float) / 1000.0
    f2 = f_khz ** 2
    alpha = 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    if np.isscalar(frequency_hz):
        return float(alpha)
    return alpha
