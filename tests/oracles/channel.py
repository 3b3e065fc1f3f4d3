"""The channel's propagation as separate ``fftconvolve`` passes, and the
scalar spreading-plus-absorption loss the multipath tap builder inlines."""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.channel.channel import UnderwaterAcousticChannel
from repro.channel.motion import MotionState
from repro.channel.physics import absorption_db_per_km
from repro.dsp.resample import apply_doppler
from repro.utils.validation import require_positive

#: Reference distance for transmission-loss calculations (metres).
REFERENCE_DISTANCE_M = 1.0


class FftconvolveChannel(UnderwaterAcousticChannel):
    """A channel that propagates through 2-3 separate ``fftconvolve`` calls.

    It makes the same random draws and the same drift updates as the
    frequency-domain :meth:`UnderwaterAcousticChannel._propagate`, but
    convolves the static multipath, the drifted multipath and the device
    chain one at a time, without cached transfer functions.
    """

    def _propagate(
        self,
        scaled: np.ndarray,
        motion_state: MotionState,
        doppler: float,
        duration_s: float,
        rng: np.random.Generator,
    ) -> np.ndarray:
        static_part = sp_signal.fftconvolve(scaled, self._impulse_response)
        if motion_state.drift_rate_per_s > 0:
            drifted_multipath = self._drifted_multipath(motion_state, rng)
            drifted_response = drifted_multipath.impulse_response(self.sample_rate_hz)
            drifted_part = sp_signal.fftconvolve(scaled, drifted_response)
            propagated = self._drift_mix(static_part, drifted_part, motion_state, duration_s)
            self.multipath = drifted_multipath
            self._impulse_response = drifted_response
        else:
            propagated = static_part

        if abs(doppler - 1.0) > 1e-9:
            propagated = apply_doppler(propagated, doppler)

        received = sp_signal.fftconvolve(propagated, self._device_fir)
        return received[self._device_fir_delay:]


def spreading_loss_db(distance_m: float, spreading_exponent: float = 2.0) -> float:
    """Return geometric spreading loss in dB at ``distance_m``."""
    require_positive(distance_m, "distance_m")
    distance = max(distance_m, REFERENCE_DISTANCE_M)
    return spreading_exponent * 10.0 * np.log10(distance / REFERENCE_DISTANCE_M)


def transmission_loss_db(
    distance_m: float,
    frequency_hz: float | np.ndarray = 2500.0,
    spreading_exponent: float = 2.0,
) -> float | np.ndarray:
    """Return total one-way transmission loss (spreading + absorption) in dB."""
    require_positive(distance_m, "distance_m")
    spreading = spreading_loss_db(distance_m, spreading_exponent)
    absorption = absorption_db_per_km(frequency_hz) * distance_m / 1000.0
    return spreading + absorption


def path_amplitude(
    distance_m: float,
    frequency_hz: float = 2500.0,
    spreading_exponent: float = 2.0,
) -> float:
    """Return the linear amplitude factor for a propagation path."""
    loss_db = transmission_loss_db(distance_m, frequency_hz, spreading_exponent)
    return float(10.0 ** (-loss_db / 20.0))
