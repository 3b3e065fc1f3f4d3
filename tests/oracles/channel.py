"""The channel's propagation as separate ``fftconvolve`` passes."""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.channel.channel import UnderwaterAcousticChannel
from repro.channel.motion import MotionState
from repro.dsp.resample import apply_doppler


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
