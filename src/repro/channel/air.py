"""In-air acoustic channel used by the reciprocity characterization.

Fig. 3c of the paper shows that in air the forward and backward channels
between two identical phones have very similar frequency responses, whereas
underwater (Fig. 3d) they differ substantially.  The difference comes from
the much denser multipath underwater combined with the centimetre-scale
wavelengths: tiny geometric asymmetries between the speaker and microphone
positions on the two devices translate into different standing-wave
patterns for the two directions.

:class:`InAirChannel` models a short in-air link with one weak floor/wall
reflection; swapping transmitter and receiver changes the geometry only
negligibly, so the forward and backward responses come out nearly
identical -- which is exactly the contrast Fig. 3c/d needs to show.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_amplitude_ratio
from repro.utils.validation import require_positive


@dataclass
class InAirChannel:
    """A simple two-path in-air channel between two devices.

    Parameters
    ----------
    distance_m:
        Separation between the devices.
    reflection_delay_ms:
        Extra delay of the single modelled reflection.
    reflection_gain_db:
        Gain of the reflection relative to the direct path.
    noise_level_db:
        In-air ambient noise level.
    """

    distance_m: float = 2.0
    reflection_delay_ms: float = 3.0
    reflection_gain_db: float = -12.0
    noise_level_db: float = -55.0

    def __post_init__(self) -> None:
        require_positive(self.distance_m, "distance_m")

    def impulse_response(self, sample_rate_hz: float) -> np.ndarray:
        """Return the two-tap impulse response (bulk delay removed)."""
        require_positive(sample_rate_hz, "sample_rate_hz")
        direct_gain = 1.0 / max(self.distance_m, 1.0)
        reflection_offset = int(round(self.reflection_delay_ms * 1e-3 * sample_rate_hz))
        response = np.zeros(reflection_offset + 1)
        response[0] = direct_gain
        response[reflection_offset] = direct_gain * db_to_amplitude_ratio(self.reflection_gain_db)
        return response

    def transmit(
        self,
        waveform: np.ndarray,
        sample_rate_hz: float,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Propagate ``waveform`` through the in-air channel and add noise."""
        rng = ensure_rng(rng)
        waveform = np.asarray(waveform, dtype=float)
        received = np.convolve(waveform, self.impulse_response(sample_rate_hz))[: waveform.size]
        noise = rng.standard_normal(received.size) * db_to_amplitude_ratio(self.noise_level_db)
        return received + noise

    def reverse(self) -> "InAirChannel":
        """Return the backward-direction channel.

        In air the geometry is effectively symmetric, so the reverse channel
        is an almost identical copy (tiny perturbation of the reflection).
        """
        return InAirChannel(
            distance_m=self.distance_m,
            reflection_delay_ms=self.reflection_delay_ms * 1.02,
            reflection_gain_db=self.reflection_gain_db - 0.5,
            noise_level_db=self.noise_level_db,
        )
