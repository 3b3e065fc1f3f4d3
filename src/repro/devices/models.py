"""Device catalog: the four mobile devices evaluated in the paper.

The responses below are *models*, not measurements: deterministic curves
chosen to reproduce the qualitative behaviour of Fig. 3a -- uneven in-band
gain, notches at device-specific frequencies, a roll-off above 4 kHz and a
lower output level for the smartwatch.  What matters for the reproduction
is that different transmit/receive device pairs see different frequency
selectivity, which is the condition the band-adaptation algorithm is
designed for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.response import FrequencyResponse, ResponseNotch


@dataclass(frozen=True)
class DeviceModel:
    """A mobile device with a speaker, a microphone and a transmit budget.

    Attributes
    ----------
    name:
        Marketing name of the device.
    kind:
        ``"phone"`` or ``"watch"``.
    speaker_response, microphone_response:
        Frequency responses of the audio transducers (in water, inside the
        default pouch -- the case model adds its own attenuation on top).
    source_level_db:
        Transmit level at maximum volume, in dB relative to the simulator's
        reference amplitude at 1 m.
    microphone_noise_db:
        Self-noise floor of the microphone and ADC.
    directivity_loss_at_180_db:
        Additional loss when the devices face away from each other
        (azimuth 180 degrees); intermediate angles interpolate smoothly.
    """

    name: str
    kind: str
    speaker_response: FrequencyResponse
    microphone_response: FrequencyResponse
    source_level_db: float = 0.0
    microphone_noise_db: float = -60.0
    directivity_loss_at_180_db: float = 5.0

    def orientation_gain_db(self, azimuth_deg: float) -> float:
        """Return the gain penalty for a relative azimuth angle in degrees.

        0 degrees means speaker and microphone directly facing each other;
        180 degrees means facing away.  The penalty grows smoothly
        (raised-cosine) up to ``directivity_loss_at_180_db``.
        """
        azimuth = abs(float(azimuth_deg)) % 360.0
        if azimuth > 180.0:
            azimuth = 360.0 - azimuth
        fraction = 0.5 * (1.0 - np.cos(np.pi * azimuth / 180.0))
        return -self.directivity_loss_at_180_db * fraction

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


def _phone_response(label: str, notch_freqs: tuple[float, ...], tilt_db: float) -> FrequencyResponse:
    """Build a phone-class transducer response with device-specific notches."""
    notches = tuple(
        ResponseNotch(frequency_hz=f, depth_db=7.0 + 2.0 * (i % 3), width_hz=180.0 + 40.0 * i)
        for i, f in enumerate(notch_freqs)
    )
    return FrequencyResponse(
        anchor_frequencies_hz=(200.0, 800.0, 1200.0, 1800.0, 2500.0, 3500.0, 4000.0, 5000.0, 8000.0),
        anchor_gains_db=(
            -14.0,
            -7.0,
            -4.0,
            0.0 + tilt_db,
            1.0,
            -1.0 - tilt_db,
            -4.0,
            -14.0,
            -30.0,
        ),
        notches=notches,
        label=label,
    )


#: Samsung Galaxy S9 -- the workhorse device of the paper's evaluation.
GALAXY_S9 = DeviceModel(
    name="Samsung Galaxy S9",
    kind="phone",
    speaker_response=_phone_response("S9 speaker", (1850.0, 3100.0), tilt_db=0.5),
    microphone_response=_phone_response("S9 microphone", (2650.0,), tilt_db=0.0),
    source_level_db=0.0,
)

#: Google Pixel 4.
PIXEL_4 = DeviceModel(
    name="Google Pixel 4",
    kind="phone",
    speaker_response=_phone_response("Pixel 4 speaker", (1450.0, 2900.0), tilt_db=-0.5),
    microphone_response=_phone_response("Pixel 4 microphone", (3350.0,), tilt_db=0.5),
    source_level_db=-1.0,
)

#: OnePlus 8 Pro.
ONEPLUS_8_PRO = DeviceModel(
    name="OnePlus 8 Pro",
    kind="phone",
    speaker_response=_phone_response("OnePlus 8 Pro speaker", (2150.0, 3600.0), tilt_db=1.0),
    microphone_response=_phone_response("OnePlus 8 Pro microphone", (1700.0,), tilt_db=-0.5),
    source_level_db=-0.5,
)

#: Samsung Galaxy Watch 4 -- smaller transducers, lower output, earlier roll-off.
GALAXY_WATCH_4 = DeviceModel(
    name="Samsung Galaxy Watch 4",
    kind="watch",
    speaker_response=FrequencyResponse(
        anchor_frequencies_hz=(200.0, 800.0, 1500.0, 2500.0, 3200.0, 4000.0, 5000.0, 8000.0),
        anchor_gains_db=(-18.0, -8.0, -3.0, -2.0, -5.0, -10.0, -20.0, -36.0),
        notches=(ResponseNotch(2450.0, 9.0, 200.0),),
        label="Watch 4 speaker",
    ),
    microphone_response=_phone_response("Watch 4 microphone", (3050.0,), tilt_db=-1.0),
    source_level_db=-6.0,
)

#: All modelled devices, keyed by a short identifier.
DEVICE_CATALOG: dict[str, DeviceModel] = {
    "galaxy_s9": GALAXY_S9,
    "pixel_4": PIXEL_4,
    "oneplus_8_pro": ONEPLUS_8_PRO,
    "galaxy_watch_4": GALAXY_WATCH_4,
}
