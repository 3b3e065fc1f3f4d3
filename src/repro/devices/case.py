"""Waterproof case models.

The paper uses two enclosures: a thin flexible PVC pouch (most
experiments) and a hard polycarbonate/TPU case rated to 15 m (the deep
water experiment of Fig. 11), noting that the hard case attenuates the
sound more.  Fig. 18 additionally compares a pouch with the air expelled
against one intentionally filled with air, finding the average 1-4 kHz
power not significantly different even though the fine structure of the
response changes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.devices.response import FrequencyResponse, ResponseNotch


@dataclass(frozen=True)
class WaterproofCase:
    """Acoustic model of a waterproof enclosure.

    Attributes
    ----------
    name:
        Label of the enclosure.
    attenuation_db:
        Broadband insertion loss of the case (applies to both transmit and
        receive directions).
    response:
        Additional frequency-dependent shaping (ripple caused by the case
        material and by any trapped air).
    rated_depth_m:
        Manufacturer depth rating; the simulator refuses to run a link with
        the devices deeper than their case rating.
    """

    name: str
    attenuation_db: float
    response: FrequencyResponse
    rated_depth_m: float

    def check_depth(self, depth_m: float) -> None:
        """Raise ``ValueError`` if ``depth_m`` exceeds the case rating."""
        if depth_m > self.rated_depth_m:
            raise ValueError(
                f"{self.name} is rated to {self.rated_depth_m} m but the device "
                f"is at {depth_m} m"
            )


def _ripple_response(label: str, ripple_db: float, period_hz: float, notch: float | None = None) -> FrequencyResponse:
    """A gently rippling response modelling case-induced comb effects."""
    freqs = tuple(float(f) for f in np.linspace(200.0, 8000.0, 14))
    gains = tuple(float(ripple_db * np.sin(2.0 * np.pi * f / period_hz)) for f in freqs)
    notches = (ResponseNotch(notch, 6.0, 300.0),) if notch else tuple()
    return FrequencyResponse(freqs, gains, notches, label=label)


#: No enclosure at all (used by in-air characterization).
NO_CASE = WaterproofCase(
    name="no case",
    attenuation_db=0.0,
    response=_ripple_response("no case", 0.0, 5000.0),
    rated_depth_m=0.5,
)

#: Thin flexible PVC pouch, air expelled (the default in the paper).
SOFT_POUCH = WaterproofCase(
    name="soft PVC pouch",
    attenuation_db=1.0,
    response=_ripple_response("soft pouch", 0.8, 2600.0),
    rated_depth_m=8.0,
)

#: The same pouch deliberately filled with air (Fig. 18).
AIR_FILLED_POUCH = WaterproofCase(
    name="air-filled PVC pouch",
    attenuation_db=1.6,
    response=_ripple_response("air-filled pouch", 2.2, 1400.0, notch=2850.0),
    rated_depth_m=8.0,
)

#: Hard polycarbonate/TPU diving case rated to 15 m (Fig. 11).
HARD_CASE = WaterproofCase(
    name="hard polycarbonate case",
    attenuation_db=5.0,
    response=_ripple_response("hard case", 1.5, 1900.0, notch=3400.0),
    rated_depth_m=15.0,
)

#: All modelled cases keyed by a short identifier.
CASE_CATALOG: dict[str, WaterproofCase] = {
    "none": NO_CASE,
    "soft_pouch": SOFT_POUCH,
    "air_filled_pouch": AIR_FILLED_POUCH,
    "hard_case": HARD_CASE,
}
