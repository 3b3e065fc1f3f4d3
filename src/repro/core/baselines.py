"""Fixed-bandwidth baseline schemes.

The paper compares its frequency-band adaptation against transmitting in a
fixed band regardless of the channel: the full 1-4 kHz band (60 bins), a
1-2.5 kHz band (30 bins) and a 1-1.5 kHz band (10 bins).  Figures 9, 10,
12 and 15 all report these baselines, labelled by their bandwidth (3 kHz,
1.5 kHz and 0.5 kHz respectively).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.adaptation import BandSelection, selection_from_bins
from repro.core.config import OFDMConfig


@dataclass(frozen=True)
class FixedBandScheme:
    """A non-adaptive transmission scheme using a fixed frequency band.

    Attributes
    ----------
    name:
        Human-readable label (matching the paper's figure legends).
    low_hz, high_hz:
        Band edges in Hz.
    """

    name: str
    low_hz: float
    high_hz: float

    def selection(self, config: OFDMConfig | None = None) -> BandSelection:
        """Return the band selection this scheme always uses."""
        config = config or OFDMConfig()
        start_bin = max(config.first_data_bin, config.frequency_to_bin(self.low_hz))
        end_bin = min(config.last_data_bin, config.frequency_to_bin(self.high_hz) - 1)
        return selection_from_bins(start_bin, end_bin, config)

#: The three fixed-bandwidth baselines evaluated in the paper.
FIXED_FULL_BAND = FixedBandScheme("fixed 3 kHz (1-4 kHz)", 1000.0, 4000.0)
FIXED_MEDIUM_BAND = FixedBandScheme("fixed 1.5 kHz (1-2.5 kHz)", 1000.0, 2500.0)
FIXED_NARROW_BAND = FixedBandScheme("fixed 0.5 kHz (1-1.5 kHz)", 1000.0, 1500.0)

FIXED_BAND_SCHEMES: tuple[FixedBandScheme, ...] = (
    FIXED_FULL_BAND,
    FIXED_MEDIUM_BAND,
    FIXED_NARROW_BAND,
)
