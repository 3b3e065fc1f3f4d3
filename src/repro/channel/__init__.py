"""Simulated underwater acoustic channel substrate.

The paper evaluates AquaApp in real lakes and bays; this package provides
the synthetic equivalent used by the reproduction: shallow-water multipath
impulse responses built with the image method, frequency-dependent
absorption and spreading loss, site-dependent ambient noise, device motion
(Doppler plus channel drift) and a simple in-air channel used by the
reciprocity characterization experiment.
"""

from repro.channel.air import InAirChannel
from repro.channel.channel import ChannelOutput, UnderwaterAcousticChannel
from repro.channel.motion import MotionModel, MotionState
from repro.channel.multipath import ImageMethodGeometry, MultipathModel, PropagationPath
from repro.channel.noise import AmbientNoiseModel
from repro.channel.physics import (
    SOUND_SPEED_M_S,
    absorption_db_per_km,
    sound_speed_m_s,
)

__all__ = [
    "UnderwaterAcousticChannel",
    "ChannelOutput",
    "InAirChannel",
    "MultipathModel",
    "ImageMethodGeometry",
    "PropagationPath",
    "AmbientNoiseModel",
    "MotionModel",
    "MotionState",
    "SOUND_SPEED_M_S",
    "sound_speed_m_s",
    "absorption_db_per_km",
]
