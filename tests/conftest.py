"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.channel.channel import UnderwaterAcousticChannel
from repro.channel.multipath import ImageMethodGeometry, MultipathModel
from repro.channel.noise import AmbientNoiseModel
from repro.core.config import OFDMConfig, ProtocolConfig
from repro.core.modem import AquaModem

# One Hypothesis configuration for the whole suite.  A derandomized run
# draws the same examples every time, so the suite gives the same answer
# on every run; cases a fixed seed never draws are pinned with @example.
# Examples that run the simulator are slow, hence no deadline.
settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def ofdm_config() -> OFDMConfig:
    """The paper's default OFDM configuration."""
    return OFDMConfig()


@pytest.fixture(scope="session")
def protocol_config() -> ProtocolConfig:
    """The paper's default protocol configuration."""
    return ProtocolConfig()


@pytest.fixture(scope="session")
def modem() -> AquaModem:
    """One shared modem instance (stateless between calls)."""
    return AquaModem()


@pytest.fixture
def quiet_channel() -> UnderwaterAcousticChannel:
    """A short, quiet underwater channel that decodes easily."""
    geometry = ImageMethodGeometry(
        water_depth_m=4.0, tx_depth_m=1.0, rx_depth_m=1.0, horizontal_range_m=4.0
    )
    multipath = MultipathModel(geometry=geometry, surface_loss_db=2.0, bottom_loss_db=8.0, seed=7)
    noise = AmbientNoiseModel(level_db=-50.0)
    return UnderwaterAcousticChannel(multipath=multipath, noise=noise, seed=7)


@pytest.fixture
def noisy_channel() -> UnderwaterAcousticChannel:
    """A longer, noisier channel that stresses the adaptation."""
    geometry = ImageMethodGeometry(
        water_depth_m=5.0, tx_depth_m=1.0, rx_depth_m=1.2, horizontal_range_m=20.0
    )
    multipath = MultipathModel(
        geometry=geometry, surface_loss_db=1.0, bottom_loss_db=3.0, extra_reflectors=4, seed=11
    )
    noise = AmbientNoiseModel(level_db=-33.0, impulsive_rate_hz=1.0)
    return UnderwaterAcousticChannel(multipath=multipath, noise=noise, seed=11)
