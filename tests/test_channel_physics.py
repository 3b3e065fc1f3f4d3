"""Tests for propagation physics."""

import numpy as np
import pytest

from oracles.channel import path_amplitude, spreading_loss_db, transmission_loss_db
from repro.channel.physics import absorption_db_per_km, sound_speed_m_s


def test_sound_speed_in_plausible_range():
    assert 1400 < sound_speed_m_s() < 1550
    assert 1400 < sound_speed_m_s(temperature_c=5.0, depth_m=15.0) < 1550


def test_sound_speed_increases_with_temperature():
    assert sound_speed_m_s(temperature_c=20.0) > sound_speed_m_s(temperature_c=5.0)


def test_absorption_increases_with_frequency():
    assert absorption_db_per_km(4000) > absorption_db_per_km(1000) > 0


def test_absorption_is_negligible_at_modem_frequencies():
    # Below 4 kHz the Thorp absorption over 100 m is a fraction of a dB.
    assert absorption_db_per_km(4000) * 0.1 < 0.1


def test_absorption_accepts_arrays():
    values = absorption_db_per_km(np.array([1000.0, 2000.0, 4000.0]))
    assert values.shape == (3,)
    assert np.all(np.diff(values) > 0)


def test_spreading_loss_monotone_in_distance():
    distances = [1, 5, 10, 30, 100]
    losses = [spreading_loss_db(d) for d in distances]
    assert all(b > a for a, b in zip(losses, losses[1:]))
    assert spreading_loss_db(1.0) == pytest.approx(0.0)


def test_spreading_loss_follows_exponent():
    assert spreading_loss_db(10.0, spreading_exponent=2.0) == pytest.approx(20.0)
    assert spreading_loss_db(10.0, spreading_exponent=1.5) == pytest.approx(15.0)


def test_transmission_loss_combines_terms():
    loss = transmission_loss_db(30.0, 2500.0)
    assert loss > spreading_loss_db(30.0) - 1e-9
    assert loss == pytest.approx(spreading_loss_db(30.0), abs=0.5)


def test_path_amplitude_decreases_with_distance():
    assert path_amplitude(5.0) > path_amplitude(10.0) > path_amplitude(30.0) > 0


def test_path_amplitude_at_reference_distance():
    assert path_amplitude(1.0) == pytest.approx(1.0, abs=1e-3)


def test_distance_validation():
    with pytest.raises(ValueError):
        spreading_loss_db(-1.0)
    with pytest.raises(ValueError):
        transmission_loss_db(0.0)


def test_nominal_sound_speed_is_shared_by_every_layer():
    from repro.channel.physics import SOUND_SPEED_M_S
    from repro.dsp.resample import SOUND_SPEED_WATER_M_S
    from repro.mac import simulator as mac_simulator

    assert SOUND_SPEED_M_S == 1500.0
    assert SOUND_SPEED_M_S is SOUND_SPEED_WATER_M_S
    assert mac_simulator.SOUND_SPEED_M_S is SOUND_SPEED_M_S
