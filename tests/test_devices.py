"""Tests for device and waterproof-case models."""

import numpy as np
import pytest

from repro.devices.case import (
    AIR_FILLED_POUCH,
    CASE_CATALOG,
    HARD_CASE,
    NO_CASE,
    SOFT_POUCH,
)
from repro.devices.models import (
    DEVICE_CATALOG,
    GALAXY_S9,
    GALAXY_WATCH_4,
    ONEPLUS_8_PRO,
    PIXEL_4,
)
from repro.devices.response import FrequencyResponse, ResponseNotch


def _flat(gain_db):
    """A frequency-independent response with the given gain."""
    return FrequencyResponse((20.0, 24000.0), (gain_db, gain_db), label="flat")


def _mean_gain_db(response, low_hz=1000.0, high_hz=4000.0):
    return float(np.mean(response.gain_db(np.linspace(low_hz, high_hz, 64))))


def _case_gain_db(case, freqs):
    return case.response.gain_db(freqs) - case.attenuation_db


def test_catalog_contains_the_four_paper_devices():
    assert set(DEVICE_CATALOG) == {"galaxy_s9", "pixel_4", "oneplus_8_pro", "galaxy_watch_4"}


def test_device_responses_differ_between_models():
    freqs = np.arange(1000.0, 4000.0, 50.0)
    s9 = GALAXY_S9.speaker_response.gain_db(freqs)
    pixel = PIXEL_4.speaker_response.gain_db(freqs)
    oneplus = ONEPLUS_8_PRO.speaker_response.gain_db(freqs)
    assert np.max(np.abs(s9 - pixel)) > 3.0
    assert np.max(np.abs(s9 - oneplus)) > 3.0


def test_responses_roll_off_above_4khz():
    """Fig. 3a: the response diminishes above 4 kHz on all devices."""
    for device in DEVICE_CATALOG.values():
        in_band = _mean_gain_db(device.speaker_response, 2000.0, 3500.0)
        above = _mean_gain_db(device.speaker_response, 6000.0, 8000.0)
        assert above < in_band - 8.0


def test_responses_have_in_band_notches():
    freqs = np.arange(1000.0, 4000.0, 10.0)
    for device in (GALAXY_S9, PIXEL_4, ONEPLUS_8_PRO):
        gains = device.speaker_response.gain_db(freqs)
        assert gains.max() - gains.min() > 8.0


def test_watch_is_quieter_than_phones():
    assert GALAXY_WATCH_4.source_level_db < GALAXY_S9.source_level_db
    assert (_mean_gain_db(GALAXY_WATCH_4.speaker_response)
            < _mean_gain_db(GALAXY_S9.speaker_response))


def test_orientation_gain_monotone_and_bounded():
    angles = [0, 45, 90, 135, 180]
    gains = [GALAXY_S9.orientation_gain_db(a) for a in angles]
    assert gains[0] == pytest.approx(0.0)
    assert all(b <= a for a, b in zip(gains, gains[1:]))
    assert gains[-1] == pytest.approx(-GALAXY_S9.directivity_loss_at_180_db)


def test_orientation_gain_symmetric_and_periodic():
    assert GALAXY_S9.orientation_gain_db(90) == pytest.approx(GALAXY_S9.orientation_gain_db(-90))
    assert GALAXY_S9.orientation_gain_db(270) == pytest.approx(GALAXY_S9.orientation_gain_db(90))


def test_frequency_response_interpolation_and_notch():
    response = FrequencyResponse(
        anchor_frequencies_hz=(1000.0, 4000.0),
        anchor_gains_db=(0.0, 0.0),
        notches=(ResponseNotch(2000.0, 12.0, 200.0),),
    )
    assert response.gain_db(2000.0) == pytest.approx(-12.0, abs=0.5)
    assert response.gain_db(3000.0) == pytest.approx(0.0, abs=0.5)


def test_frequency_response_validation():
    with pytest.raises(ValueError):
        FrequencyResponse((1000.0,), (0.0,))
    with pytest.raises(ValueError):
        FrequencyResponse((2000.0, 1000.0), (0.0, 0.0))
    with pytest.raises(ValueError):
        FrequencyResponse((1000.0, 2000.0), (0.0,))


def test_flat_response_is_flat():
    response = _flat(-3.0)
    freqs = np.array([100.0, 1000.0, 10000.0])
    np.testing.assert_allclose(response.gain_db(freqs), -3.0)


def test_combined_response_adds_gains():
    a = _flat(-2.0)
    b = _flat(-3.0)
    combined = a.combined_with(b)
    assert combined.gain_db(2000.0) == pytest.approx(-5.0, abs=0.1)


def test_response_apply_scales_waveform():
    response = _flat(-20.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(4800)
    y = response.apply(x)
    assert y.size == x.size
    # -20 dB is a factor of 10 in amplitude (allowing for filter edge effects).
    assert np.std(y[500:-500]) == pytest.approx(0.1 * np.std(x[500:-500]), rel=0.2)


def test_case_catalog_and_attenuations():
    assert set(CASE_CATALOG) == {"none", "soft_pouch", "air_filled_pouch", "hard_case"}
    assert HARD_CASE.attenuation_db > SOFT_POUCH.attenuation_db
    assert NO_CASE.attenuation_db == 0.0


def test_hard_case_rated_deeper_than_pouch():
    assert HARD_CASE.rated_depth_m == pytest.approx(15.0)
    assert HARD_CASE.rated_depth_m > SOFT_POUCH.rated_depth_m


def test_case_depth_check():
    SOFT_POUCH.check_depth(2.0)
    with pytest.raises(ValueError):
        SOFT_POUCH.check_depth(12.0)
    HARD_CASE.check_depth(12.0)


def test_air_filled_pouch_similar_average_power_in_band():
    """Fig. 18: air in the case changes the fine structure, not the 1-4 kHz average."""
    freqs = np.arange(1000.0, 4000.0, 25.0)
    expelled = _case_gain_db(SOFT_POUCH, freqs)
    air = _case_gain_db(AIR_FILLED_POUCH, freqs)
    assert abs(np.mean(expelled) - np.mean(air)) < 2.0
    assert np.max(np.abs(expelled - air)) > 1.0
