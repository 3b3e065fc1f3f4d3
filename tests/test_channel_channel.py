"""Tests for the end-to-end underwater acoustic channel."""

import numpy as np
import pytest

from repro.channel.channel import UnderwaterAcousticChannel
from repro.channel.motion import FAST_MOTION, STATIC_MOTION
from repro.channel.multipath import ImageMethodGeometry, MultipathModel
from repro.channel.noise import AmbientNoiseModel
from repro.devices.case import HARD_CASE, SOFT_POUCH
from repro.devices.models import GALAXY_S9, PIXEL_4
from repro.dsp.chirp import lfm_chirp


def _channel(distance=5.0, noise_db=-45.0, motion=STATIC_MOTION, **kwargs):
    geometry = ImageMethodGeometry(
        water_depth_m=5.0, tx_depth_m=1.0, rx_depth_m=1.0, horizontal_range_m=distance
    )
    multipath = MultipathModel(geometry=geometry, seed=3)
    return UnderwaterAcousticChannel(
        multipath=multipath,
        noise=AmbientNoiseModel(level_db=noise_db),
        motion=motion,
        seed=3,
        **kwargs,
    )


def test_transmit_output_longer_than_input_by_channel_tail(rng):
    channel = _channel()
    x = rng.standard_normal(4800)
    out = channel.transmit(x, rng)
    assert out.samples.size > x.size
    assert np.all(np.isfinite(out.samples))


def test_transmit_rejects_empty_waveform(rng):
    with pytest.raises(ValueError):
        _channel().transmit(np.array([]), rng)


def test_received_level_decreases_with_distance(rng):
    x = lfm_chirp(1000, 4000, 0.2, 48000)
    near = _channel(distance=5.0).transmit(x, np.random.default_rng(0), include_noise=False)
    far = _channel(distance=25.0).transmit(x, np.random.default_rng(0), include_noise=False)
    assert np.std(near.samples) > 2 * np.std(far.samples)


def _snr_db(signal, noise):
    return 10.0 * np.log10(np.mean(signal ** 2) / max(np.mean(noise ** 2), 1e-300))


def _received_snr_db(channel_kwargs, x, seed):
    """SNR of one noisy transmission: the noise-free transmission on the
    same draws is its signal, and the difference is its noise."""
    noisy = _channel(**channel_kwargs).transmit(x, np.random.default_rng(seed))
    clean = _channel(**channel_kwargs).transmit(
        x, np.random.default_rng(seed), include_noise=False
    )
    return _snr_db(clean.samples, noisy.samples - clean.samples)


def test_snr_decreases_with_distance(rng):
    x = lfm_chirp(1000, 4000, 0.2, 48000)
    near = _received_snr_db(dict(distance=5.0, noise_db=-40.0), x, 1)
    far = _received_snr_db(dict(distance=25.0, noise_db=-40.0), x, 1)
    assert near > far + 5.0


def test_noise_free_transmission_has_high_snr(rng):
    """Without noise the channel is linear: doubling the input doubles the
    output, leaving no residual to count as noise."""
    x = lfm_chirp(1000, 4000, 0.1, 48000)
    out = _channel().transmit(x, np.random.default_rng(0), include_noise=False)
    doubled = _channel().transmit(2 * x, np.random.default_rng(0), include_noise=False)
    assert _snr_db(out.samples, doubled.samples / 2 - out.samples) > 100.0


def test_static_motion_has_no_doppler(rng):
    out = _channel().transmit(np.ones(2000), rng)
    assert out.doppler == pytest.approx(1.0)
    assert out.motion.radial_speed_m_s == 0.0


def test_fast_motion_produces_doppler_and_drift(rng):
    channel = _channel(motion=FAST_MOTION)
    dopplers = []
    for seed in range(8):
        out = channel.transmit(np.ones(9600), np.random.default_rng(seed))
        dopplers.append(out.doppler)
    assert any(abs(d - 1.0) > 1e-5 for d in dopplers)


def test_hard_case_attenuates_more_than_pouch(rng):
    x = lfm_chirp(1000, 4000, 0.2, 48000)
    soft = _channel(tx_case=SOFT_POUCH, rx_case=SOFT_POUCH).transmit(
        x, np.random.default_rng(2), include_noise=False)
    hard = _channel(tx_case=HARD_CASE, rx_case=HARD_CASE).transmit(
        x, np.random.default_rng(2), include_noise=False)
    assert np.std(soft.samples) > 1.5 * np.std(hard.samples)


def test_case_depth_rating_enforced():
    geometry = ImageMethodGeometry(
        water_depth_m=15.0, tx_depth_m=12.0, rx_depth_m=12.0, horizontal_range_m=5.0
    )
    multipath = MultipathModel(geometry=geometry, seed=1)
    with pytest.raises(ValueError):
        UnderwaterAcousticChannel(multipath=multipath, noise=AmbientNoiseModel(),
                                  tx_case=SOFT_POUCH, rx_case=SOFT_POUCH)
    # The hard case is rated to 15 m and must be accepted.
    UnderwaterAcousticChannel(multipath=multipath, noise=AmbientNoiseModel(),
                              tx_case=HARD_CASE, rx_case=HARD_CASE)


def test_orientation_reduces_received_level(rng):
    x = lfm_chirp(1000, 4000, 0.2, 48000)
    facing = _channel(orientation_deg=0.0).transmit(x, np.random.default_rng(3), include_noise=False)
    away = _channel(orientation_deg=180.0).transmit(x, np.random.default_rng(3), include_noise=False)
    assert np.std(facing.samples) > np.std(away.samples)


def test_end_to_end_response_is_frequency_selective():
    channel = _channel()
    freqs = np.arange(1000.0, 4000.0, 50.0)
    response = channel.end_to_end_response_db(freqs)
    assert response.shape == freqs.shape
    assert response.max() - response.min() > 8.0


def test_reverse_channel_differs_from_forward():
    """Underwater reciprocity is broken (Fig. 3d)."""
    forward = _channel(tx_device=GALAXY_S9, rx_device=GALAXY_S9)
    backward = forward.reverse(seed=9)
    freqs = np.arange(1000.0, 4000.0, 50.0)
    diff = forward.end_to_end_response_db(freqs) - backward.end_to_end_response_db(freqs)
    assert np.max(np.abs(diff)) > 3.0
    # Devices swap between the directions.
    assert backward.tx_device is forward.rx_device
    assert backward.rx_device is forward.tx_device


def test_randomize_changes_small_scale_channel():
    channel = _channel()
    freqs = np.arange(1000.0, 4000.0, 50.0)
    before = channel.end_to_end_response_db(freqs)
    channel.randomize(rng=5)
    after = channel.end_to_end_response_db(freqs)
    assert not np.allclose(before, after, atol=0.5)
    # The bulk geometry stays roughly the same.
    assert channel.distance_m == pytest.approx(5.0, abs=1.0)


def test_different_device_pairs_have_different_responses():
    freqs = np.arange(1000.0, 4000.0, 50.0)
    s9_pair = _channel(tx_device=GALAXY_S9, rx_device=GALAXY_S9)
    mixed_pair = _channel(tx_device=PIXEL_4, rx_device=GALAXY_S9)
    diff = s9_pair.end_to_end_response_db(freqs) - mixed_pair.end_to_end_response_db(freqs)
    assert np.max(np.abs(diff)) > 2.0


def test_fixed_gain_budget_components():
    channel = _channel(orientation_deg=180.0, extra_gain_db=-3.0)
    expected = (GALAXY_S9.source_level_db
                + GALAXY_S9.orientation_gain_db(180.0)
                - SOFT_POUCH.attenuation_db * 2
                - 3.0)
    assert channel.fixed_gain_db() == pytest.approx(expected)
