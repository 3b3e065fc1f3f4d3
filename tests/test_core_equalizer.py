"""Tests for the time-domain MMSE equalizer."""

import numpy as np
import pytest
from scipy import signal as sp_signal

from repro.core.equalizer import MMSEEqualizer


def _training_signal(rng, length=2048, band=(1000, 4000), fs=48000):
    """A band-limited training waveform similar to an OFDM symbol."""
    noise = rng.standard_normal(length)
    taps = sp_signal.firwin(129, band, pass_zero=False, fs=fs)
    return sp_signal.lfilter(taps, 1.0, noise)


def test_identity_channel_yields_near_identity_equalizer(rng):
    x = _training_signal(rng)
    eq = MMSEEqualizer(num_taps=64)
    eq.fit(x, x)
    y = eq.apply(x)
    error = np.mean((y[64:-64] - x[64:-64]) ** 2) / np.mean(x ** 2)
    assert error < 0.01


def test_equalizer_removes_known_isi(rng):
    x = _training_signal(rng)
    channel = np.zeros(40)
    channel[0] = 1.0
    channel[17] = 0.6
    channel[33] = -0.3
    y = sp_signal.lfilter(channel, 1.0, x)
    eq = MMSEEqualizer(num_taps=160)
    eq.fit(y, x)
    recovered = eq.apply(y)
    before = np.mean((y - x) ** 2) / np.mean(x ** 2)
    after = np.mean((recovered[200:-200] - x[200:-200]) ** 2) / np.mean(x ** 2)
    assert after < before / 10
    assert after < 0.05


def test_equalizer_generalizes_to_unseen_data(rng):
    """Fit on a training symbol, apply to different data over the same channel."""
    train = _training_signal(rng)
    data = _training_signal(rng)
    channel = np.array([1.0, 0.0, 0.45, 0.0, -0.2])
    eq = MMSEEqualizer(num_taps=96)
    eq.fit(sp_signal.lfilter(channel, 1.0, train), train)
    recovered = eq.apply(sp_signal.lfilter(channel, 1.0, data))
    error = np.mean((recovered[100:-100] - data[100:-100]) ** 2) / np.mean(data ** 2)
    assert error < 0.05


def test_equalizer_handles_noise_gracefully(rng):
    x = _training_signal(rng)
    channel = np.array([1.0, 0.5])
    y = sp_signal.lfilter(channel, 1.0, x) + 0.05 * rng.standard_normal(x.size)
    eq = MMSEEqualizer(num_taps=64)
    eq.fit(y, x)
    recovered = eq.apply(y)
    error = np.mean((recovered[100:-100] - x[100:-100]) ** 2) / np.mean(x ** 2)
    assert error < 0.1


def test_apply_before_fit_raises():
    with pytest.raises(RuntimeError):
        MMSEEqualizer().apply(np.zeros(100))


def test_fit_validations(rng):
    eq = MMSEEqualizer(num_taps=64)
    with pytest.raises(ValueError):
        eq.fit(np.zeros(100), np.zeros(200))
    with pytest.raises(ValueError):
        eq.fit(np.zeros(10), np.zeros(10))


def test_constructor_validations():
    with pytest.raises(ValueError):
        MMSEEqualizer(num_taps=0)


def test_fit_apply_convenience(rng):
    x = _training_signal(rng)
    data = np.concatenate([x, _training_signal(rng)])
    channel = np.array([1.0, 0.3])
    received = sp_signal.lfilter(channel, 1.0, data)
    eq = MMSEEqualizer(num_taps=64)
    eq.fit(received[: x.size], x)
    out = eq.apply(received)
    assert out.size == received.size
    assert eq.coefficients is not None


def test_output_length_matches_input(rng):
    x = _training_signal(rng)
    eq = MMSEEqualizer(num_taps=32)
    eq.fit(x, x)
    assert eq.apply(x).size == x.size
