"""Tests for the correlation primitives behind preamble detection."""

import numpy as np
import pytest

from repro.dsp.correlation import TemplateCorrelator, sliding_correlation_curve


def _repeated_segments(segment, signs):
    return np.concatenate([s * segment for s in signs])


def _window_metric(window, segment_length, signs):
    """Sliding-correlation metric of one whole window (offset 0)."""
    offsets, metric = sliding_correlation_curve(window, 0, 0, segment_length, signs)
    assert offsets.tolist() == [0]
    return float(metric[0])


def test_cross_correlation_peaks_at_template_position():
    rng = np.random.default_rng(0)
    template = rng.standard_normal(500)
    received = np.concatenate([np.zeros(300), template, np.zeros(200)])
    corr = TemplateCorrelator(template).correlate(received)
    assert corr.size == received.size - template.size + 1
    assert np.argmax(corr) == 300
    assert corr[300] == pytest.approx(1.0, abs=1e-6)


def test_cross_correlation_bounded_by_one():
    rng = np.random.default_rng(1)
    template = rng.standard_normal(200)
    received = rng.standard_normal(2000)
    corr = TemplateCorrelator(template).correlate(received)
    assert np.max(np.abs(corr)) <= 1.0 + 1e-9


def test_cross_correlation_rejects_short_input():
    with pytest.raises(ValueError):
        TemplateCorrelator(np.ones(20)).correlate(np.zeros(10))


def test_sliding_correlation_is_one_for_clean_preamble():
    rng = np.random.default_rng(2)
    signs = np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float)
    segment = rng.standard_normal(100)
    window = _repeated_segments(segment, signs)
    assert _window_metric(window, 100, signs) == pytest.approx(1.0, rel=1e-6)


def test_sliding_correlation_tracks_snr():
    rng = np.random.default_rng(3)
    signs = np.ones(8)
    segment = rng.standard_normal(200)
    window = _repeated_segments(segment, signs)
    noise = rng.standard_normal(window.size)
    # Equal-power noise: metric should be near SNR/(SNR+1) = 0.5.
    noisy = window + noise * np.std(window) / np.std(noise)
    assert 0.3 < _window_metric(noisy, 200, signs) < 0.7


def test_sliding_correlation_low_for_impulsive_noise():
    signs = np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float)
    window = np.zeros(800)
    window[100] = 50.0  # a single spike ("bubble")
    assert abs(_window_metric(window, 100, signs)) < 0.2


def test_sliding_correlation_rejects_short_window():
    # Shorter than 8 segments: no candidate window fits.
    offsets, metric = sliding_correlation_curve(np.zeros(100), 0, 0, 100, np.ones(8))
    assert offsets.size == 0 and metric.size == 0


def test_sliding_correlation_curve_and_peak_find_offset():
    rng = np.random.default_rng(4)
    signs = np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float)
    segment = rng.standard_normal(120)
    preamble = _repeated_segments(segment, signs)
    received = np.concatenate([rng.standard_normal(500) * 0.01, preamble,
                               rng.standard_normal(300) * 0.01])
    offsets, values = sliding_correlation_curve(received, 400, 600, 120, signs, step=4)
    assert offsets.size == values.size > 0
    best = int(np.argmax(values))
    assert abs(int(offsets[best]) - 500) <= 4
    assert values[best] > 0.9
