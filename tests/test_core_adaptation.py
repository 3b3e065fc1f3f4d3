"""Tests for the frequency band adaptation algorithm (Algorithm 1)."""

import numpy as np
import pytest

from repro.core.adaptation import select_frequency_band, selection_from_bins
from repro.core.config import OFDMConfig, ProtocolConfig


CONFIG = OFDMConfig()
N0 = CONFIG.num_data_bins


def test_all_bins_above_threshold_selects_full_band():
    snr = np.full(N0, 20.0)
    band = select_frequency_band(snr, CONFIG)
    assert band.num_bins == N0
    assert band.start_bin == CONFIG.first_data_bin
    assert band.end_bin == CONFIG.last_data_bin
    assert band.satisfied


def test_low_snr_everywhere_falls_back_to_best_bin():
    snr = np.full(N0, -30.0)
    snr[17] = -20.0
    band = select_frequency_band(snr, CONFIG)
    assert band.num_bins == 1
    assert band.start_offset == 17
    assert not band.satisfied


def test_single_deep_notch_splits_band():
    snr = np.full(N0, 20.0)
    snr[10] = -10.0
    band = select_frequency_band(snr, CONFIG)
    # The largest contiguous band avoiding the notch is bins 11..59.
    assert band.start_offset == 11
    assert band.end_offset == N0 - 1
    assert band.num_bins == N0 - 11


def test_power_reallocation_bonus_allows_marginal_bins():
    """Bins below the raw threshold qualify once power is concentrated."""
    protocol = ProtocolConfig()
    snr = np.full(N0, 0.0)
    # A 10-bin island at 1.5 dB: with lambda*10*log10(60/10) = 6.2 dB bonus it
    # clears the 7 dB threshold, while the full band (bonus 0) would not.
    snr[20:30] = 1.5
    band = select_frequency_band(snr, CONFIG, protocol)
    assert band.satisfied
    assert band.start_offset >= 20
    assert band.end_offset <= 29


def test_threshold_override_changes_selection():
    snr = np.full(N0, 10.0)
    strict = select_frequency_band(snr, CONFIG, ProtocolConfig(snr_threshold_db=25.0))
    relaxed = select_frequency_band(snr, CONFIG, ProtocolConfig(snr_threshold_db=5.0))
    assert relaxed.num_bins == N0
    assert strict.num_bins < N0 or not strict.satisfied


def test_lambda_zero_ignores_reallocation_bonus():
    snr = np.full(N0, 6.0)  # below the 7 dB threshold everywhere
    none_selected = select_frequency_band(
        snr, CONFIG, ProtocolConfig(conservative_lambda=1e-9)
    )
    assert not none_selected.satisfied
    with_bonus = select_frequency_band(snr, CONFIG, ProtocolConfig(conservative_lambda=1.0))
    assert with_bonus.satisfied
    assert with_bonus.num_bins < N0


def test_selected_band_is_contiguous_and_within_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        snr = rng.uniform(-10, 30, N0)
        band = select_frequency_band(snr, CONFIG)
        assert 1 <= band.num_bins <= N0
        assert CONFIG.first_data_bin <= band.start_bin <= band.end_bin <= CONFIG.last_data_bin
        assert band.num_bins == band.end_bin - band.start_bin + 1


def test_wider_band_never_satisfies_if_narrower_does_not():
    """The algorithm returns the *largest* width that satisfies the constraint."""
    rng = np.random.default_rng(1)
    protocol = ProtocolConfig()
    for _ in range(20):
        snr = rng.uniform(0, 15, N0)
        band = select_frequency_band(snr, CONFIG, protocol)
        if not band.satisfied:
            continue
        # No band one bin wider may satisfy the constraint.
        wider = band.num_bins + 1
        if wider > N0:
            continue
        bonus = protocol.conservative_lambda * 10 * np.log10(N0 / wider)
        windows = np.lib.stride_tricks.sliding_window_view(snr, wider)
        assert not np.any(windows.min(axis=1) + bonus > protocol.snr_threshold_db)


def test_band_frequencies_match_bins():
    snr = np.full(N0, 20.0)
    band = select_frequency_band(snr, CONFIG)
    assert band.start_frequency_hz == pytest.approx(band.start_bin * 50.0)
    assert band.end_frequency_hz == pytest.approx(band.end_bin * 50.0)


def test_absolute_bins_helper():
    band = selection_from_bins(30, 35, CONFIG)
    np.testing.assert_array_equal(band.absolute_bins(), np.arange(30, 36))
    assert band.num_bins == 6


def test_selection_from_bins_swaps_and_validates():
    band = selection_from_bins(40, 30, CONFIG)
    assert band.start_bin == 30 and band.end_bin == 40
    with pytest.raises(ValueError):
        selection_from_bins(5, 30, CONFIG)
    with pytest.raises(ValueError):
        selection_from_bins(30, 200, CONFIG)


def test_input_length_validation():
    with pytest.raises(ValueError):
        select_frequency_band(np.ones(10), CONFIG)
    with pytest.raises(ValueError):
        select_frequency_band(np.array([]), CONFIG)
