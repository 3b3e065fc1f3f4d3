"""Tests for OFDM symbol modulation / demodulation."""

import numpy as np
import pytest

from repro.core.config import OFDMConfig
from repro.core.ofdm import OFDMModulator


@pytest.fixture(scope="module")
def config():
    return OFDMConfig()


@pytest.fixture(scope="module")
def modulator(config):
    return OFDMModulator(config)


def test_symbol_length_with_and_without_prefix(modulator, config):
    values = np.ones(config.num_data_bins, dtype=complex)
    with_cp = modulator.modulate(values, config.data_bins)
    without_cp = modulator.modulate(values, config.data_bins, add_cyclic_prefix=False)
    assert with_cp.size == config.extended_symbol_length
    assert without_cp.size == config.symbol_length


def test_cyclic_prefix_is_a_copy_of_the_tail(modulator, config):
    values = np.exp(1j * np.linspace(0, 3, config.num_data_bins))
    symbol = modulator.modulate(values, config.data_bins)
    prefix = symbol[: config.cyclic_prefix_length]
    tail = symbol[-config.cyclic_prefix_length:]
    np.testing.assert_allclose(prefix, tail)


def test_power_normalization(modulator, config):
    values = np.ones(config.num_data_bins, dtype=complex)
    symbol = modulator.modulate(values, config.data_bins, add_cyclic_prefix=False)
    assert np.mean(symbol ** 2) == pytest.approx(1.0, rel=1e-6)


def test_power_reallocation_on_fewer_bins(modulator, config):
    """Fewer active bins -> more power per bin (fixed total symbol power)."""
    full = modulator.modulate(np.ones(60, dtype=complex), config.data_bins,
                              add_cyclic_prefix=False)
    narrow_bins = config.data_bins[:10]
    narrow = modulator.modulate(np.ones(10, dtype=complex), narrow_bins,
                                add_cyclic_prefix=False)
    full_spectrum = np.abs(np.fft.rfft(full)) ** 2
    narrow_spectrum = np.abs(np.fft.rfft(narrow)) ** 2
    per_bin_full = full_spectrum[config.data_bins].mean()
    per_bin_narrow = narrow_spectrum[narrow_bins].mean()
    assert per_bin_narrow / per_bin_full == pytest.approx(6.0, rel=0.05)


def test_modulate_demodulate_roundtrip(modulator, config):
    rng = np.random.default_rng(0)
    values = np.exp(1j * rng.uniform(0, 2 * np.pi, config.num_data_bins))
    symbol = modulator.modulate(values, config.data_bins)
    recovered = modulator.demodulate(symbol, config.data_bins)
    # Up to a common positive scale factor the values must match.
    scale = np.abs(recovered[0] / values[0])
    np.testing.assert_allclose(recovered, values * scale, atol=1e-8 * scale + 1e-12)


def test_demodulate_full_spectrum_when_bins_omitted(modulator, config):
    values = np.ones(config.num_data_bins, dtype=complex)
    symbol = modulator.modulate(values, config.data_bins)
    spectrum = modulator.demodulate(symbol)
    assert spectrum.size == config.symbol_length // 2 + 1


def test_unused_bins_carry_no_energy(modulator, config):
    values = np.ones(config.num_data_bins, dtype=complex)
    symbol = modulator.modulate(values, config.data_bins, add_cyclic_prefix=False)
    spectrum = np.abs(np.fft.rfft(symbol))
    out_of_band = np.delete(spectrum, config.data_bins)
    assert np.max(out_of_band) < 1e-9 * np.max(spectrum)


def test_modulate_validations(modulator, config):
    with pytest.raises(ValueError):
        modulator.modulate(np.ones(3), np.array([1, 2]))
    with pytest.raises(ValueError):
        modulator.modulate(np.ones(1), np.array([config.symbol_length]))


def test_demodulate_validates_length(modulator):
    with pytest.raises(ValueError):
        modulator.demodulate(np.zeros(10))


def test_modulate_many_matches_single_symbol_path(modulator, config):
    rng = np.random.default_rng(21)
    bins = config.data_bins[:12]
    values = np.exp(2j * np.pi * rng.random((7, bins.size)))
    for add_prefix in (True, False):
        batch = modulator.modulate_many(values, bins, add_cyclic_prefix=add_prefix)
        singles = np.stack([
            modulator.modulate(row, bins, add_cyclic_prefix=add_prefix)
            for row in values
        ])
        np.testing.assert_array_equal(batch, singles)


def test_modulate_many_validates_shapes(modulator, config):
    bins = config.data_bins[:4]
    with pytest.raises(ValueError):
        modulator.modulate_many(np.ones(4, dtype=complex), bins)  # 1-D input
    with pytest.raises(ValueError):
        modulator.modulate_many(np.ones((2, 3), dtype=complex), bins)  # width mismatch
    with pytest.raises(ValueError):
        modulator.modulate_many(np.ones((2, 1), dtype=complex),
                                [modulator.num_spectrum_bins])  # bin out of range


def test_demodulate_many_matches_single_symbol_path(modulator, config):
    rng = np.random.default_rng(22)
    bins = config.data_bins[:10]
    values = np.exp(2j * np.pi * rng.random((5, bins.size)))
    waveform = modulator.modulate_many(values, bins).ravel()
    batch = modulator.demodulate_many(waveform, 5, bins)
    step = config.extended_symbol_length
    singles = np.stack([
        modulator.demodulate(waveform[i * step:(i + 1) * step], bins)
        for i in range(5)
    ])
    np.testing.assert_array_equal(batch, singles)
    # Full-spectrum variant
    np.testing.assert_array_equal(
        modulator.demodulate_many(waveform, 5)[:, bins], batch
    )


def test_demodulate_many_validates_input(modulator):
    with pytest.raises(ValueError):
        modulator.demodulate_many(np.zeros(10), 5)
    with pytest.raises(ValueError):
        modulator.demodulate_many(np.zeros(10), -1)


def test_modulate_many_round_trip_recovers_values(modulator, config):
    rng = np.random.default_rng(23)
    bins = config.data_bins[:8]
    values = np.exp(2j * np.pi * rng.random((3, bins.size)))
    waveform = modulator.modulate_many(values, bins).ravel()
    recovered = modulator.demodulate_many(waveform, 3, bins)
    # Each symbol is scaled to unit power: values match up to a positive
    # per-symbol factor.
    scale = np.abs(recovered[:, :1])
    np.testing.assert_allclose(recovered, values * scale, atol=1e-10 * scale.max())
