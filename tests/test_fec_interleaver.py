"""Tests for the subcarrier interleaver."""

import numpy as np
import pytest

from repro.fec.interleaver import SubcarrierInterleaver


def test_interleave_deinterleave_roundtrip():
    rng = np.random.default_rng(0)
    for bins in (1, 2, 3, 4, 10, 19, 60):
        interleaver = SubcarrierInterleaver(bins)
        bits = rng.integers(0, 2, 57)
        grid = interleaver.interleave(bits)
        recovered = interleaver.deinterleave(grid, bits.size)
        np.testing.assert_array_equal(recovered, bits)


def _first_symbol(bins):
    """Bit index placed on each subcarrier of a full first symbol."""
    return SubcarrierInterleaver(bins).interleave(np.arange(bins))[0]


def test_within_symbol_order_is_permutation():
    for bins in range(1, 61):
        assert sorted(_first_symbol(bins).tolist()) == list(range(bins))


def test_small_bands_use_identity_order():
    # Fewer than three bins: the paper disables interleaving.
    np.testing.assert_array_equal(_first_symbol(1), [0])
    np.testing.assert_array_equal(_first_symbol(2), [0, 1])


def test_consecutive_bits_are_not_adjacent_for_wide_bands():
    # Subcarrier of each bit, in the order bits are assigned.
    order = np.argsort(_first_symbol(60))
    gaps = np.abs(np.diff(order))
    # Consecutive coded bits should land on well-separated subcarriers.
    assert np.min(gaps[:40]) > 2


def test_num_symbols_accounting():
    interleaver = SubcarrierInterleaver(10)
    assert interleaver.num_symbols(0) == 0
    assert interleaver.num_symbols(1) == 1
    assert interleaver.num_symbols(10) == 1
    assert interleaver.num_symbols(11) == 2


def test_interleave_pads_final_symbol():
    interleaver = SubcarrierInterleaver(10)
    grid = interleaver.interleave(np.ones(12, dtype=int))
    assert grid.shape == (2, 10)
    assert grid.sum() == 12


def test_deinterleave_preserves_soft_values():
    interleaver = SubcarrierInterleaver(6)
    soft = np.linspace(-1, 1, 12)
    grid = interleaver.interleave(soft)
    recovered = interleaver.deinterleave(grid, 12)
    np.testing.assert_allclose(np.sort(recovered), np.sort(soft))
    np.testing.assert_allclose(recovered, soft)


def test_deinterleave_validates_shape_and_size():
    interleaver = SubcarrierInterleaver(5)
    with pytest.raises(ValueError):
        interleaver.deinterleave(np.zeros((2, 4)), 5)
    with pytest.raises(ValueError):
        interleaver.deinterleave(np.zeros((1, 5)), 6)


def test_constructor_rejects_zero_bins():
    with pytest.raises(ValueError):
        SubcarrierInterleaver(0)


def test_burst_error_on_one_subcarrier_is_spread_out():
    """A corrupted subcarrier must not hit consecutive coded bits."""
    bins = 30
    interleaver = SubcarrierInterleaver(bins)
    num_bits = 3 * bins
    bits = np.zeros(num_bits, dtype=int)
    grid = interleaver.interleave(bits)
    # Corrupt one subcarrier (column) in every symbol.
    corrupted = grid.copy()
    corrupted[:, 7] = 1
    recovered = interleaver.deinterleave(corrupted, num_bits)
    error_positions = np.nonzero(recovered != bits)[0]
    assert error_positions.size == 3
    assert np.min(np.diff(error_positions)) >= bins - 1
