"""Tests for the convolutional code and Viterbi decoder."""

import numpy as np
import pytest

from repro.fec.convolutional import (
    ConvolutionalCode,
    PuncturedConvolutionalCode,
    trellis_tables,
)


@pytest.fixture(scope="module")
def mother():
    return ConvolutionalCode(7, PuncturedConvolutionalCode.POLYNOMIALS)


@pytest.fixture(scope="module")
def punctured():
    return PuncturedConvolutionalCode()


def test_mother_code_rate_and_tail(mother):
    # Rate 1/2 and unterminated: two coded bits per data bit, no tail.
    assert mother.num_outputs == 2
    assert mother.num_states == 64


def test_mother_encode_length(mother):
    assert mother.encode(np.array([1, 0, 1, 1])).size == 8


def test_mother_encode_known_all_zero_input(mother):
    coded = mother.encode(np.zeros(8, dtype=int))
    np.testing.assert_array_equal(coded, np.zeros_like(coded))


def test_mother_roundtrip_clean(mother):
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, 40)
    decoded = mother.decode(mother.encode(bits), num_data_bits=40)
    np.testing.assert_array_equal(decoded, bits)


def test_mother_corrects_scattered_errors(mother):
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, 60)
    coded = mother.encode(bits).astype(float)
    # Flip 6 well-separated coded bits.
    for position in range(0, 120, 20):
        coded[position] = 1 - coded[position]
    decoded = mother.decode(coded, num_data_bits=60)
    np.testing.assert_array_equal(decoded, bits)


def test_mother_accepts_soft_values(mother):
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, 30)
    coded = mother.encode(bits)
    soft = (coded * 2.0 - 1.0) * 0.8 + rng.normal(0, 0.3, coded.size)
    decoded = mother.decode(soft, num_data_bits=30)
    errors = np.count_nonzero(decoded != bits)
    assert errors <= 1


def test_mother_handles_erasures(mother):
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, 30)
    coded = mother.encode(bits).astype(float)
    coded[::7] = np.nan  # erase every 7th coded bit
    decoded = mother.decode(coded, num_data_bits=30)
    np.testing.assert_array_equal(decoded, bits)


def test_mother_decode_validates_length(mother):
    with pytest.raises(ValueError):
        mother.decode(np.zeros(7))


def test_mother_rejects_non_binary_input(mother):
    with pytest.raises(ValueError):
        mother.encode([0, 1, 2])


def test_mother_constructor_validation():
    with pytest.raises(ValueError):
        ConvolutionalCode(1, (0o133, 0o171))
    with pytest.raises(ValueError):
        ConvolutionalCode(7, (0o133,))


def test_punctured_rate_is_two_thirds(punctured):
    # 16 data bits -> 24 coded bits, matching the paper's packet accounting.
    assert punctured.coded_length(16) == 24


def test_punctured_encode_length_matches_coded_length(punctured):
    rng = np.random.default_rng(4)
    for n in (4, 16, 32, 50):
        bits = rng.integers(0, 2, n)
        assert punctured.encode(bits).size == punctured.coded_length(n)


def test_punctured_roundtrip_clean(punctured):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, 16)
    decoded = punctured.decode(punctured.encode(bits), num_data_bits=16)
    np.testing.assert_array_equal(decoded, bits)


def test_punctured_roundtrip_many_random_payloads(punctured):
    rng = np.random.default_rng(6)
    for _ in range(20):
        bits = rng.integers(0, 2, 16)
        decoded = punctured.decode(punctured.encode(bits), num_data_bits=16)
        np.testing.assert_array_equal(decoded, bits)


def test_punctured_corrects_single_error(punctured):
    rng = np.random.default_rng(7)
    bits = rng.integers(0, 2, 16)
    coded = punctured.encode(bits).astype(float)
    coded[5] = 1 - coded[5]
    decoded = punctured.decode(coded, num_data_bits=16)
    np.testing.assert_array_equal(decoded, bits)


def test_punctured_decode_validates_length(punctured):
    with pytest.raises(ValueError):
        punctured.decode(np.zeros(10), num_data_bits=16)


def test_trellis_tables_are_frozen():
    trellis = trellis_tables(7, (0o133, 0o171))
    with pytest.raises(ValueError):
        trellis.next_state[0, 0] = 1
    with pytest.raises(ValueError):
        trellis.outputs[0, 0, 0] = 1
