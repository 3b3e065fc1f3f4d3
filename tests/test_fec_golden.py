"""Golden-equivalence tests: vectorized Viterbi vs the loop reference.

The vectorized decoder in :mod:`repro.fec.convolutional` must make the
*same decisions* as the loop implementation in :mod:`oracles.fec` --
not just decode correctly, but be bit-identical on every input class:
random codewords, hard and soft inputs, erasure (NaN) patterns and the
punctured rate-2/3 configuration, all on the unterminated trellis the
modem runs.  Noise levels are chosen
high enough that many decodes contain residual errors, so the tests also
pin down tie-breaking and traceback behaviour, not only the easy
error-free paths.

Tolerance audit (PR 5): this suite deliberately carries **no** atol/rtol
anywhere -- every comparison is exact array equality.  Both decoders
compute identical branch metrics from identical float inputs in the same
order (only the batching differs), so their decisions must agree bit for
bit; measured deviation is exactly 0 on every input class above.  Any
tolerance would mask the one failure mode this suite exists to catch: a
survivor path flipping under a vectorization change.  Randomized decode
loops report failures through ``_golden_utils.assert_bit_identical_seeded``
so the offending (seed, iteration) is printed ready to replay.
"""

import numpy as np
import pytest

from _golden_utils import assert_bit_identical_seeded
from oracles.fec import (
    reference_decode,
    reference_encode,
    reference_punctured_decode,
)

from repro.fec.convolutional import (
    ConvolutionalCode,
    PuncturedConvolutionalCode,
    hard_bits_to_soft,
)


@pytest.fixture(scope="module")
def code():
    return ConvolutionalCode(7, PuncturedConvolutionalCode.POLYNOMIALS)


def _skip_tail_leg(rng, n, tail_steps, noise_std, erasures=False):
    """Draw what a former zero-tail leg drew from ``rng`` before the
    unterminated one, so the unterminated case keeps its inputs."""
    rng.integers(0, 2, n)
    rng.normal(0.0, noise_std, 2 * (n + tail_steps))
    if erasures:
        rng.random(2 * (n + tail_steps))


def test_encode_matches_reference(code):
    rng = np.random.default_rng(100)
    for n in (1, 2, 7, 16, 63, 200):
        bits = rng.integers(0, 2, n)
        np.testing.assert_array_equal(code.encode(bits), reference_encode(code, bits))


def test_decode_hard_bits_matches_reference(code):
    rng = np.random.default_rng(101)
    for iteration in range(15):
        n = int(rng.integers(1, 100))
        coded = code.encode(rng.integers(0, 2, n)).astype(float)
        flips = rng.random(coded.size) < 0.08
        coded[flips] = 1 - coded[flips]
        assert_bit_identical_seeded(
            code.decode(coded, num_data_bits=n),
            reference_decode(code, coded, num_data_bits=n),
            seed=(101, iteration), label="viterbi hard-bit decode vs reference",
            detail=f"n={n}",
        )


def test_decode_soft_values_matches_reference(code):
    rng = np.random.default_rng(102)
    for iteration in range(15):
        n = int(rng.integers(1, 100))
        coded = code.encode(rng.integers(0, 2, n))
        soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.8, coded.size)
        assert_bit_identical_seeded(
            code.decode(soft, num_data_bits=n),
            reference_decode(code, soft, num_data_bits=n),
            seed=(102, iteration), label="viterbi soft decode vs reference",
            detail=f"n={n}",
        )


@pytest.mark.parametrize("erasure_fraction", [0.1, 0.3, 0.6])
def test_decode_with_erasures_matches_reference(code, erasure_fraction):
    rng = np.random.default_rng(103)
    n = 80
    _skip_tail_leg(rng, n, tail_steps=6, noise_std=0.5, erasures=True)
    coded = code.encode(rng.integers(0, 2, n))
    soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.5, coded.size)
    soft[rng.random(soft.size) < erasure_fraction] = np.nan
    np.testing.assert_array_equal(
        code.decode(soft, num_data_bits=n),
        reference_decode(code, soft, num_data_bits=n),
    )


def test_decode_fully_erased_steps_match_reference(code):
    # Entire trellis steps can be erased (both outputs NaN); the reference
    # then gives every branch a zero metric and the tie-breaking rule alone
    # decides the survivor.
    rng = np.random.default_rng(104)
    n = 40
    coded = code.encode(rng.integers(0, 2, n)).astype(float)
    erased_steps = rng.choice(coded.size // 2, size=8, replace=False)
    for step in erased_steps:
        coded[2 * step:2 * step + 2] = np.nan
    np.testing.assert_array_equal(
        code.decode(coded, num_data_bits=n),
        reference_decode(code, coded, num_data_bits=n),
    )


def test_decode_all_erased_matches_reference(code):
    soft = np.full(60, np.nan)
    np.testing.assert_array_equal(
        code.decode(soft, num_data_bits=24),
        reference_decode(code, soft, num_data_bits=24),
    )


def test_decode_tie_breaking_matches_reference(code):
    # All-zero soft input makes every branch metric 0.0: the decode is pure
    # tie-breaking.  (0.0 is a "hard-like" value, so bypass the hard-bit
    # mapping by including one genuinely soft entry.)
    soft = np.zeros(64)
    soft[0] = 1e-9
    np.testing.assert_array_equal(
        code.decode(soft, num_data_bits=26),
        reference_decode(code, soft, num_data_bits=26),
    )


def test_punctured_decode_matches_reference():
    punctured = PuncturedConvolutionalCode()
    rng = np.random.default_rng(105)
    for iteration in range(10):
        n = int(rng.integers(2, 60))
        coded = punctured.encode(rng.integers(0, 2, n))
        soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.7, coded.size)
        assert_bit_identical_seeded(
            punctured.decode(soft, num_data_bits=n),
            reference_punctured_decode(punctured, soft, num_data_bits=n),
            seed=(105, iteration), label="punctured decode vs reference",
            detail=f"n={n}",
        )


def test_punctured_hard_bits_match_reference():
    punctured = PuncturedConvolutionalCode()
    rng = np.random.default_rng(106)
    bits = rng.integers(0, 2, 16)
    coded = punctured.encode(bits).astype(float)
    coded[3] = 1 - coded[3]
    coded[11] = 1 - coded[11]
    np.testing.assert_array_equal(
        punctured.decode(coded, num_data_bits=16),
        reference_punctured_decode(punctured, coded, num_data_bits=16),
    )


def test_other_code_parameters_match_reference():
    # A different constraint length and polynomial set exercises the
    # generic trellis construction, not just the cached (7, 133/171) case.
    small = ConvolutionalCode(constraint_length=5, polynomials=(0o23, 0o35))
    rng = np.random.default_rng(107)
    n = 50
    _skip_tail_leg(rng, n, tail_steps=4, noise_std=0.6)
    coded = small.encode(rng.integers(0, 2, n))
    soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.6, coded.size)
    np.testing.assert_array_equal(
        small.decode(soft, num_data_bits=n),
        reference_decode(small, soft, num_data_bits=n),
    )


def test_three_output_code_matches_reference():
    rate_third = ConvolutionalCode(constraint_length=4, polynomials=(0o13, 0o15, 0o17))
    rng = np.random.default_rng(108)
    n = 40
    coded = rate_third.encode(rng.integers(0, 2, n))
    soft = (coded * 2.0 - 1.0) + rng.normal(0.0, 0.6, coded.size)
    soft[rng.random(soft.size) < 0.1] = np.nan
    np.testing.assert_array_equal(
        rate_third.decode(soft, num_data_bits=n),
        reference_decode(rate_third, soft, num_data_bits=n),
    )


# ---------------------------------------------------------------- shared helper
def test_hard_bits_to_soft_maps_hard_bits():
    np.testing.assert_array_equal(
        hard_bits_to_soft([0, 1, 1, 0]), np.array([-1.0, 1.0, 1.0, -1.0])
    )


def test_hard_bits_to_soft_preserves_soft_values():
    soft = np.array([-0.4, 0.9, 0.1])
    np.testing.assert_array_equal(hard_bits_to_soft(soft), soft)


def test_hard_bits_to_soft_keeps_nan_erasures():
    out = hard_bits_to_soft([0.0, np.nan, 1.0])
    assert np.isnan(out[1])
    np.testing.assert_array_equal(out[[0, 2]], [-1.0, 1.0])


def test_hard_bits_to_soft_empty():
    assert hard_bits_to_soft([]).size == 0
