"""Tests for RNG handling."""

import numpy as np

from repro.utils.rng import ensure_rng


def test_ensure_rng_accepts_none():
    assert isinstance(ensure_rng(None), np.random.Generator)


def test_ensure_rng_seed_is_deterministic():
    a = ensure_rng(42).integers(0, 1000, 10)
    b = ensure_rng(42).integers(0, 1000, 10)
    np.testing.assert_array_equal(a, b)


def test_ensure_rng_passes_generator_through():
    gen = np.random.default_rng(7)
    assert ensure_rng(gen) is gen
