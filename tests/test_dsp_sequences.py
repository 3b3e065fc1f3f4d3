"""Tests for CAZAC / PN sequence generation."""

import numpy as np
import pytest

from oracles.dsp import periodic_autocorrelation
from repro.core.config import PREAMBLE_PN_SIGNS
from repro.dsp.sequences import zadoff_chu


def test_zadoff_chu_unit_magnitude():
    seq = zadoff_chu(60, root=1)
    np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-12)


def test_zadoff_chu_length():
    assert zadoff_chu(37).size == 37


def test_zadoff_chu_odd_length_ideal_autocorrelation():
    seq = zadoff_chu(63, root=1)
    acf = periodic_autocorrelation(seq)
    assert acf[0] == pytest.approx(1.0)
    assert np.max(np.abs(acf[1:])) < 1e-8


def test_zadoff_chu_even_length_low_sidelobes():
    seq = zadoff_chu(60, root=1)
    acf = periodic_autocorrelation(seq)
    assert acf[0] == pytest.approx(1.0)
    # Even lengths are not perfectly ideal but must stay well below the peak.
    assert np.max(np.abs(acf[1:])) < 0.35


def test_zadoff_chu_different_roots_differ():
    assert not np.allclose(zadoff_chu(61, root=1), zadoff_chu(61, root=2))


def test_zadoff_chu_non_coprime_root_is_fixed_up():
    # root 30 shares a factor with 60; the generator must still return a
    # constant-amplitude sequence rather than a degenerate one.
    seq = zadoff_chu(60, root=30)
    np.testing.assert_allclose(np.abs(seq), 1.0, atol=1e-12)
    acf = periodic_autocorrelation(seq)
    assert np.max(np.abs(acf[1:])) < 0.5


def test_zadoff_chu_rejects_bad_args():
    with pytest.raises(ValueError):
        zadoff_chu(0)
    with pytest.raises(ValueError):
        zadoff_chu(10, root=0)


def test_preamble_pn_signs_match_paper():
    # Paper section 2.2.1: the eight preamble symbols' sign pattern.
    np.testing.assert_array_equal(
        np.array(PREAMBLE_PN_SIGNS, dtype=float), np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float)
    )


def test_periodic_autocorrelation_rejects_empty():
    with pytest.raises(ValueError):
        periodic_autocorrelation(np.array([]))
