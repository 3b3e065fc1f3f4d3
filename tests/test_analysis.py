"""Tests for the analysis helpers."""

import numpy as np
import pytest

from repro.analysis.ber import bpsk_ber_theoretical, q_function
from repro.analysis.metrics import format_table


def test_q_function_known_values():
    assert q_function(0.0) == pytest.approx(0.5)
    assert q_function(1.96) == pytest.approx(0.025, abs=2e-3)
    assert q_function(-10.0) == pytest.approx(1.0, abs=1e-9)


def test_bpsk_ber_reference_points():
    # Classic BPSK numbers: ~7.8e-2 at 0 dB, ~2.4e-3 at 7 dB.
    assert bpsk_ber_theoretical(0.0) == pytest.approx(0.0786, rel=0.05)
    assert bpsk_ber_theoretical(7.0) == pytest.approx(0.00077, rel=0.3)
    assert bpsk_ber_theoretical(-100.0) == pytest.approx(0.5, abs=1e-3)


def test_bpsk_ber_monotone_decreasing():
    snrs = np.linspace(-5, 15, 40)
    bers = bpsk_ber_theoretical(snrs)
    assert np.all(np.diff(bers) < 0)


def test_snr_for_one_percent_ber_near_4db():
    """Fig. 16 uses 4 dB as the ~1 % BER reference point."""
    assert bpsk_ber_theoretical(3.8) > 0.01 > bpsk_ber_theoretical(4.8)


def test_format_table_alignment():
    table = format_table(["site", "PER"], [["lake", "1.0%"], ["bridge", "0.5%"]])
    lines = table.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("site")
    assert "lake" in lines[2]
