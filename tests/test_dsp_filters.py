"""Tests for FIR filter design and application.

The numpy designs are compared with SciPy's ``firwin`` / ``firwin2``
(``tests/oracles/dsp.py``) on this machine, bit for bit, rather than with
committed checksums: numpy's vectorised ``cos`` may round differently by
one ulp on another CPU, and would then do so in SciPy's design as well.
"""

import itertools

import numpy as np
import pytest
from scipy import signal as sp_signal

from oracles.dsp import firwin_bandpass, lfilter_compensated, response_fir
from repro.channel.channel import _device_chain
from repro.core.config import BAND_HIGH_HZ, BAND_LOW_HZ
from repro.devices.case import CASE_CATALOG, SOFT_POUCH
from repro.devices.models import DEVICE_CATALOG, GALAXY_S9
from repro.dsp.filters import FIRBandpassFilter, design_bandpass_fir, design_fir_from_response


def _tone(freq, fs=48000, duration=0.2):
    t = np.arange(int(fs * duration)) / fs
    return np.sin(2 * np.pi * freq * t)


def test_bandpass_design_passes_in_band_and_rejects_out_of_band():
    taps = design_bandpass_fir(1000, 4000, 48000)
    w, h = sp_signal.freqz(taps, worN=4096, fs=48000)
    gain = np.abs(h)
    assert gain[np.argmin(np.abs(w - 2500))] > 0.9
    assert gain[np.argmin(np.abs(w - 200))] < 0.05
    assert gain[np.argmin(np.abs(w - 8000))] < 0.05


def test_bandpass_design_forces_odd_taps():
    # The paper's 128-order filter: 129 taps, odd for type-I linear phase.
    taps = design_bandpass_fir(1000, 4000, 48000)
    assert taps.size == 129


def test_bandpass_design_rejects_invalid_edges():
    with pytest.raises(ValueError):
        design_bandpass_fir(4000, 1000, 48000)
    with pytest.raises(ValueError):
        design_bandpass_fir(1000, 30000, 48000)


def test_filter_attenuates_out_of_band_tone():
    filt = FIRBandpassFilter()
    in_band = filt.apply(_tone(2500))
    out_band = filt.apply(_tone(300))
    assert np.std(in_band) > 10 * np.std(out_band)


def test_filter_delay_compensation_preserves_alignment():
    filt = FIRBandpassFilter()
    x = _tone(2000, duration=0.05)
    y = filt.apply(x)
    assert y.size == x.size
    # Cross-correlation peak should sit at (nearly) zero lag.
    corr = np.correlate(y, x, mode="full")
    lag = np.argmax(corr) - (x.size - 1)
    assert abs(lag) <= 1


def test_filter_output_length_matches_input():
    filt = FIRBandpassFilter()
    x = np.random.default_rng(0).standard_normal(1000)
    assert filt.apply(x).size == x.size


def test_design_fir_from_response_matches_target_gain():
    freqs = np.array([500.0, 1000.0, 2000.0, 4000.0, 8000.0])
    gains = np.array([-20.0, -3.0, 0.0, -3.0, -20.0])
    taps = design_fir_from_response(freqs, gains, 48000, 257)
    w, h = sp_signal.freqz(taps, worN=8192, fs=48000)
    gain_db = 20 * np.log10(np.maximum(np.abs(h), 1e-9))
    at_2k = gain_db[np.argmin(np.abs(w - 2000))]
    at_500 = gain_db[np.argmin(np.abs(w - 500))]
    assert at_2k == pytest.approx(0.0, abs=1.5)
    assert at_500 < -10.0


def test_design_fir_from_response_validates_inputs():
    with pytest.raises(ValueError):
        design_fir_from_response(np.array([1000.0]), np.array([0.0]), 48000)
    with pytest.raises(ValueError):
        design_fir_from_response(np.array([2000.0, 1000.0]), np.array([0.0, 0.0]), 48000)


def test_group_delay_property():
    filt = FIRBandpassFilter()
    assert filt.group_delay_samples == (filt.num_taps - 1) // 2


@pytest.mark.parametrize("sample_rate_hz", [48000.0, 44100.0])
def test_bandpass_design_equals_scipy_bit_for_bit(sample_rate_hz):
    bands = [(BAND_LOW_HZ, BAND_HIGH_HZ)] + [
        (float(low), float(high))
        for low in np.arange(100.0, 12000.0, 370.0)
        for high in np.arange(low + 50.0, sample_rate_hz / 2.0, 1130.0)
    ]
    for low, high in bands:
        taps = design_bandpass_fir(low, high, sample_rate_hz)
        assert taps.tobytes() == firwin_bandpass(low, high, sample_rate_hz).tobytes(), (low, high)


def test_every_device_chain_design_equals_scipy_bit_for_bit():
    chains = itertools.product(
        DEVICE_CATALOG.values(), CASE_CATALOG.values(),
        DEVICE_CATALOG.values(), CASE_CATALOG.values(),
    )
    for tx_device, tx_case, rx_device, rx_case in chains:
        response, fir = _device_chain(tx_device, tx_case, rx_device, rx_case, 48000.0)
        expected = response_fir(response, 48000.0, 257)
        assert fir.tobytes() == expected.tobytes(), (
            tx_device.name, tx_case.name, rx_device.name, rx_case.name
        )


@pytest.mark.parametrize("num_taps", [64, 129, 257])
def test_response_design_equals_scipy_bit_for_bit(num_taps):
    for device in DEVICE_CATALOG.values():
        for response in (device.speaker_response, device.microphone_response):
            expected = response_fir(response, 48000.0, num_taps)
            assert response.as_fir(48000.0, num_taps).tobytes() == expected.tobytes()


def test_response_apply_matches_direct_filtering():
    samples = np.random.default_rng(4).standard_normal(9600)
    for device in DEVICE_CATALOG.values():
        response = device.microphone_response
        heard = response.apply(samples, 48000.0)
        expected = lfilter_compensated(response_fir(response), samples)
        assert heard.shape == expected.shape
        assert np.max(np.abs(heard - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_memoised_taps_are_shared_and_read_only():
    first, second = FIRBandpassFilter(), FIRBandpassFilter(1000, 4000, 48000)
    assert first.taps is second.taps
    chain = (GALAXY_S9, SOFT_POUCH, GALAXY_S9, SOFT_POUCH, 48000.0)
    response, fir = _device_chain(*chain)
    assert _device_chain(*chain)[1] is fir
    for taps in (first.taps, fir):
        with pytest.raises(ValueError):
            taps[0] = 0.0
