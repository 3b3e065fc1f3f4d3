"""Golden equivalence tests pinning the fast paths to their references.

Mirrors the pattern of tests/test_fec_golden.py: every frequency-domain /
vectorized fast path of the link layer is compared against a reference
implementation (scipy, an inline seed version or :mod:`oracles`) on
randomized inputs, with the tolerance of each comparison documented at
the assert.

Tolerances, and why they are what they are (PR-5 audit: every bound was
measured over >= 8 fresh seeds and is quoted at the assert; the asserted
tolerance sits 2-3 orders of magnitude above the measured worst case, so
it absorbs a different FFT backend's rounding but still fails on any
algorithmic divergence, which costs many orders of magnitude more):

* fastconv (``convolve_full``/``cascade``/``shared``) vs ``fftconvolve``:
  measured <= 1.1e-15 relative of the peak; asserted at 1e-12.
* channel fast path vs the seed ``fftconvolve`` pipeline: measured
  <= 1.7e-15 relative of the received peak (with and without noise);
  asserted at 1e-12.
* FFT coarse correlation vs the ``fftconvolve`` oracle
  ``normalized_cross_correlation``: measured <= 1.4e-16 absolute on the
  O(1) metric; asserted at 1e-12.
* vectorized sliding correlation vs the per-offset loop: measured
  <= 7.9e-15 absolute (cumulative sums reassociate additions); asserted
  at 1e-12.
* Levinson vs dense solve (raw): measured <= 4.3e-11 relative through a
  480-unknown diagonally-loaded system; asserted at rtol 1e-8.
* Equalizer taps, Levinson vs dense: measured <= 1.7e-14 relative of the
  largest tap; asserted at 1e-11.
* Equalizer fit vs the seed ``np.correlate`` pipeline: measured
  <= 2.3e-13 relative; asserted at 1e-11.
* The loaders' public fallbacks (``scipy.fft.rfft``/``irfft``,
  ``scipy.linalg.solve_toeplitz``) vs the private kernels they stand in
  for: the same kernels behind thinner wrappers, so bit for bit.

Failures in the randomized comparisons raise through
``_golden_utils.assert_allclose_seeded``, which names the offending seed
and the measured deviation so any flake is a one-command repro.
"""

from __future__ import annotations

import importlib
import sys

import numpy as np
import pytest
from scipy import signal as sp_signal

from _golden_utils import assert_allclose_seeded
from oracles.channel import FftconvolveChannel
from oracles.dsp import (
    dense_toeplitz_solve,
    normalized_cross_correlation,
    sliding_correlation_curve_reference,
)

import repro.core.equalizer as equalizer_module
import repro.dsp.fastconv as fastconv_module
import repro.dsp.levinson as levinson_module
import repro.environments.factory as factory_module
from repro.channel.motion import MOTION_PRESETS
from repro.core.equalizer import MMSEEqualizer
from repro.dsp.correlation import TemplateCorrelator, sliding_correlation_curve
from repro.dsp.fastconv import (
    SpectrumCache,
    convolve_cascade,
    convolve_full,
    convolve_shared,
    irfft_n,
    rfft_n,
)
from repro.dsp.levinson import solve_symmetric_toeplitz
from repro.environments.factory import build_channel
from repro.environments.sites import SITE_CATALOG


def _reference_channel(monkeypatch, **kwargs):
    """``build_channel(**kwargs)`` built as an :class:`FftconvolveChannel`."""
    with monkeypatch.context() as patch:
        patch.setattr(factory_module, "UnderwaterAcousticChannel", FftconvolveChannel)
        channel = build_channel(**kwargs)
    assert type(channel) is FftconvolveChannel  # else the comparison is vacuous
    return channel


def _unbind_for_public_fallback(monkeypatch, module, private: str, *bindings: str):
    """Make SciPy's ``private`` module unimportable and unbind ``module``'s kernels.

    The module's next call reloads its kernels, which must then take the
    public fallback; monkeypatch restores the private module and the
    previous bindings afterwards.
    """
    monkeypatch.setitem(sys.modules, private, None)
    with pytest.raises(ImportError):
        importlib.import_module(private)
    for name in bindings:
        monkeypatch.setattr(module, name, None)


# --------------------------------------------------------------------- fastconv
def test_convolve_full_matches_fftconvolve():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        for n, m in ((64, 5), (1000, 257), (9243, 961)):
            x = rng.normal(size=n)
            kernel = rng.normal(size=m)
            fast = convolve_full(x, kernel)
            reference = sp_signal.fftconvolve(x, kernel)
            # Same algorithm and padding; differences can only come from
            # FFT rounding reassociation.  Measured max deviation: 8.2e-16
            # relative of the peak (seeds 0-9) -> asserted at 1e-12.
            scale = np.max(np.abs(reference))
            assert_allclose_seeded(fast, reference, seed,
                                   "convolve_full vs fftconvolve",
                                   atol=1e-12 * scale, detail=f"n={n} m={m}")


def test_convolve_cascade_matches_two_fftconvolves():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=5000)
        first = rng.normal(size=700)
        second = rng.normal(size=257)
        fast = convolve_cascade(x, first, second)
        reference = sp_signal.fftconvolve(sp_signal.fftconvolve(x, first), second)
        scale = np.max(np.abs(reference))
        # One combined multiply vs two sequential convolutions at
        # different FFT sizes.  Measured max deviation: 1.2e-15 relative
        # of the peak (seeds 0-9) -> asserted at 1e-12.
        assert fast.size == reference.size
        assert_allclose_seeded(fast, reference, seed,
                               "convolve_cascade vs fftconvolve x2",
                               atol=1e-12 * scale)


def test_convolve_shared_matches_individual_convolutions():
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=4000)
        kernels = (rng.normal(size=300), rng.normal(size=450))
        shared = convolve_shared(x, kernels)
        for result, kernel in zip(shared, kernels):
            reference = sp_signal.fftconvolve(x, kernel)
            scale = np.max(np.abs(reference))
            # Measured max deviation: 8.1e-16 relative of the peak
            # (seeds 0-9) -> asserted at 1e-12.
            assert result.size == reference.size
            assert_allclose_seeded(result, reference, seed,
                                   "convolve_shared vs fftconvolve",
                                   atol=1e-12 * scale,
                                   detail=f"kernel size {kernel.size}")


def test_spectrum_cache_hits_on_equal_content():
    cache = SpectrumCache()
    kernel = np.arange(32.0)
    first = cache.spectrum(kernel, 64)
    second = cache.spectrum(kernel.copy(), 64)  # equal content, new array
    assert cache.hits == 1 and cache.misses == 1
    assert first is second
    cache.spectrum(kernel, 128)  # different FFT size -> new entry
    assert cache.misses == 2


def test_public_fft_fallback_matches_private_kernels_bit_for_bit(monkeypatch):
    sizes = (7, 64, 1440, 9720, 13824, 16875)

    def transforms() -> list[np.ndarray]:
        rng = np.random.default_rng(5)
        results = []
        for n in sizes:
            # Equal, shorter (zero-padded) and longer (truncated) inputs.
            for length in (n, n - n // 3, n + 5):
                results.append(rfft_n(rng.normal(size=length), n))
            spectrum = rng.normal(size=n // 2 + 1) + 1j * rng.normal(size=n // 2 + 1)
            results.append(irfft_n(spectrum, n))
        return results

    private = transforms()
    _unbind_for_public_fallback(
        monkeypatch, fastconv_module, "scipy.fft._pocketfft",
        "_scipy_next_fast_len", "_rfft", "_irfft",
    )
    public = transforms()
    assert fastconv_module._rfft is not None  # the loader really ran again
    # The raw pocketfft bindings skip only the public API's dispatch and
    # checks, so the fallback must agree exactly, not within a tolerance.
    for index, (fast, reference) in enumerate(zip(private, public)):
        assert np.array_equal(fast, reference), (index, sizes[index // 4])


# ---------------------------------------------------------------- channel path
@pytest.mark.parametrize("motion", ["static", "slow", "fast"])
def test_channel_fast_path_matches_reference(motion, monkeypatch):
    """Frequency-domain transmit vs the seed fftconvolve pipeline.

    ``include_noise=False`` isolates the deterministic propagation (the
    noise realization is random by contract and pinned statistically in
    test_channel_noise.py).  Both paths must also evolve the channel drift
    state identically, which the second transmit checks.
    """
    channel = dict(site=SITE_CATALOG["lake"], distance_m=10.0, seed=3,
                   motion=MOTION_PRESETS[motion])
    fast = build_channel(**channel)
    reference = _reference_channel(monkeypatch, **channel)
    waveform = np.sin(2 * np.pi * 2000.0 * np.arange(12000) / 48000.0)
    for trial in range(3):
        out_fast = fast.transmit(waveform, rng=np.random.default_rng(40 + trial),
                                 include_noise=False)
        out_ref = reference.transmit(waveform, rng=np.random.default_rng(40 + trial),
                                     include_noise=False)
        scale = np.max(np.abs(out_ref.samples))
        assert out_fast.samples.size == out_ref.samples.size
        # Measured max deviation: 1.7e-15 relative of the received peak
        # (seeds 3/5/7 x 3 motions x 3 trials) -> asserted at 1e-12.
        assert_allclose_seeded(out_fast.samples, out_ref.samples, 40 + trial,
                               "channel fast path vs fftconvolve reference",
                               atol=1e-12 * scale,
                               detail=f"motion={motion} trial={trial}")
        assert out_fast.doppler == out_ref.doppler


def test_channel_fast_path_matches_reference_with_noise(monkeypatch):
    """With noise the two paths share the same rng stream and stay close."""
    fast = build_channel(site=SITE_CATALOG["lake"], distance_m=5.0, seed=9)
    reference = _reference_channel(monkeypatch, site=SITE_CATALOG["lake"],
                                   distance_m=5.0, seed=9)
    waveform = np.sin(2 * np.pi * 1500.0 * np.arange(9000) / 48000.0)
    out_fast = fast.transmit(waveform, rng=np.random.default_rng(77))
    out_ref = reference.transmit(waveform, rng=np.random.default_rng(77))
    scale = np.max(np.abs(out_ref.samples))
    # Measured max deviation: 9.5e-16 relative of the peak (channel seeds
    # 9/11/13, shared noise stream) -> asserted at 1e-12.
    assert_allclose_seeded(out_fast.samples, out_ref.samples, 77,
                           "channel fast path with noise", atol=1e-12 * scale)


# -------------------------------------------------------------- preamble search
def test_template_correlator_matches_reference():
    for seed in (4, 14, 24):
        rng = np.random.default_rng(seed)
        for n, m in ((900, 300), (5000, 800), (30000, 8216)):
            received = rng.normal(size=n)
            template = rng.normal(size=m)
            fast = TemplateCorrelator(template).correlate(received)
            reference = normalized_cross_correlation(received, template)
            assert fast.size == reference.size
            # Measured max deviation: 1.4e-16 absolute on a metric bounded
            # by 1 (seeds 0-9) -> asserted at 1e-12.
            assert_allclose_seeded(fast, reference, seed,
                                   "TemplateCorrelator vs reference",
                                   atol=1e-12, detail=f"n={n} m={m}")


def test_sliding_correlation_curve_matches_reference():
    rng = np.random.default_rng(6)
    signs = np.array([-1, 1, 1, 1, 1, 1, -1, 1], dtype=float)
    received = rng.normal(size=12000)
    # Also embed a real preamble-like structure so the metric exercises
    # values near 1, not just noise.
    segment = rng.normal(size=1027)
    received[2000:2000 + 8 * 1027] = np.concatenate([s * segment for s in signs])
    for start, stop, step in ((0, 3000, 8), (1500, 2500, 1), (11000, 12000, 8)):
        offsets_fast, metric_fast = sliding_correlation_curve(
            received, start, stop, 1027, signs, step=step
        )
        offsets_ref, metric_ref = sliding_correlation_curve_reference(
            received, start, stop, 1027, signs, step=step
        )
        assert np.array_equal(offsets_fast, offsets_ref)
        # Measured max deviation: 7.9e-15 absolute on the normalized
        # metric (seeds 0-9; cumsum reassociation) -> asserted at 1e-12.
        assert_allclose_seeded(metric_fast, metric_ref, 6,
                               "sliding_correlation_curve vs loop",
                               atol=1e-12,
                               detail=f"start={start} stop={stop} step={step}")


def test_sliding_correlation_curve_empty_range():
    offsets, metric = sliding_correlation_curve(np.zeros(100), 90, 10, 50, np.ones(8))
    assert offsets.size == 0 and metric.size == 0


def test_preamble_detector_fast_path_finds_same_offset():
    from repro.core.preamble import PreambleDetector, PreambleGenerator

    generator = PreambleGenerator()
    detector = PreambleDetector(generator)
    rng = np.random.default_rng(11)
    template = generator.waveform()
    capture = rng.normal(0.0, 0.05, template.size * 3)
    capture[1500:1500 + template.size] += template
    detection = detector.detect(capture)
    assert detection.detected
    assert detection.start_index == 1500


# ------------------------------------------------------------------- equalizer
def test_levinson_recursion_matches_dense_solve():
    for seed in (7, 17, 27):
        rng = np.random.default_rng(seed)
        for n in (1, 2, 3, 16, 128, 480):
            y = rng.normal(size=max(4 * n, 8))
            r = np.correlate(y, y, "full")[y.size - 1:y.size - 1 + n] / y.size
            r[0] *= 1.001  # diagonal loading keeps the system well conditioned
            b = rng.normal(size=n)
            dense = dense_toeplitz_solve(r, b)
            dispatched = solve_symmetric_toeplitz(r, b)
            # Measured max deviation between the O(n^2) recursion and the
            # O(n^3) solve: 4.3e-11 relative at n=480 (seeds 0-9) ->
            # asserted at rtol 1e-8 (was 1e-6 before the PR-5 audit).
            assert_allclose_seeded(dispatched, dense, seed,
                                   "solve_symmetric_toeplitz vs dense",
                                   rtol=1e-8, atol=1e-9, detail=f"n={n}")


def test_public_toeplitz_fallback_matches_private_kernel_bit_for_bit(monkeypatch):
    def solves() -> list[np.ndarray]:
        rng = np.random.default_rng(9)
        results = []
        for n in (5, 50, 480):
            y = rng.normal(size=4 * n)
            r = np.correlate(y, y, "full")[y.size - 1:y.size - 1 + n] / y.size
            r[0] *= 1.001
            results.append(solve_symmetric_toeplitz(r, rng.normal(size=n)))
        return results

    private = solves()
    _unbind_for_public_fallback(
        monkeypatch, levinson_module, "scipy.linalg._solve_toeplitz", "_solve"
    )
    public = solves()
    assert levinson_module._solve is not None  # the loader really ran again
    # solve_toeplitz builds the same layout and calls the same kernel.
    for fast, reference in zip(private, public):
        assert np.array_equal(fast, reference), fast.size


def test_equalizer_levinson_matches_dense_reference(monkeypatch):
    rng = np.random.default_rng(8)
    reference_training = rng.normal(size=1027)
    channel = rng.normal(size=60) * np.exp(-np.arange(60) / 12.0)
    received = np.convolve(reference_training, channel)[:1027]
    received += 0.01 * rng.normal(size=received.size)
    taps_fast = MMSEEqualizer(num_taps=480).fit(received, reference_training)
    monkeypatch.setattr(equalizer_module, "solve_symmetric_toeplitz", dense_toeplitz_solve)
    taps_dense = MMSEEqualizer(num_taps=480).fit(received, reference_training)
    assert not np.array_equal(taps_fast, taps_dense)  # the dense solve really ran
    scale = np.max(np.abs(taps_dense))
    # Measured max deviation: 1.7e-14 relative of the largest tap through
    # the 480-tap fit (seeds 0-7) -> asserted at 1e-11 (was 1e-6).
    assert_allclose_seeded(taps_fast, taps_dense, 8,
                           "equalizer Levinson vs dense taps",
                           atol=1e-11 * scale)


def test_equalizer_matches_seed_implementation():
    """The FFT-correlation fit reproduces the seed np.correlate pipeline."""
    from scipy import linalg as sp_linalg

    def seed_fit(y, x, taps, reg):
        n = y.size
        full_autocorr = np.correlate(y, y, mode="full") / n
        zero_lag = y.size - 1
        r_yy = full_autocorr[zero_lag:zero_lag + taps].copy()
        r_yy[0] += reg * r_yy[0] + 1e-12
        full_crosscorr = np.correlate(x, y, mode="full") / n
        r_xy = full_crosscorr[zero_lag:zero_lag + taps]
        return sp_linalg.solve_toeplitz((r_yy, r_yy), r_xy)

    rng = np.random.default_rng(9)
    y = rng.normal(size=1027)
    x = rng.normal(size=1027)
    seed_taps = seed_fit(y, x, 480, 1e-3)
    fast_taps = MMSEEqualizer(num_taps=480).fit(y, x)
    scale = np.max(np.abs(seed_taps))
    # Measured max deviation: 2.3e-13 relative (seeds 0-7; FFT
    # correlations + the time-reversal phase identity reassociate
    # rounding) -> asserted at 1e-11 (was 1e-9).
    assert_allclose_seeded(fast_taps, seed_taps, 9,
                           "equalizer fit vs seed np.correlate pipeline",
                           atol=1e-11 * scale)


# ----------------------------------------------------------------- run_packets
def test_run_packets_matches_run_packet_loop():
    from repro.environments.factory import build_link_pair
    from repro.link.session import LinkSession

    forward, backward = build_link_pair(site=SITE_CATALOG["lake"], distance_m=5.0, seed=21)
    batched = LinkSession(forward, backward, seed=22)
    stats_batched = batched.run_packets(3)

    forward2, backward2 = build_link_pair(site=SITE_CATALOG["lake"], distance_m=5.0, seed=21)
    looped = LinkSession(forward2, backward2, seed=22)
    results = [looped.run_packet() for _ in range(3)]

    assert stats_batched.num_packets == 3
    for batch_result, loop_result in zip(stats_batched.results, results):
        assert batch_result == loop_result


# ----------------------------------------------------------- failure reporting
def test_golden_helper_reports_offending_seed():
    """The repro helper must name the seed and deviation on failure."""
    from _golden_utils import assert_bit_identical_seeded

    with pytest.raises(AssertionError) as excinfo:
        assert_allclose_seeded(np.ones(4), np.zeros(4), seed=1234,
                               label="demo", atol=1e-12, detail="n=4")
    message = str(excinfo.value)
    assert "1234" in message and "demo" in message
    assert "max deviation" in message and "repro" in message

    with pytest.raises(AssertionError) as excinfo:
        assert_bit_identical_seeded(np.array([0, 1]), np.array([1, 1]),
                                    seed=(101, 7), label="bits")
    message = str(excinfo.value)
    assert "(101, 7)" in message and "mismatching" in message


def test_golden_helper_passes_on_equal_inputs():
    from _golden_utils import assert_bit_identical_seeded

    assert_allclose_seeded(np.ones(4), np.ones(4) + 1e-14, seed=0,
                           label="close", atol=1e-12)
    assert_bit_identical_seeded(np.arange(5), np.arange(5), seed=0, label="eq")


def test_golden_helper_rejects_matching_nans():
    """A regression producing NaN in both the fast path and the reference
    must fail the equivalence gate, never read as agreement."""
    both_nan = np.array([1.0, np.nan])
    with pytest.raises(AssertionError):
        assert_allclose_seeded(both_nan, both_nan.copy(), seed=0,
                               label="nan-hole", atol=1e-9)


# ------------------------------------------------------------------ multipath
def test_tap_amplitudes_match_physics_path_amplitude():
    """The vectorized tap builder's inlined loss math must stay bit-identical
    to the scalar path_amplitude oracle (same float operations)."""
    from oracles.channel import path_amplitude
    from repro.channel.multipath import ImageMethodGeometry, MultipathModel

    geometry = ImageMethodGeometry(
        water_depth_m=10.0, tx_depth_m=2.2, rx_depth_m=3.7, horizontal_range_m=25.0
    )
    model = MultipathModel(geometry=geometry, surface_loss_db=0.0, bottom_loss_db=0.0)
    for path in model.paths():
        assert abs(path.amplitude) == path_amplitude(path.length_m)
