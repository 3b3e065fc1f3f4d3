"""Loop, dense-matrix and SciPy references for the DSP fast paths, filter
designs and sequences."""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

_EPS = 1e-12


def normalized_cross_correlation(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Template-normalized cross-correlation via ``fftconvolve``.

    The reference for :class:`repro.dsp.correlation.TemplateCorrelator`:
    one value per alignment of the template inside ``received``, each
    normalized by the energy of the template and of the received window.
    """
    received = np.asarray(received, dtype=float)
    template = np.asarray(template, dtype=float)
    if template.size == 0 or received.size < template.size:
        raise ValueError("received signal must be at least as long as the template")
    raw = sp_signal.fftconvolve(received, template[::-1], mode="valid")
    template_energy = float(np.sqrt(np.sum(template ** 2)))
    cumulative = np.concatenate([[0.0], np.cumsum(received ** 2)])
    window_energy = np.sqrt(cumulative[template.size:] - cumulative[: received.size - template.size + 1])
    return raw / (template_energy * np.maximum(window_energy, _EPS))


def normalized_sliding_correlation(
    window: np.ndarray,
    segment_length: int,
    pn_signs: np.ndarray,
) -> float:
    """The normalized sliding-correlation metric of one window.

    The window is divided into ``len(pn_signs)`` segments of
    ``segment_length`` samples.  Each segment is multiplied by its PN sign
    and neighbouring segments are correlated; the summed correlations are
    normalized by the window energy.
    """
    window = np.asarray(window, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    num_segments = pn_signs.size
    needed = segment_length * num_segments
    if window.size < needed:
        raise ValueError(
            f"window of {window.size} samples too short for {num_segments} "
            f"segments of {segment_length} samples"
        )
    segments = window[:needed].reshape(num_segments, segment_length) * pn_signs[:, None]
    correlation = 0.0
    for i in range(num_segments - 1):
        correlation += float(np.dot(segments[i], segments[i + 1]))
    energy = float(np.sum(window[:needed] ** 2)) * (num_segments - 1) / num_segments
    return correlation / max(energy, _EPS)


def sliding_correlation_curve_reference(
    received: np.ndarray,
    start: int,
    stop: int,
    segment_length: int,
    pn_signs: np.ndarray,
    step: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalized_sliding_correlation` evaluated offset by offset."""
    received = np.asarray(received, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    window_length = segment_length * pn_signs.size
    start = max(0, int(start))
    stop = min(int(stop), received.size - window_length)
    offsets = np.arange(start, stop + 1, max(1, int(step)))
    metric = np.empty(offsets.size, dtype=float)
    for i, offset in enumerate(offsets):
        metric[i] = normalized_sliding_correlation(
            received[offset:offset + window_length], segment_length, pn_signs
        )
    return offsets, metric


def dense_toeplitz_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric Toeplitz system ``T(r) x = b`` as a full matrix.

    The O(n^3) counterpart of
    :func:`repro.dsp.levinson.solve_symmetric_toeplitz`, with the same
    arguments.
    """
    r = np.asarray(r, dtype=float).ravel()
    indices = np.arange(r.size)
    return np.linalg.solve(r[np.abs(indices[:, None] - indices[None, :])], b)


def periodic_autocorrelation(sequence: np.ndarray) -> np.ndarray:
    """Return the normalized periodic autocorrelation of a complex sequence.

    The CAZAC check for :func:`repro.dsp.sequences.zadoff_chu`: the
    zero-lag value is 1 and every other lag is (close to) 0 for odd-length
    Zadoff-Chu sequences.
    """
    sequence = np.asarray(sequence, dtype=complex)
    n = sequence.size
    if n == 0:
        raise ValueError("sequence must be non-empty")
    energy = float(np.sum(np.abs(sequence) ** 2))
    lags = np.empty(n, dtype=complex)
    for lag in range(n):
        lags[lag] = np.sum(sequence * np.conj(np.roll(sequence, lag))) / energy
    return lags


def firwin_bandpass(low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    """SciPy's ``firwin`` design of the 129-tap receive band-pass.

    The reference for :func:`repro.dsp.filters.design_bandpass_fir`.
    """
    return sp_signal.firwin(129, [low_hz, high_hz], pass_zero=False, fs=sample_rate_hz)


def firwin2_design(
    freqs_hz: np.ndarray,
    gains_db: np.ndarray,
    sample_rate_hz: float,
    num_taps: int = 257,
) -> np.ndarray:
    """SciPy's ``firwin2`` design of a response given in dB.

    The reference for :func:`repro.dsp.filters.design_fir_from_response`,
    with the same arguments and the same 512-point linear target (zeroed
    at DC and Nyquist).
    """
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    gains_db = np.asarray(gains_db, dtype=float)
    nyquist = sample_rate_hz / 2.0
    if num_taps % 2 == 0:
        num_taps += 1
    grid = np.linspace(0.0, nyquist, 512)
    gains_linear = 10.0 ** (
        np.interp(grid, freqs_hz, gains_db, left=gains_db[0], right=gains_db[-1]) / 20.0
    )
    gains_linear[0] = 0.0
    gains_linear[-1] = 0.0
    return sp_signal.firwin2(num_taps, grid, gains_linear, fs=sample_rate_hz)


def response_fir(response, sample_rate_hz: float = 48000.0, num_taps: int = 257) -> np.ndarray:
    """A :class:`~repro.devices.response.FrequencyResponse` as an FIR, by
    :func:`firwin2_design` on the grid ``FrequencyResponse.as_fir`` samples."""
    grid = np.linspace(50.0, sample_rate_hz / 2.0 - 50.0, 256)
    return firwin2_design(grid, response.gain_db(grid), sample_rate_hz, num_taps)


def lfilter_compensated(taps: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """Direct-form FIR filtering (``lfilter``) with the group delay removed.

    The reference for :meth:`repro.devices.response.FrequencyResponse.apply`.
    """
    delay = (taps.size - 1) // 2
    padded = np.concatenate([np.asarray(samples, dtype=float), np.zeros(taps.size)])
    return sp_signal.lfilter(taps, 1.0, padded)[delay:delay + len(samples)]
