"""Correlation primitives used by the preamble detector.

Two detectors are combined in the paper (section 2.2.1):

* a *coarse* detector that cross-correlates the received audio with the
  known preamble waveform and looks for a peak, and
* a *fine* detector based on a normalized sliding correlation that splits
  the candidate window into eight OFDM-symbol-long segments, removes the
  pseudo-noise signs, correlates neighbouring segments and normalizes by
  the window energy.  The normalized metric is close to 1 for a true
  preamble regardless of SNR, and small (< 0.2) for impulsive noise.

Both stages are vectorized:

* :class:`TemplateCorrelator` runs the coarse stage as overlap-save FFT
  cross-correlation against a cached conjugate spectrum of the template,
  equivalent to :func:`normalized_cross_correlation` within ~1e-10.
* :func:`sliding_correlation_curve` evaluates the fine metric for *all*
  candidate offsets at once from two cumulative sums (the windowed
  segment products telescope into prefix-sum differences) instead of
  calling :func:`normalized_sliding_correlation` once per offset.
  Agreement with that per-offset loop is ~1e-9 relative (cumulative sums
  reassociate the additions); tests/test_fastpath_golden.py pins both.
"""

from __future__ import annotations

import numpy as np
from scipy import signal as sp_signal

from repro.dsp.fastconv import irfft_n, next_fast_len, rfft_n

_EPS = 1e-12


def normalized_cross_correlation(received: np.ndarray, template: np.ndarray) -> np.ndarray:
    """Return the template-normalized cross-correlation of ``received``.

    The output has one value per alignment of the template inside the
    received buffer (``len(received) - len(template) + 1`` values).  Each
    value is normalized by the energy of the template and of the
    corresponding received window, so it lies in ``[-1, 1]``.
    """
    received = np.asarray(received, dtype=float)
    template = np.asarray(template, dtype=float)
    if template.size == 0 or received.size < template.size:
        raise ValueError("received signal must be at least as long as the template")
    # FFT-based correlation: much faster than np.correlate for the long
    # preamble templates used here.
    raw = sp_signal.fftconvolve(received, template[::-1], mode="valid")
    template_energy = float(np.sqrt(np.sum(template ** 2)))
    # Rolling energy of the received windows, via cumulative sums.
    squared = received ** 2
    cumulative = np.concatenate([[0.0], np.cumsum(squared)])
    window_energy = np.sqrt(cumulative[template.size:] - cumulative[: received.size - template.size + 1])
    return raw / (template_energy * np.maximum(window_energy, _EPS))


class TemplateCorrelator:
    """Normalized FFT cross-correlation against one fixed template.

    The conjugate spectrum of the template (the rFFT of the time-reversed
    waveform) and the template energy are computed once; every
    :meth:`correlate` call then runs overlap-save block convolution, so the
    per-call cost is independent of how many times the same preamble is
    searched for.  Output matches :func:`normalized_cross_correlation`
    within ~1e-10 (same arithmetic, different FFT block sizes).
    """

    def __init__(self, template: np.ndarray, block_size: int | None = None) -> None:
        self._template = np.asarray(template, dtype=float).ravel()
        if self._template.size == 0:
            raise ValueError("template must be non-empty")
        m = self._template.size
        if block_size is None:
            # Blocks of ~2x the template keep single-search latency low for
            # packet-sized captures while amortizing well on long ones.
            block_size = 2 * m
        self._n_fft = next_fast_len(max(int(block_size), 2 * m))
        # Buffers up to ~4 template lengths are correlated in one shot (the
        # in-session packet captures); anything longer streams block-wise.
        self._single_shot_limit = next_fast_len(4 * m)
        #: Cached conjugate spectra (rfft of the reversed template) per FFT
        #: size: the overlap-save block size plus the single-shot sizes of
        #: the packet lengths this correlator has seen.
        self._spectra: dict[int, np.ndarray] = {}
        self._spectrum = self._spectrum_for(self._n_fft)
        self._energy = float(np.sqrt(np.sum(self._template ** 2)))

    def _spectrum_for(self, n_fft: int) -> np.ndarray:
        spectrum = self._spectra.get(n_fft)
        if spectrum is None:
            if len(self._spectra) > 16:
                self._spectra.clear()
            spectrum = rfft_n(self._template[::-1], n_fft)
            spectrum.setflags(write=False)
            self._spectra[n_fft] = spectrum
        return spectrum

    def raw_correlation(self, received: np.ndarray) -> np.ndarray:
        """Unnormalized valid-mode cross-correlation via overlap-save.

        Circular wrap-around only contaminates output indices below
        ``m - 1`` as long as the FFT size is at least the chunk length, so a
        buffer no longer than the block size is correlated in one shot at
        ``next_fast_len(len(received))``; longer buffers stream through
        fixed-size overlap-save blocks against the cached block spectrum.
        """
        received = np.asarray(received, dtype=float).ravel()
        m = self._template.size
        if received.size < m:
            raise ValueError("received signal must be at least as long as the template")
        num_valid = received.size - m + 1
        single_shot = next_fast_len(received.size)
        if single_shot <= self._single_shot_limit:
            segment = irfft_n(
                rfft_n(received, single_shot) * self._spectrum_for(single_shot),
                single_shot,
            )
            return segment[m - 1:m - 1 + num_valid]
        n_fft = self._n_fft
        spectrum = self._spectrum
        step = n_fft - m + 1
        out = np.empty(num_valid)
        position = 0
        while position < num_valid:
            chunk = received[position:position + n_fft]
            segment = irfft_n(rfft_n(chunk, n_fft) * spectrum, n_fft)
            take = min(step, num_valid - position)
            # The first m-1 outputs of each block are circular wrap-around;
            # the linear-convolution region starts at index m-1.
            out[position:position + take] = segment[m - 1:m - 1 + take]
            position += take
        return out

    def correlate(self, received: np.ndarray) -> np.ndarray:
        """Normalized cross-correlation (same output as :func:`normalized_cross_correlation`)."""
        received = np.asarray(received, dtype=float).ravel()
        raw = self.raw_correlation(received)
        squared = received ** 2
        cumulative = np.concatenate([[0.0], np.cumsum(squared)])
        m = self._template.size
        window_energy = np.sqrt(
            cumulative[m:] - cumulative[: received.size - m + 1]
        )
        return raw / (self._energy * np.maximum(window_energy, _EPS))


def normalized_sliding_correlation(
    window: np.ndarray,
    segment_length: int,
    pn_signs: np.ndarray,
) -> float:
    """Return the normalized sliding-correlation metric for one window.

    The window is divided into ``len(pn_signs)`` segments of
    ``segment_length`` samples.  Each segment is multiplied by its PN sign
    and neighbouring segments are correlated; the summed correlations are
    normalized by the window energy.  A true preamble (identical repeated
    symbols with those signs) yields a value near 1.
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


def _candidate_offsets(
    received_size: int,
    start: int,
    stop: int,
    window_length: int,
    step: int,
) -> np.ndarray:
    """Window offsets ``start, start + step, ...`` clamped to the buffer."""
    start = max(0, int(start))
    stop = min(int(stop), received_size - window_length)
    if stop < start:
        return np.array([], dtype=int)
    return np.arange(start, stop + 1, max(1, int(step)))


def sliding_correlation_curve(
    received: np.ndarray,
    start: int,
    stop: int,
    segment_length: int,
    pn_signs: np.ndarray,
    step: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the sliding-correlation metric on a range of offsets.

    Returns ``(offsets, metric)`` where ``offsets`` are the candidate start
    indices (spaced by ``step`` samples, matching the computational-cost
    compromise described in the paper) and ``metric`` the corresponding
    normalized sliding-correlation values.

    Vectorized: for offset ``o`` the metric numerator is
    ``sum_i s_i s_{i+1} <seg_i, seg_{i+1}>`` where ``<seg_i, seg_{i+1}>``
    is a length-L dot product of the signal against itself shifted by one
    segment.  All those dot products are windowed sums of the single
    product sequence ``r[n] * r[n+L]``, so one cumulative sum serves every
    offset and segment pair; the denominator telescopes the same way from
    the cumulative sum of ``r**2``.
    """
    received = np.asarray(received, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    num_segments = pn_signs.size
    segment_length = int(segment_length)
    window_length = segment_length * num_segments
    offsets = _candidate_offsets(received.size, start, stop, window_length, step)
    if offsets.size == 0:
        return offsets, np.array([], dtype=float)

    # Work on the smallest slice covering every window.
    low = int(offsets[0])
    high = int(offsets[-1]) + window_length
    region = received[low:high]
    lagged = region[:-segment_length] * region[segment_length:]
    lag_prefix = np.concatenate([[0.0], np.cumsum(lagged)])
    energy_prefix = np.concatenate([[0.0], np.cumsum(region ** 2)])

    relative = offsets - low
    pair_signs = pn_signs[:-1] * pn_signs[1:]
    starts = relative[:, None] + np.arange(num_segments - 1)[None, :] * segment_length
    pair_dots = lag_prefix[starts + segment_length] - lag_prefix[starts]
    correlation = pair_dots @ pair_signs
    energy = (
        (energy_prefix[relative + window_length] - energy_prefix[relative])
        * (num_segments - 1)
        / num_segments
    )
    metric = correlation / np.maximum(energy, _EPS)
    return offsets, metric


def sliding_correlation_peak(
    received: np.ndarray,
    start: int,
    stop: int,
    segment_length: int,
    pn_signs: np.ndarray,
    step: int = 8,
) -> tuple[int, float]:
    """Return ``(best_offset, best_metric)`` over the candidate range."""
    offsets, metric = sliding_correlation_curve(
        received, start, stop, segment_length, pn_signs, step
    )
    if offsets.size == 0:
        return -1, 0.0
    best = int(np.argmax(metric))
    return int(offsets[best]), float(metric[best])
