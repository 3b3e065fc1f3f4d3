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

* :class:`TemplateCorrelator` runs the coarse stage as one FFT
  cross-correlation per capture against a cached conjugate spectrum of the
  template.
* :func:`sliding_correlation_curve` evaluates the fine metric for *all*
  candidate offsets at once from two cumulative sums (the windowed
  segment products telescope into prefix-sum differences) instead of
  evaluating one window at a time.

The plain references both stages are pinned against (``fftconvolve``
cross-correlation and the per-offset loop) live in ``tests/oracles/dsp.py``;
tests/test_fastpath_golden.py compares them.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fastconv import irfft_n, next_fast_len, rfft_n

_EPS = 1e-12


class TemplateCorrelator:
    """Normalized FFT cross-correlation against one fixed template.

    The conjugate spectrum of the template (the rFFT of the time-reversed
    waveform) is cached per FFT size and the template energy is computed
    once, so every :meth:`correlate` call costs one forward FFT, one
    complex multiply and one inverse FFT of the capture.  The normalized
    output lies in ``[-1, 1]``.
    """

    def __init__(self, template: np.ndarray) -> None:
        self._template = np.asarray(template, dtype=float).ravel()
        if self._template.size == 0:
            raise ValueError("template must be non-empty")
        #: Cached conjugate spectra (rfft of the reversed template), one per
        #: FFT size of the capture lengths this correlator has seen.
        self._spectra: dict[int, np.ndarray] = {}
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
        """Unnormalized valid-mode cross-correlation in one FFT round trip.

        The transform runs at ``next_fast_len(len(received))``: circular
        wrap-around then only contaminates output indices below ``m - 1``
        (``m`` the template length), which valid mode discards.
        """
        received = np.asarray(received, dtype=float).ravel()
        m = self._template.size
        if received.size < m:
            raise ValueError("received signal must be at least as long as the template")
        num_valid = received.size - m + 1
        n_fft = next_fast_len(received.size)
        segment = irfft_n(rfft_n(received, n_fft) * self._spectrum_for(n_fft), n_fft)
        return segment[m - 1:m - 1 + num_valid]

    def correlate(self, received: np.ndarray) -> np.ndarray:
        """Cross-correlation normalized by template and window energy.

        One value per alignment of the template inside ``received``
        (``len(received) - len(template) + 1`` values); raises
        ``ValueError`` when ``received`` is shorter than the template.
        """
        received = np.asarray(received, dtype=float).ravel()
        raw = self.raw_correlation(received)
        squared = received ** 2
        cumulative = np.concatenate([[0.0], np.cumsum(squared)])
        m = self._template.size
        window_energy = np.sqrt(
            cumulative[m:] - cumulative[: received.size - m + 1]
        )
        return raw / (self._energy * np.maximum(window_energy, _EPS))


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
    normalized sliding-correlation values.  Both arrays are empty when no
    window of ``len(pn_signs)`` segments fits inside the range.

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

