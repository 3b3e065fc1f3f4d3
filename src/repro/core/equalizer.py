"""Time-domain MMSE equalization.

Underwater multipath produces long delay spreads; instead of paying for a
long cyclic prefix, the paper keeps the prefix at 7 % of the symbol and
removes inter-symbol interference with a time-domain MMSE equalizer whose
coefficients are estimated from one known training symbol prepended to the
data (section 2.3.2).

The equalizer ``g`` (length ``num_taps``, the paper uses a channel length
of 480 samples) minimizes ``E||g * y - x||^2`` where ``y`` is the received
training waveform and ``x`` the known transmitted training waveform.  The
Wiener solution solves the Toeplitz normal equations

    R_yy g = r_xy

with the Levinson-Durbin recursion from :mod:`repro.dsp.levinson`, O(n^2)
in the tap count.  The auto- and cross-correlations are computed by FFT
instead of direct ``np.correlate`` (O(n log n) instead of O(n^2) in the
training length).  The decoder fits once per packet on its training
symbol (:meth:`MMSEEqualizer.fit`) and then equalizes the data burst
(:meth:`MMSEEqualizer.apply`).
"""

from __future__ import annotations

import numpy as np

from repro.dsp.fastconv import CHANNEL_SPECTRUM_CACHE, irfft_n, next_fast_len, rfft_n
from repro.dsp.levinson import solve_symmetric_toeplitz
from repro.utils.validation import require_positive

#: Cache of time-reversal phase ramps keyed by (signal length, FFT length):
#: ``rfft(y[::-1], nf) == conj(rfft(y, nf)) * exp(-2j pi k (n-1) / nf)``,
#: so the reversed-training spectrum costs one complex multiply instead of
#: a second forward FFT per fit.
_REVERSAL_PHASE_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _reversal_phase(n: int, n_fft: int) -> np.ndarray:
    key = (n, n_fft)
    cached = _REVERSAL_PHASE_CACHE.get(key)
    if cached is None:
        k = np.arange(n_fft // 2 + 1)
        cached = np.exp(-2j * np.pi * k * (n - 1) / n_fft)
        cached.setflags(write=False)
        if len(_REVERSAL_PHASE_CACHE) > 32:
            _REVERSAL_PHASE_CACHE.clear()
        _REVERSAL_PHASE_CACHE[key] = cached
    return cached


class MMSEEqualizer:
    """Single-channel time-domain MMSE (Wiener) equalizer."""

    #: Relative diagonal loading of the autocorrelation matrix.
    REGULARIZATION = 1e-3

    def __init__(self, num_taps: int = 480) -> None:
        require_positive(num_taps, "num_taps")
        self.num_taps = int(num_taps)
        self.coefficients: np.ndarray | None = None

    # ------------------------------------------------------------ correlations
    def _validate_training(self, y: np.ndarray, x: np.ndarray) -> None:
        if y.size != x.size:
            raise ValueError("received and reference training must have the same length")
        if y.size < self.num_taps:
            raise ValueError(
                f"training too short ({y.size} samples) for a {self.num_taps}-tap equalizer"
            )

    def _normal_equations(
        self, y: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(r_yy, r_xy)`` for the Toeplitz normal equations.

        Both are lag ``0 .. num_taps-1`` slices of full correlations:
        ``r_yy[k] = (1/n) sum_n y[n] y[n-k]`` (biased autocorrelation) and
        ``r_xy[k] = (1/n) sum_n x[n] y[n-k]``.  Computed via FFT --
        ``correlate(a, y) == convolve(a, y[::-1])``, so one spectrum of the
        reversed training serves both correlations.
        """
        n = y.size
        taps = self.num_taps
        zero_lag = n - 1
        n_fft = next_fast_len(2 * n - 1)
        forward = rfft_n(y, n_fft)
        reversed_spectrum = np.conj(forward) * _reversal_phase(n, n_fft)
        auto = irfft_n(forward * reversed_spectrum, n_fft)
        # The reference training repeats across packets of the same band, so
        # its spectrum comes from the shared content-keyed cache.
        x_spectrum = CHANNEL_SPECTRUM_CACHE.spectrum(x, n_fft)
        cross = irfft_n(x_spectrum * reversed_spectrum, n_fft)
        r_yy = auto[zero_lag:zero_lag + taps] / n
        r_yy[0] += self.REGULARIZATION * r_yy[0] + 1e-12
        r_xy = cross[zero_lag:zero_lag + taps] / n
        return r_yy, r_xy

    def fit(self, received_training: np.ndarray, reference_training: np.ndarray) -> np.ndarray:
        """Estimate the equalizer from a known training waveform.

        Parameters
        ----------
        received_training:
            Received samples corresponding to the training symbol (cyclic
            prefix included is fine; both waveforms just need to be aligned
            and of equal length).
        reference_training:
            The transmitted training waveform.

        Returns
        -------
        numpy.ndarray
            The estimated equalizer coefficients (also stored on the
            instance for :meth:`apply`).
        """
        y = np.asarray(received_training, dtype=float).ravel()
        x = np.asarray(reference_training, dtype=float).ravel()
        self._validate_training(y, x)
        r_yy, r_xy = self._normal_equations(y, x)
        self.coefficients = solve_symmetric_toeplitz(r_yy, r_xy)
        return self.coefficients

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Equalize ``samples`` with the fitted coefficients.

        The equalizer is fitted without a decision delay, so symbol timing
        established before equalization remains valid.
        """
        if self.coefficients is None:
            raise RuntimeError("equalizer must be fitted before it can be applied")
        samples = np.asarray(samples, dtype=float).ravel()
        # FFT convolution instead of direct FIR filtering: the taps change
        # every fit, but O((n+taps) log) still beats O(n * taps) at the
        # paper's 480-tap channel length (equivalent within ~1e-13).
        out_len = samples.size + self.coefficients.size - 1
        n_fft = next_fast_len(out_len)
        equalized = irfft_n(
            rfft_n(samples, n_fft) * rfft_n(self.coefficients, n_fft), n_fft
        )
        return equalized[: samples.size]
