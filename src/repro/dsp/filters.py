"""FIR filter design and application.

The receiver applies a 128-order FIR band-pass filter with a 1-4 kHz
passband to the incoming audio before any further processing (paper
section 2.3.2); device and case frequency responses are also realized as
FIR filters designed by frequency sampling.

Both designs are numpy code that repeats SciPy's ``firwin`` / ``firwin2``
operation for operation, so the taps are bit-identical to SciPy's on the
same machine (``tests/test_dsp_filters.py`` checks them against SciPy),
and no PHY process imports ``scipy.signal``, whose import, with the
``stats``, ``interpolate`` and ``optimize`` modules it loads, was half of
a link sweep's start-up.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from repro.dsp.fastconv import convolve_full, irfft_n
from repro.utils.validation import require_positive


def _hamming(num_taps: int) -> np.ndarray:
    """Symmetric Hamming window, as SciPy's ``general_cosine`` computes it."""
    return 0.54 + (1.0 - 0.54) * np.cos(np.linspace(-np.pi, np.pi, num_taps))


def design_bandpass_fir(low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    """Design the receiver's linear-phase FIR band-pass filter.

    Parameters
    ----------
    low_hz, high_hz:
        Passband edges in Hz.
    sample_rate_hz:
        Sampling rate in Hz.

    The paper's "128 order" filter has 129 taps, an odd count, so the
    band-pass response is realizable as a type-I linear phase filter.
    """
    require_positive(sample_rate_hz, "sample_rate_hz")
    if not 0 < low_hz < high_hz < sample_rate_hz / 2:
        raise ValueError(
            f"band edges must satisfy 0 < low < high < Nyquist, got "
            f"({low_hz}, {high_hz}) at fs={sample_rate_hz}"
        )
    num_taps = 129
    left, right = np.array([low_hz, high_hz], dtype=float) / float(0.5 * sample_rate_hz)
    m = np.arange(num_taps, dtype=float) - 0.5 * (num_taps - 1)
    taps = right * np.sinc(right * m) - left * np.sinc(left * m)
    taps *= _hamming(num_taps)
    # Unit gain at the passband centre.
    taps /= np.sum(taps * np.cos(np.pi * m * (0.5 * (left + right))))
    return taps


def design_fir_from_response(
    freqs_hz: np.ndarray,
    gains_db: np.ndarray,
    sample_rate_hz: float,
    num_taps: int = 257,
) -> np.ndarray:
    """Design an FIR filter approximating an arbitrary magnitude response.

    Used to turn device speaker/microphone frequency-response curves and
    multipath transfer functions into time-domain filters.  The response is
    specified as gains in dB at the given frequencies and interpolated onto
    a dense frequency grid before the frequency-sampling design.
    """
    require_positive(sample_rate_hz, "sample_rate_hz")
    freqs_hz = np.asarray(freqs_hz, dtype=float)
    gains_db = np.asarray(gains_db, dtype=float)
    if freqs_hz.shape != gains_db.shape or freqs_hz.ndim != 1 or freqs_hz.size < 2:
        raise ValueError("freqs_hz and gains_db must be 1-D arrays of equal length >= 2")
    if np.any(np.diff(freqs_hz) <= 0):
        raise ValueError("freqs_hz must be strictly increasing")
    nyquist = sample_rate_hz / 2.0
    if num_taps % 2 == 0:
        num_taps += 1
    grid = np.linspace(0.0, nyquist, 512)
    gains_linear = 10.0 ** (np.interp(grid, freqs_hz, gains_db, left=gains_db[0], right=gains_db[-1]) / 20.0)
    # Force DC and Nyquist toward zero to keep the filter well behaved for
    # audio-band work; the communication band (1-4 kHz) is far from both.
    gains_linear[0] = 0.0
    gains_linear[-1] = 0.0
    # Frequency sampling: the target on a uniform mesh of 1 + 2**k points,
    # delayed by half the filter length so that the first ``num_taps``
    # samples of the inverse transform are the linear-phase taps.
    num_freqs = 1 + 2 ** int(math.ceil(math.log(num_taps, 2)))
    mesh = np.linspace(0.0, nyquist, num_freqs)
    target = np.interp(mesh, grid, gains_linear)
    shift = np.exp(-(num_taps - 1) / 2.0 * 1j * np.pi * mesh / nyquist)
    impulse = irfft_n(target * shift, 2 * (num_freqs - 1))
    return impulse[:num_taps] * _hamming(num_taps)


@functools.lru_cache(maxsize=8)
def _bandpass_taps(low_hz: float, high_hz: float, sample_rate_hz: float) -> np.ndarray:
    """:func:`design_bandpass_fir`, designed once per process and read-only."""
    taps = design_bandpass_fir(low_hz, high_hz, sample_rate_hz)
    taps.setflags(write=False)
    return taps


class FIRBandpassFilter:
    """Convenience wrapper bundling an FIR design with its application.

    Instances are reusable and stateless between calls (each call filters a
    complete buffer, mirroring the packet-at-a-time processing of the
    modem's receive path).  Filters with the same band and rate share one
    read-only taps array.
    """

    def __init__(
        self,
        low_hz: float = 1000.0,
        high_hz: float = 4000.0,
        sample_rate_hz: float = 48000.0,
    ) -> None:
        self.low_hz = float(low_hz)
        self.high_hz = float(high_hz)
        self.sample_rate_hz = float(sample_rate_hz)
        self.taps = _bandpass_taps(self.low_hz, self.high_hz, self.sample_rate_hz)

    @property
    def num_taps(self) -> int:
        """Number of taps in the designed filter."""
        return int(self.taps.size)

    @property
    def group_delay_samples(self) -> int:
        """Group delay of the linear-phase filter in samples."""
        return (self.taps.size - 1) // 2

    def apply(self, samples: np.ndarray) -> np.ndarray:
        """Filter ``samples`` and remove the filter group delay.

        Compensating the delay keeps downstream symbol timing (established
        from the preamble position) valid after filtering.

        The convolution runs in the frequency domain against the cached
        spectrum of the taps (the receive path filters every captured buffer
        with the same filter), numerically equivalent to direct FIR
        filtering within ~1e-13 relative.
        """
        samples = np.asarray(samples, dtype=float)
        filtered = convolve_full(samples, self.taps)
        start = self.group_delay_samples
        return filtered[start:start + samples.size]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"FIRBandpassFilter(low_hz={self.low_hz}, high_hz={self.high_hz}, "
            f"sample_rate_hz={self.sample_rate_hz}, num_taps={self.num_taps})"
        )
