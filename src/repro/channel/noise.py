"""Ambient underwater noise synthesis.

The paper's noise characterization (Fig. 4) shows three robust features:

* the noise floor is highest below 1 kHz (flowing water, bubbles);
* there is appreciable noise up to about 4.5 kHz that then falls off;
* the overall level differs by up to ~9 dB between locations and also
  between devices (because each microphone shapes the noise with its own
  response).

The :class:`AmbientNoiseModel` synthesizes colored Gaussian noise with a
spectral shape capturing those features plus optional transient "spiky"
components (bubbles, clanks from boats) that exercise the preamble
detector's robustness to impulsive noise.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.dsp.fastconv import irfft_n, next_fast_len
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_amplitude_ratio
from repro.utils.validation import require_positive

#: The spectral shape of the ambient noise, the same at every site: extra
#: power below the low-frequency corner (the flow/bubble noise the paper
#: observes under 1 kHz) and a roll-off above ``ROLLOFF_START_HZ``.
LOW_FREQUENCY_EMPHASIS_DB = 18.0
LOW_FREQUENCY_CUTOFF_HZ = 1000.0
ROLLOFF_START_HZ = 4500.0
ROLLOFF_DB_PER_OCTAVE = 9.0
#: Amplitude of impulsive transients relative to the stationary noise.
IMPULSIVE_GAIN_DB = 8.0

#: Cache of spectral amplitude shapes keyed by (length, sample rate).  The
#: shape is deterministic given those inputs, so reusing it is bit-identical
#: to recomputing; the per-packet noise synthesis then only pays for the
#: white-noise draw and one FFT round trip.
_SHAPE_CACHE: OrderedDict[tuple, np.ndarray] = OrderedDict()
_SHAPE_CACHE_MAX = 32


def spectral_shape_db(frequencies_hz: np.ndarray) -> np.ndarray:
    """Return the relative noise power spectral density shape in dB."""
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    shape = np.zeros_like(frequencies_hz)
    # Low-frequency emphasis: smooth step below the cutoff.  The wide
    # transition (several hundred Hz) matches the paper's observation
    # that flow/bubble noise remains elevated up to roughly 1.5 kHz.
    lf = LOW_FREQUENCY_EMPHASIS_DB / (
        1.0 + np.exp((frequencies_hz - LOW_FREQUENCY_CUTOFF_HZ) / 350.0)
    )
    shape += lf
    # High-frequency roll-off above ROLLOFF_START_HZ.
    above = frequencies_hz > ROLLOFF_START_HZ
    octaves = np.zeros_like(frequencies_hz)
    octaves[above] = np.log2(frequencies_hz[above] / ROLLOFF_START_HZ)
    shape -= ROLLOFF_DB_PER_OCTAVE * octaves
    return shape


def _shape_amplitude(num_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Cached amplitude shaping vector for the one-sided spectrum.

    :func:`spectral_shape_db` is a power shape; amplitude scaling uses /20.
    """
    key = (int(num_samples), float(sample_rate_hz))
    cached = _SHAPE_CACHE.get(key)
    if cached is not None:
        _SHAPE_CACHE.move_to_end(key)
        return cached
    freqs = np.fft.rfftfreq(num_samples, d=1.0 / sample_rate_hz)
    shape_amplitude = 10.0 ** (spectral_shape_db(freqs) / 20.0)
    shape_amplitude.setflags(write=False)
    _SHAPE_CACHE[key] = shape_amplitude
    if len(_SHAPE_CACHE) > _SHAPE_CACHE_MAX:
        _SHAPE_CACHE.popitem(last=False)
    return shape_amplitude


@dataclass
class AmbientNoiseModel:
    """Synthesizes site-dependent ambient acoustic noise.

    Parameters
    ----------
    level_db:
        Overall noise level in dB relative to the simulator's unit
        reference pressure (what a transmit waveform of RMS 1.0 corresponds
        to at 1 m).  More negative is quieter.
    impulsive_rate_hz:
        Expected number of impulsive transients (bubbles, impacts) per
        second; zero disables them.
    """

    level_db: float = -40.0
    impulsive_rate_hz: float = 0.0

    def generate(
        self,
        num_samples: int,
        sample_rate_hz: float,
        rng: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Return ``num_samples`` of synthesized ambient noise."""
        require_positive(sample_rate_hz, "sample_rate_hz")
        if num_samples <= 0:
            return np.zeros(0)
        rng = ensure_rng(rng)
        # Draw the white spectrum directly in the frequency domain at an
        # FFT-friendly length (packet buffers routinely have large prime
        # factors, e.g. 10022 = 2 x 5011, where an exact-size transform
        # costs ~10x a 5-smooth one).  The rFFT of time-domain white
        # Gaussian noise *is* iid complex Gaussian, so colouring a directly
        # drawn spectrum yields the same noise process while skipping the
        # forward transform; the per-seed realization differs from the seed
        # implementation but the spectral shape and the normalized level --
        # the statistics the tests and the calibration tables measure -- are
        # unchanged (pinned by tests/test_channel_noise.py).  The
        # deterministic signal path stays bit-identical.
        n_fft = next_fast_len(num_samples)
        half = n_fft // 2 + 1
        draws = rng.standard_normal(2 * half)
        spectrum = np.empty(half, dtype=complex)
        spectrum.real = draws[:half]
        spectrum.imag = draws[half:]
        shape_amplitude = _shape_amplitude(n_fft, sample_rate_hz)
        colored = irfft_n(spectrum * shape_amplitude, n_fft)[:num_samples]
        # einsum's own loop, not BLAS: a threaded ``ddot`` sums in an order
        # that depends on the thread count, and so would every result.
        rms = np.sqrt(np.einsum("i,i->", colored, colored) / colored.size)
        if rms > 0:
            colored = colored / rms
        noise = colored * db_to_amplitude_ratio(self.level_db)
        if self.impulsive_rate_hz > 0:
            noise = noise + self._impulsive_component(num_samples, sample_rate_hz, rng)
        return noise

    def _impulsive_component(
        self, num_samples: int, sample_rate_hz: float, rng: np.random.Generator
    ) -> np.ndarray:
        """Short decaying bursts modelling bubbles and mechanical clanks."""
        duration_s = num_samples / sample_rate_hz
        expected = self.impulsive_rate_hz * duration_s
        count = int(rng.poisson(expected))
        impulses = np.zeros(num_samples)
        if count == 0:
            return impulses
        burst_length = max(int(0.003 * sample_rate_hz), 8)
        envelope = np.exp(-np.arange(burst_length) / (burst_length / 4.0))
        amplitude = db_to_amplitude_ratio(self.level_db + IMPULSIVE_GAIN_DB)
        for _ in range(count):
            start = int(rng.integers(0, max(num_samples - burst_length, 1)))
            burst = rng.standard_normal(burst_length) * envelope * amplitude
            impulses[start:start + burst_length] += burst
        return impulses
