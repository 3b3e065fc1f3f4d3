"""Cached-spectrum FFT convolution for the frequency-domain fast paths.

``scipy.signal.fftconvolve`` recomputes the forward FFT of *both* operands
on every call.  The simulator's hot paths convolve thousands of packets
against a small set of slowly-changing kernels (multipath impulse
responses, the cascaded device FIR, bandpass filters), so the kernel
spectra can be computed once and reused: a packet then costs one rFFT,
one complex multiply and one irFFT.

:class:`SpectrumCache` is a small LRU keyed by kernel *content* (a
BLAKE2 digest of the raw bytes plus the length) and FFT size, so two
arrays with equal values share one cached spectrum and a kernel that is
regenerated (e.g. after :meth:`UnderwaterAcousticChannel.randomize`)
naturally misses.  Cascades of two kernels cache the *product* spectrum,
which is what turns the channel's "multipath then device FIR" double
convolution into a single frequency-domain multiply.

All helpers return results numerically equivalent to
``scipy.signal.fftconvolve`` (same algorithm, same FFT sizes modulo
``next_fast_len`` padding); tiny differences (~1e-13 relative) come only
from reassociated floating-point rounding and are pinned by the golden
equivalence tests.

Importing this module does not import SciPy: :func:`next_fast_len`,
:func:`rfft_n` and :func:`irfft_n` bind SciPy's kernels into module
globals on their first call (:func:`load_kernels`), so the processes
that never run the PHY (``cli net``, ``chaos``, ``trace replay``,
``jobs``) never pay SciPy's import.  Every later call costs one global
check.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np

#: SciPy's ``next_fast_len`` and the transform pair, bound by
#: :func:`load_kernels` on the first call that needs one.
_scipy_next_fast_len = None
_rfft = None
_irfft = None


def load_kernels() -> None:
    """Import SciPy's FFT kernels and bind them into this module.

    The raw pocketfft bindings are bit-identical to ``scipy.fft.rfft`` /
    ``irfft`` but skip the per-call backend dispatch, shape fixing and
    dtype checks (~10 us each, which matters at ~40 transforms per
    simulated packet).  They are private API, so the public functions
    serve when that module moves.
    """
    global _scipy_next_fast_len, _rfft, _irfft
    from scipy.fft import next_fast_len as scipy_next_fast_len

    try:
        from scipy.fft._pocketfft import pypocketfft as ppf
    except ImportError:
        from scipy.fft import irfft, rfft

        def forward(x: np.ndarray, n_fft: int) -> np.ndarray:
            return rfft(np.asarray(x, dtype=float), n_fft)

        def inverse(spectrum: np.ndarray, n_fft: int) -> np.ndarray:
            return irfft(spectrum, n_fft)
    else:
        def forward(x: np.ndarray, n_fft: int) -> np.ndarray:
            x = np.asarray(x, dtype=np.float64)
            if x.size != n_fft:
                buffer = np.zeros(n_fft)
                buffer[: min(x.size, n_fft)] = x[:n_fft]
                x = buffer
            return ppf.r2c(x, axes=(0,), forward=True, inorm=0)

        def inverse(spectrum: np.ndarray, n_fft: int) -> np.ndarray:
            spectrum = np.ascontiguousarray(spectrum, dtype=np.complex128)
            return ppf.c2r(spectrum, axes=(0,), lastsize=n_fft, forward=False, inorm=2)

    _scipy_next_fast_len, _rfft, _irfft = scipy_next_fast_len, forward, inverse


def next_fast_len(n: int) -> int:
    """Smallest efficient (5-smooth) real-FFT length >= ``n``."""
    if _scipy_next_fast_len is None:
        load_kernels()
    return int(_scipy_next_fast_len(int(n), real=True))


def rfft_n(x: np.ndarray, n_fft: int) -> np.ndarray:
    """``rfft(x, n_fft)`` for 1-D float input."""
    if _rfft is None:
        load_kernels()
    return _rfft(x, n_fft)


def irfft_n(spectrum: np.ndarray, n_fft: int) -> np.ndarray:
    """``irfft(spectrum, n_fft)`` for 1-D complex input."""
    if _irfft is None:
        load_kernels()
    return _irfft(spectrum, n_fft)


def _kernel_key(kernel: np.ndarray) -> tuple:
    """Content key of a kernel array (length + BLAKE2 digest of its bytes)."""
    data = np.ascontiguousarray(kernel)
    return (data.size, hashlib.blake2b(data.tobytes(), digest_size=16).digest())


def conv_fft_len(out_len: int) -> int:
    """FFT size for a convolution producing ``out_len`` samples.

    Beyond 4096 samples the length is rounded up to the next 4096 multiple
    before ``next_fast_len``: packet lengths drift by a few hundred samples
    from packet to packet (the multipath tail changes with the drawn
    geometry), and quantizing the transform size means the cached kernel
    spectra (device FIR, receive bandpass) and pocketfft's internal plans
    are reused across packets instead of being rebuilt for every length.
    """
    if out_len <= 4096:
        return next_fast_len(out_len)
    return next_fast_len(-(-int(out_len) // 4096) * 4096)


class SpectrumCache:
    """LRU cache of kernel rFFT spectra and cascade product spectra."""

    #: Bound on the number of cached spectra (single kernels and cascade
    #: products count separately).  Old entries are evicted LRU-first.
    MAX_ENTRIES = 128

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every cached spectrum and reset the hit/miss counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def _get(self, key: tuple):
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
        else:
            self.misses += 1
        return entry

    def _put(self, key: tuple, spectrum: np.ndarray) -> np.ndarray:
        spectrum.setflags(write=False)
        self._entries[key] = spectrum
        if len(self._entries) > self.MAX_ENTRIES:
            self._entries.popitem(last=False)
        return spectrum

    # ------------------------------------------------------------------ lookup
    def spectrum(self, kernel: np.ndarray, n_fft: int) -> np.ndarray:
        """Return (and cache) ``rfft(kernel, n_fft)``."""
        key = ("k", _kernel_key(kernel), int(n_fft))
        cached = self._get(key)
        if cached is not None:
            return cached
        return self._put(key, rfft_n(kernel, n_fft))

    def cascade_spectrum(
        self, first: np.ndarray, second: np.ndarray, n_fft: int
    ) -> np.ndarray:
        """Return (and cache) the product spectrum of two cascaded kernels."""
        key = ("c", _kernel_key(first), _kernel_key(second), int(n_fft))
        cached = self._get(key)
        if cached is not None:
            return cached
        product = rfft_n(first, n_fft) * rfft_n(second, n_fft)
        return self._put(key, product)


#: Shared process-wide cache used by the channel fast path.  Sessions,
#: benchmark suites and :class:`repro.net.links.PhysicalLink` instances all
#: draw from the same pool, so identical device FIRs across cached
#: per-distance sessions are only transformed once.
CHANNEL_SPECTRUM_CACHE = SpectrumCache()


def convolve_full(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution of ``x`` with a cached-spectrum kernel."""
    x = np.asarray(x, dtype=float)
    out_len = x.size + kernel.size - 1
    n_fft = conv_fft_len(out_len)
    spectrum = CHANNEL_SPECTRUM_CACHE.spectrum(kernel, n_fft)
    return irfft_n(rfft_n(x, n_fft) * spectrum, n_fft)[:out_len]


def convolve_cascade(
    x: np.ndarray,
    first: np.ndarray,
    second: np.ndarray,
) -> np.ndarray:
    """Convolve ``x`` with two cascaded kernels in one FFT round trip.

    Equivalent to ``fftconvolve(fftconvolve(x, first), second)`` but pays a
    single forward rFFT of ``x``, one complex multiply against the cached
    combined transfer function and one irFFT.
    """
    x = np.asarray(x, dtype=float)
    out_len = x.size + first.size + second.size - 2
    n_fft = conv_fft_len(out_len)
    spectrum = CHANNEL_SPECTRUM_CACHE.cascade_spectrum(first, second, n_fft)
    return irfft_n(rfft_n(x, n_fft) * spectrum, n_fft)[:out_len]


def convolve_shared(
    x: np.ndarray,
    kernels: tuple[np.ndarray, ...],
) -> list[np.ndarray]:
    """Convolve one input against several kernels, sharing the forward FFT.

    Used by the channel's motion-drift path, which needs the same packet
    pushed through both the static and the drifted multipath responses
    before cross-fading them in the time domain.
    """
    x = np.asarray(x, dtype=float)
    longest = max(kernel.size for kernel in kernels)
    # Exact fast length and no spectrum caching: the drift-path kernels are
    # fresh every packet, so cached entries would never hit again -- they
    # would only pay a content hash and evict the genuinely reusable
    # device-FIR/cascade spectra from the shared LRU.
    n_fft = next_fast_len(x.size + longest - 1)
    forward = rfft_n(x, n_fft)
    results = []
    for kernel in kernels:
        spectrum = rfft_n(kernel, n_fft)
        out_len = x.size + kernel.size - 1
        results.append(irfft_n(forward * spectrum, n_fft)[:out_len])
    return results
