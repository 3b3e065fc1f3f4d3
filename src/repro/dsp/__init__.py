"""Digital signal processing substrate for the AquaApp modem.

The modules here implement the generic building blocks the modem is
assembled from: constant-amplitude zero-autocorrelation (CAZAC) sequences,
linear frequency modulated chirps, FIR filters, spectrum estimation helpers
and the resampling used to model Doppler.  The preamble detector's
correlators (:mod:`repro.dsp.correlation`), the cached-spectrum FFT
convolutions (:mod:`repro.dsp.fastconv`) and the equalizer's Toeplitz
solver (:mod:`repro.dsp.levinson`) are imported from their modules.

The PHY's two SciPy kernels are the FFTs of :mod:`repro.dsp.fastconv` and
the Levinson solver of :mod:`repro.dsp.levinson`; the filter designs are
numpy.  No module here imports SciPy at import time: each kernel loads on
its first call, and :func:`load_scipy_kernels` loads both at once.
"""

from repro.dsp import fastconv, levinson
from repro.dsp.chirp import lfm_chirp
from repro.dsp.filters import FIRBandpassFilter, design_bandpass_fir
from repro.dsp.resample import apply_doppler
from repro.dsp.sequences import zadoff_chu
from repro.dsp.spectrum import band_power

__all__ = [
    "zadoff_chu",
    "lfm_chirp",
    "design_bandpass_fir",
    "FIRBandpassFilter",
    "band_power",
    "apply_doppler",
    "load_scipy_kernels",
]


def load_scipy_kernels() -> None:
    """Import every SciPy kernel the PHY calls, in this process.

    A process that is about to fork PHY workers calls this first, so the
    workers inherit the loaded kernels instead of each importing SciPy on
    its first packet; a serial run calls it too, so its first scenario is
    not timed with the import.
    """
    fastconv.load_kernels()
    levinson.load_kernel()
