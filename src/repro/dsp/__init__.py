"""Digital signal processing substrate for the AquaApp modem.

The modules here implement the generic building blocks the modem is
assembled from: constant-amplitude zero-autocorrelation (CAZAC) sequences,
linear frequency modulated chirps, FIR filters, spectrum estimation helpers
and the resampling used to model Doppler.  The preamble detector's
correlators (:mod:`repro.dsp.correlation`), the cached-spectrum FFT
convolutions (:mod:`repro.dsp.fastconv`) and the equalizer's Toeplitz
solver (:mod:`repro.dsp.levinson`) are imported from their modules.
"""

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
]
