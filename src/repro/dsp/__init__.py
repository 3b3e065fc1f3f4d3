"""Digital signal processing substrate for the AquaApp modem.

The modules here implement the generic building blocks the modem is
assembled from: constant-amplitude zero-autocorrelation (CAZAC) sequences,
pseudo-noise sign sequences, linear frequency modulated chirps, FIR filters,
spectrum estimation helpers and the resampling used to model Doppler.  The
preamble detector's correlators (:mod:`repro.dsp.correlation`), the
cached-spectrum FFT convolutions (:mod:`repro.dsp.fastconv`) and the
equalizer's Toeplitz solver (:mod:`repro.dsp.levinson`) are imported from
their modules.
"""

from repro.dsp.chirp import lfm_chirp
from repro.dsp.filters import FIRBandpassFilter, design_bandpass_fir
from repro.dsp.resample import apply_doppler
from repro.dsp.sequences import pn_sign_sequence, zadoff_chu
from repro.dsp.spectrum import band_power, magnitude_spectrum_db, power_spectral_density

__all__ = [
    "zadoff_chu",
    "pn_sign_sequence",
    "lfm_chirp",
    "design_bandpass_fir",
    "FIRBandpassFilter",
    "power_spectral_density",
    "band_power",
    "magnitude_spectrum_db",
    "apply_doppler",
]
