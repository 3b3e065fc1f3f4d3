"""Theoretical BER references.

Fig. 8 of the paper compares the measured per-subcarrier BER against the
theoretical BPSK curve; Fig. 16 refers to the "4 dB causes about 1 % BER"
point of the same curve.  These helpers provide that reference.
"""

from __future__ import annotations

import numpy as np


def q_function(x: np.ndarray | float) -> np.ndarray | float:
    """The Gaussian tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def bpsk_ber_theoretical(snr_db: np.ndarray | float) -> np.ndarray | float:
    """Theoretical BPSK bit error rate at a given per-bit SNR (dB).

    ``BER = Q(sqrt(2 * Eb/N0))`` with Eb/N0 taken equal to the
    per-subcarrier SNR, which is how the paper presents its Fig. 8 curve.
    """
    snr_linear = 10.0 ** (np.asarray(snr_db, dtype=float) / 10.0)
    result = q_function(np.sqrt(2.0 * snr_linear))
    if np.isscalar(snr_db):
        return float(result)
    return result
