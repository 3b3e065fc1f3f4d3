"""Per-subcarrier channel and SNR estimation from the preamble.

Following section 2.2.2 of the paper: the eight preamble OFDM symbols carry
the same known CAZAC values ``x(k)`` on every data subcarrier ``k``.  From
the eight received values ``y(k)`` an MMSE estimate of the per-subcarrier
channel response ``H(k)`` is formed, and the SNR of bin ``k`` is

    SNR_k = 20 * log10( ||H(k) x(k)|| / ||y(k) - H(k) x(k)|| )

which is the ratio of estimated signal energy to residual (noise) energy in
that bin across the preamble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import OFDMConfig
from repro.core.ofdm import OFDMModulator

_EPS = 1e-30

#: Diagonal loading of the MMSE channel estimate, so that bins in a deep
#: fade do not blow up numerically.
_REGULARIZATION = 1e-3

#: Cache of effective transmitted reference spectra keyed by (reference
#: values, config): the transmit chain normalizes every symbol to unit mean
#: power, so the effective bin values are the reference values scaled by the
#: factor modulation applied.  The scale is deterministic per configuration
#: and the estimator runs once per packet, so recompute it only on first use.
_REFERENCE_SPECTRUM_CACHE: dict[tuple, np.ndarray] = {}


def _reference_spectrum(reference_bin_values: np.ndarray, config: OFDMConfig) -> np.ndarray:
    key = (reference_bin_values.tobytes(), config)
    cached = _REFERENCE_SPECTRUM_CACHE.get(key)
    if cached is None:
        modulator = OFDMModulator(config)
        reference_symbol = modulator.modulate(
            reference_bin_values, config.data_bins, add_cyclic_prefix=False
        )
        cached = np.fft.rfft(reference_symbol)[config.data_bins]
        cached.setflags(write=False)
        if len(_REFERENCE_SPECTRUM_CACHE) > 16:
            _REFERENCE_SPECTRUM_CACHE.clear()
        _REFERENCE_SPECTRUM_CACHE[key] = cached
    return cached


@dataclass(frozen=True)
class ChannelEstimate:
    """Per-subcarrier channel and SNR estimate.

    Attributes
    ----------
    bin_indices:
        Absolute subcarrier indices the estimate covers.
    response:
        Complex channel response ``H(k)`` per subcarrier.
    snr_db:
        Estimated SNR per subcarrier in dB.
    noise_power:
        Residual noise power per subcarrier (linear).
    """

    bin_indices: np.ndarray
    response: np.ndarray
    snr_db: np.ndarray
    noise_power: np.ndarray

    @property
    def num_bins(self) -> int:
        """Number of estimated subcarriers."""
        return int(self.bin_indices.size)

    def snr_for_band(self, start_bin: int, end_bin: int) -> np.ndarray:
        """Return the SNR values for absolute bins ``start_bin..end_bin``."""
        mask = (self.bin_indices >= start_bin) & (self.bin_indices <= end_bin)
        return self.snr_db[mask]


def estimate_channel_and_snr(
    received_symbols: np.ndarray,
    reference_bin_values: np.ndarray,
    config: OFDMConfig,
) -> ChannelEstimate:
    """Estimate per-subcarrier channel response and SNR from the preamble.

    Parameters
    ----------
    received_symbols:
        Array of shape ``(num_preamble_symbols, symbol_length)`` containing
        the received preamble symbols with cyclic prefixes removed and PN
        signs already corrected (see
        :meth:`repro.core.preamble.PreambleDetector.extract_symbols`).
    reference_bin_values:
        The known CAZAC values transmitted on the data subcarriers.
    config:
        OFDM configuration describing which subcarriers carry data.
    """
    received_symbols = np.asarray(received_symbols, dtype=float)
    if received_symbols.ndim != 2 or received_symbols.shape[1] != config.symbol_length:
        raise ValueError(
            f"received_symbols must be (num_symbols, {config.symbol_length}), "
            f"got {received_symbols.shape}"
        )
    reference_bin_values = np.asarray(reference_bin_values, dtype=complex).ravel()
    if reference_bin_values.size != config.num_data_bins:
        raise ValueError(
            f"expected {config.num_data_bins} reference values, got {reference_bin_values.size}"
        )
    x = _reference_spectrum(reference_bin_values, config)

    num_symbols = received_symbols.shape[0]
    received_spectra = np.fft.rfft(received_symbols, axis=1)[:, config.data_bins]

    # MMSE-style channel estimate with diagonal loading: the eight preamble
    # symbols carry identical data so the estimator reduces to an average of
    # y / x with regularization.
    x_power = np.abs(x) ** 2
    response = (np.conj(x) * received_spectra.mean(axis=0)) / (x_power + _REGULARIZATION)

    # Residual energy across the preamble symbols gives the noise estimate.
    predicted = response[None, :] * x[None, :]
    residual = received_spectra - predicted
    signal_energy = np.sum(np.abs(predicted) ** 2, axis=0)
    noise_energy = np.sum(np.abs(residual) ** 2, axis=0)
    snr_db = 10.0 * np.log10(np.maximum(signal_energy, _EPS) / np.maximum(noise_energy, _EPS))
    noise_power = noise_energy / num_symbols
    return ChannelEstimate(
        bin_indices=config.data_bins.copy(),
        response=response,
        snr_db=snr_db,
        noise_power=noise_power,
    )
