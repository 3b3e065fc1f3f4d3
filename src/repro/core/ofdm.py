"""OFDM symbol modulation and demodulation.

An OFDM symbol is built by placing complex values on a subset of the
real-FFT bins of a ``symbol_length``-sample frame, taking an inverse real
FFT, normalizing the frame to unit mean power and prepending a cyclic
prefix.  Normalizing to *fixed total power per symbol* is what makes
the paper's "drop low-SNR bins and reallocate power to the remaining bins"
behaviour emerge naturally: fewer active bins means more power per bin.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import OFDMConfig


class OFDMModulator:
    """Modulates and demodulates single OFDM symbols for a given config."""

    def __init__(self, config: OFDMConfig) -> None:
        self.config = config

    @property
    def num_spectrum_bins(self) -> int:
        """Number of bins in the one-sided (real FFT) spectrum."""
        return self.config.symbol_length // 2 + 1

    # ----------------------------------------------------------------- encode
    def modulate(
        self,
        bin_values: np.ndarray,
        bin_indices: np.ndarray,
        add_cyclic_prefix: bool = True,
    ) -> np.ndarray:
        """Build a time-domain OFDM symbol of unit mean power.

        Parameters
        ----------
        bin_values:
            Complex values to place on the selected subcarriers.
        bin_indices:
            Absolute subcarrier indices (0 = DC) receiving those values.
        add_cyclic_prefix:
            Prepend the cyclic prefix when ``True``.

        The one-row case of :meth:`modulate_many`.
        """
        bin_values = np.asarray(bin_values, dtype=complex).ravel()
        return self.modulate_many(bin_values[None, :], bin_indices, add_cyclic_prefix)[0]

    def modulate_many(
        self,
        bin_values: np.ndarray,
        bin_indices: np.ndarray,
        add_cyclic_prefix: bool = True,
    ) -> np.ndarray:
        """Build several OFDM symbols at once.

        ``bin_values`` has shape ``(num_symbols, len(bin_indices))``; every
        row becomes one symbol on the same set of subcarriers.  Returns a
        ``(num_symbols, symbol_length[+cyclic_prefix])`` array; each row is
        normalized to unit mean power on its own.
        """
        bin_values = np.asarray(bin_values, dtype=complex)
        bin_indices = np.asarray(bin_indices, dtype=int).ravel()
        if bin_values.ndim != 2 or bin_values.shape[1] != bin_indices.size:
            raise ValueError(
                "bin_values must have shape (num_symbols, len(bin_indices)), "
                f"got {bin_values.shape} for {bin_indices.size} bins"
            )
        if bin_indices.size and (
            bin_indices.min() < 0 or bin_indices.max() >= self.num_spectrum_bins
        ):
            raise ValueError("bin index out of range for the configured symbol length")
        spectrum = np.zeros((bin_values.shape[0], self.num_spectrum_bins), dtype=complex)
        spectrum[:, bin_indices] = bin_values
        symbols = np.fft.irfft(spectrum, n=self.config.symbol_length, axis=1)
        if bin_indices.size:
            power = np.mean(symbols ** 2, axis=1)
            scale = np.where(power > 0, np.sqrt(1.0 / np.maximum(power, 1e-300)), 1.0)
            symbols = symbols * scale[:, None]
        if add_cyclic_prefix and self.config.cyclic_prefix_length > 0:
            symbols = np.concatenate(
                [symbols[:, -self.config.cyclic_prefix_length:], symbols], axis=1
            )
        return symbols

    # ---------------------------------------------------------------- decode
    def demodulate(
        self,
        symbol: np.ndarray,
        bin_indices: np.ndarray | None = None,
        has_cyclic_prefix: bool = True,
    ) -> np.ndarray:
        """Recover subcarrier values from a received time-domain symbol.

        Parameters
        ----------
        symbol:
            Received samples for one OFDM symbol (with or without its
            cyclic prefix, see ``has_cyclic_prefix``).
        bin_indices:
            Subcarrier indices to return.  ``None`` returns the full
            one-sided spectrum.

        The one-symbol case of :meth:`demodulate_many`; samples past the
        symbol are ignored.
        """
        return self.demodulate_many(symbol, 1, bin_indices, has_cyclic_prefix)[0]

    def demodulate_many(
        self,
        samples: np.ndarray,
        num_symbols: int,
        bin_indices: np.ndarray | None = None,
        has_cyclic_prefix: bool = True,
    ) -> np.ndarray:
        """Demodulate ``num_symbols`` consecutive symbols in one batch FFT.

        ``samples`` must hold the symbols back to back (cyclic prefixes
        included when ``has_cyclic_prefix``).  Returns a
        ``(num_symbols, len(bin_indices))`` array of subcarrier values.
        """
        samples = np.asarray(samples, dtype=float).ravel()
        if num_symbols < 0:
            raise ValueError("num_symbols must be non-negative")
        step = (
            self.config.extended_symbol_length
            if has_cyclic_prefix
            else self.config.symbol_length
        )
        needed = num_symbols * step
        if samples.size < needed:
            raise ValueError(
                f"need {needed} samples for {num_symbols} symbols, got {samples.size}"
            )
        frames = samples[:needed].reshape(num_symbols, step)
        if has_cyclic_prefix:
            frames = frames[
                :, self.config.cyclic_prefix_length:
                self.config.cyclic_prefix_length + self.config.symbol_length
            ]
        spectra = np.fft.rfft(frames, axis=1)
        if bin_indices is None:
            return spectra
        bin_indices = np.asarray(bin_indices, dtype=int).ravel()
        return spectra[:, bin_indices]

