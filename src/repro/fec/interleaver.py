"""Bit interleaving across OFDM subcarriers.

The paper's interleaving rule (section 2.3.1) is built around the
observation that bit errors cluster on one subcarrier or two neighbouring
subcarriers.  Coded bits are therefore assigned symbol by symbol (fill one
OFDM symbol completely before starting the next), and *within* a symbol
successive bits are placed a stride of one third of the selected band
apart, so that consecutive coded bits never land on adjacent subcarriers.
With fewer than three selected subcarriers interleaving degenerates to the
identity mapping, exactly as the paper notes.
"""

from __future__ import annotations

import numpy as np


_PERMUTATION_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _stride_permutation(length: int, stride: int) -> np.ndarray:
    """Return a permutation of ``range(length)`` visiting indices by ``stride``.

    When ``stride`` does not divide evenly into ``length`` the walk simply
    skips already-visited positions, which keeps the mapping a true
    permutation for every ``(length, stride)`` pair.  Interleavers are
    constructed once per packet (one per band width), so the walk is cached
    module-wide.
    """
    cached = _PERMUTATION_CACHE.get((length, stride))
    if cached is not None:
        return cached
    visited = np.zeros(length, dtype=bool)
    order = np.empty(length, dtype=int)
    position = 0
    for i in range(length):
        while visited[position]:
            position = (position + 1) % length
        order[i] = position
        visited[position] = True
        position = (position + stride) % length
    order.setflags(write=False)
    _PERMUTATION_CACHE[(length, stride)] = order
    return order


class SubcarrierInterleaver:
    """Maps coded bits onto (symbol, subcarrier) positions and back.

    Parameters
    ----------
    bins_per_symbol:
        Number of selected OFDM subcarriers per data symbol (the width of
        the adapted frequency band).
    """

    def __init__(self, bins_per_symbol: int) -> None:
        if bins_per_symbol < 1:
            raise ValueError("bins_per_symbol must be at least 1")
        self.bins_per_symbol = int(bins_per_symbol)
        if self.bins_per_symbol < 3:
            # Paper: "If we use less than three bins then this defaults to
            # not using interleaving."
            self._within_symbol = np.arange(self.bins_per_symbol)
        else:
            stride = max(1, self.bins_per_symbol // 3)
            self._within_symbol = _stride_permutation(self.bins_per_symbol, stride)

    def num_symbols(self, num_bits: int) -> int:
        """Number of OFDM data symbols needed to carry ``num_bits`` coded bits."""
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        return int(np.ceil(num_bits / self.bins_per_symbol)) if num_bits else 0

    def interleave(self, bits: np.ndarray | list[int]) -> np.ndarray:
        """Return a (num_symbols, bins_per_symbol) grid of interleaved bits.

        Bits are placed symbol-first with the within-symbol stride order;
        unused positions in the final symbol are filled with zeros.
        """
        bits = np.asarray(bits).ravel()
        n_symbols = self.num_symbols(bits.size)
        grid = np.zeros((n_symbols, self.bins_per_symbol), dtype=bits.dtype if bits.size else int)
        indices = np.arange(bits.size)
        grid[indices // self.bins_per_symbol,
             self._within_symbol[indices % self.bins_per_symbol]] = bits
        return grid

    def deinterleave(self, grid: np.ndarray, num_bits: int) -> np.ndarray:
        """Invert :meth:`interleave`, returning the first ``num_bits`` values.

        ``grid`` may contain soft values (floats); the dtype is preserved.
        """
        grid = np.asarray(grid)
        if grid.ndim != 2 or grid.shape[1] != self.bins_per_symbol:
            raise ValueError(
                f"grid must have shape (num_symbols, {self.bins_per_symbol}), got {grid.shape}"
            )
        capacity = grid.shape[0] * self.bins_per_symbol
        if num_bits > capacity:
            raise ValueError(f"cannot extract {num_bits} bits from a grid of {capacity} slots")
        indices = np.arange(num_bits)
        return grid[indices // self.bins_per_symbol,
                    self._within_symbol[indices % self.bins_per_symbol]]
