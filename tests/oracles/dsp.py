"""Loop and dense-matrix references for the DSP fast paths."""

from __future__ import annotations

import numpy as np

from repro.dsp.correlation import normalized_sliding_correlation


def sliding_correlation_curve_reference(
    received: np.ndarray,
    start: int,
    stop: int,
    segment_length: int,
    pn_signs: np.ndarray,
    step: int = 8,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`normalized_sliding_correlation` evaluated offset by offset."""
    received = np.asarray(received, dtype=float)
    pn_signs = np.asarray(pn_signs, dtype=float)
    window_length = segment_length * pn_signs.size
    start = max(0, int(start))
    stop = min(int(stop), received.size - window_length)
    offsets = np.arange(start, stop + 1, max(1, int(step)))
    metric = np.empty(offsets.size, dtype=float)
    for i, offset in enumerate(offsets):
        metric[i] = normalized_sliding_correlation(
            received[offset:offset + window_length], segment_length, pn_signs
        )
    return offsets, metric


def dense_toeplitz_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve the symmetric Toeplitz system ``T(r) x = b`` as a full matrix.

    The O(n^3) counterpart of
    :func:`repro.dsp.levinson.solve_symmetric_toeplitz`, with the same
    arguments.
    """
    r = np.asarray(r, dtype=float).ravel()
    indices = np.arange(r.size)
    return np.linalg.solve(r[np.abs(indices[:, None] - indices[None, :])], b)
