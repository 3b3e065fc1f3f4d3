"""Levinson-Durbin solver for symmetric Toeplitz systems.

The MMSE equalizer's normal equations ``R_yy g = r_xy`` have a symmetric
Toeplitz system matrix fully described by its first column ``r`` (the
autocorrelation of the received training).  A dense solve is O(n^3) --
noticeable at the paper's 480-tap channel length -- while the
Levinson-Durbin recursion exploits the Toeplitz structure to solve the
same system in O(n^2).

:func:`solve_symmetric_toeplitz` is the entry point the equalizer uses.
It runs SciPy's compiled implementation of the recursion; the golden
equivalence tests pin it against a dense O(n^3) solve kept in the test
suite.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_toeplitz as _scipy_solve_toeplitz

try:
    # The compiled Levinson kernel behind scipy.linalg.solve_toeplitz;
    # calling it directly skips the public wrapper's generic validation on
    # the per-packet equalizer path.  Private API, so fall back to the
    # public wrapper if it moves.
    from scipy.linalg._solve_toeplitz import levinson as _scipy_levinson
except ImportError:  # pragma: no cover - depends on scipy internals
    _scipy_levinson = None


def solve_symmetric_toeplitz(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``T x = b`` for the symmetric Toeplitz ``T`` with first column ``r``.

    Uses SciPy's compiled Levinson kernel directly when its private module
    is importable, otherwise the public :func:`scipy.linalg.solve_toeplitz`.
    """
    if _scipy_levinson is not None:
        r = np.asarray(r, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        # Same layout solve_toeplitz builds internally: reversed first row
        # (minus its head) concatenated with the first column.
        vals = np.concatenate((r[-1:0:-1], r))
        solution, _ = _scipy_levinson(vals, b)
        return np.asarray(solution, dtype=float)
    return np.asarray(_scipy_solve_toeplitz((r, r), b), dtype=float)
