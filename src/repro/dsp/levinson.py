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
suite.  The kernel is imported and bound into a module global on the
first solve (:func:`load_kernel`), so importing this module does not
import SciPy and every later solve costs one global check.
"""

from __future__ import annotations

import numpy as np

#: The solver :func:`load_kernel` binds on the first solve.
_solve = None


def load_kernel() -> None:
    """Import SciPy's Levinson kernel and bind a solver around it.

    The compiled kernel behind :func:`scipy.linalg.solve_toeplitz` is
    called directly, which skips the public wrapper's generic validation
    on the per-packet equalizer path.  It is private API, so the public
    wrapper serves when that module moves.
    """
    global _solve
    try:
        from scipy.linalg._solve_toeplitz import levinson
    except ImportError:
        from scipy.linalg import solve_toeplitz

        def solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
            return np.asarray(solve_toeplitz((r, r), b), dtype=float)
    else:
        def solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
            r = np.asarray(r, dtype=float).ravel()
            b = np.asarray(b, dtype=float).ravel()
            # Same layout solve_toeplitz builds internally: reversed first
            # row (minus its head) concatenated with the first column.
            vals = np.concatenate((r[-1:0:-1], r))
            solution, _ = levinson(vals, b)
            return np.asarray(solution, dtype=float)

    _solve = solve


def solve_symmetric_toeplitz(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``T x = b`` for the symmetric Toeplitz ``T`` with first column ``r``.

    Uses SciPy's compiled Levinson kernel directly when its private module
    is importable, otherwise the public :func:`scipy.linalg.solve_toeplitz`.
    """
    if _solve is None:
        load_kernel()
    return _solve(r, b)
