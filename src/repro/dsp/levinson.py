"""Levinson-Durbin solvers for symmetric Toeplitz systems.

The MMSE equalizer's normal equations ``R_yy g = r_xy`` have a symmetric
Toeplitz system matrix fully described by its first column ``r`` (the
autocorrelation of the received training).  A dense solve is O(n^3) --
noticeable at the paper's 480-tap channel length -- while the
Levinson-Durbin recursion exploits the Toeplitz structure to solve the
same system in O(n^2).

:func:`levinson_solve` is a pure-NumPy implementation of the recursion
(general right-hand side, i.e. the "Levinson recursion" rather than just
the reflection-coefficient "Durbin" special case).
:func:`solve_symmetric_toeplitz` is the entry point the equalizer uses:
it delegates to SciPy's compiled implementation of the same recursion
when available (identical algorithm, C speed) and falls back to
:func:`levinson_solve` otherwise.  The golden equivalence tests pin both
against a dense O(n^3) solve kept in the test suite.
"""

from __future__ import annotations

import numpy as np

try:
    from scipy.linalg import solve_toeplitz as _scipy_solve_toeplitz
except ImportError:  # pragma: no cover - scipy is normally present
    _scipy_solve_toeplitz = None

try:
    # The compiled Levinson kernel behind scipy.linalg.solve_toeplitz;
    # calling it directly skips the public wrapper's generic validation on
    # the per-packet equalizer path.  Private API, so fall back to the
    # public wrapper (and ultimately the pure-NumPy recursion) if it moves.
    from scipy.linalg._solve_toeplitz import levinson as _scipy_levinson
except ImportError:  # pragma: no cover - depends on scipy internals
    _scipy_levinson = None


def levinson_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``T x = b`` for symmetric Toeplitz ``T`` via Levinson-Durbin.

    Parameters
    ----------
    r:
        First column (= first row) of the symmetric Toeplitz matrix.
        ``r[0]`` must be non-zero and the matrix strongly regular (true
        for the equalizer's diagonally-loaded autocorrelation matrices).
    b:
        Right-hand side, same length as ``r``.

    Returns
    -------
    numpy.ndarray
        The solution ``x``, computed in O(n^2) operations.
    """
    r = np.asarray(r, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if r.size != b.size:
        raise ValueError("r and b must have the same length")
    if r.size == 0:
        raise ValueError("system must have at least one equation")
    if r[0] == 0.0:
        raise ValueError("r[0] must be non-zero for the Levinson recursion")

    n = r.size
    # ``forward`` solves T_k f = e_1 for the growing leading subsystem; for
    # a symmetric Toeplitz matrix the backward vector (T_k g = e_k) is just
    # the reversed forward vector, which halves the recursion's work.
    x = np.zeros(n)
    forward = np.zeros(n)
    forward[0] = 1.0 / r[0]
    x[0] = b[0] / r[0]
    for k in range(1, n):
        prev = forward[:k]
        reversed_lags = r[k:0:-1]  # [r[k], r[k-1], ..., r[1]]
        # Error of the zero-extended forward vector against the new last row.
        eps_f = float(reversed_lags @ prev)
        denominator = 1.0 - eps_f * eps_f
        if denominator == 0.0:
            raise np.linalg.LinAlgError(
                "Toeplitz matrix is singular at order %d" % (k + 1)
            )
        scale = 1.0 / denominator
        new_forward = np.empty(k + 1)
        new_forward[:k] = scale * prev
        new_forward[k] = 0.0
        new_forward[1:] -= (eps_f * scale) * prev[::-1]
        # Error of the zero-extended solution, then correct along the
        # backward vector (the reversed forward vector).
        eps_x = float(reversed_lags @ x[:k])
        x[:k + 1] += (b[k] - eps_x) * new_forward[::-1]
        forward[:k + 1] = new_forward
    return x


def solve_symmetric_toeplitz(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a symmetric Toeplitz system with the Levinson recursion.

    Uses SciPy's compiled Levinson solver when available, otherwise the
    pure-NumPy :func:`levinson_solve`.
    """
    if _scipy_levinson is not None:
        r = np.asarray(r, dtype=float).ravel()
        b = np.asarray(b, dtype=float).ravel()
        # Same layout solve_toeplitz builds internally: reversed first row
        # (minus its head) concatenated with the first column.
        vals = np.concatenate((r[-1:0:-1], r))
        solution, _ = _scipy_levinson(vals, b)
        return np.asarray(solution, dtype=float)
    if _scipy_solve_toeplitz is not None:
        return np.asarray(_scipy_solve_toeplitz((r, r), b), dtype=float)
    return levinson_solve(r, b)
