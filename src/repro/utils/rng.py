"""Deterministic random-number-generator handling.

Every stochastic component in the simulator (noise synthesis, channel
realizations, MAC backoff) accepts either an integer seed, an existing
:class:`numpy.random.Generator`, or ``None``.  Routing them all through
:func:`ensure_rng` keeps experiments reproducible and makes it easy to share
one generator across components when correlated draws are desired.
"""

from __future__ import annotations

import numpy as np


def ensure_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` for a fresh unpredictable generator, an ``int`` for a
        deterministic generator, or an existing generator which is returned
        unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
