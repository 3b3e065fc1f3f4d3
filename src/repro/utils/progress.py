"""Progress-line output shared by long-running loops.

Sweeps, PHY calibration and network runs all take a ``progress=``
argument with the same meaning; :func:`progress_sink` resolves it in one
place.
"""

from __future__ import annotations

import sys
from typing import Callable


def progress_sink(
    progress: bool | Callable[[str], None] | None,
) -> Callable[[str], None] | None:
    """The line sink a ``progress=`` argument asks for.

    ``True`` prints each line to stderr, a callable receives each line
    itself, and ``False``/``None`` mean no progress output (``None`` is
    returned, so callers can skip formatting lines nobody reads).
    """
    if progress is True:
        return lambda line: print(line, file=sys.stderr)
    if callable(progress):
        return progress
    return None
