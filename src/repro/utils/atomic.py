"""Crash-safe file writes: a reader sees the old file or the new one.

:func:`atomic_write` is the one way the package writes a file in place --
cache entries, job manifests and progress records, ``.npz`` artifacts,
VALID envelopes and validation reports, traces, fault schedules and the
CLI's ``--json`` output.  It writes a uniquely named temporary file in the
target's directory and renames it over the target with :func:`os.replace`
once the write has finished, so a crash or an exception mid-write leaves
the previous file byte for byte, and two processes writing one path each
land a complete file (the last rename wins).  Nothing is fsynced: the
rename orders the write for other processes, not across a power cut.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import secrets
from typing import IO, Iterator

#: Flags of the temporary file: created fresh, never shared.
_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)


@contextlib.contextmanager
def atomic_write(path, binary: bool = False) -> Iterator[IO]:
    """Open a handle whose contents replace ``path`` when the block ends.

    The handle is UTF-8 text, or bytes with ``binary=True``.  Missing
    parent directories are created.  If the block raises, the temporary
    file is removed and ``path`` is left as it was; a killed process can
    leave a ``.<name>.<token>.tmp`` file beside it, which no reader opens.
    """
    path = pathlib.Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        fd = os.open(temp, _FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(temp, _FLAGS, 0o666)
    try:
        with open(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise
