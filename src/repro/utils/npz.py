"""Fail-closed reading of ``.npz`` archives."""

from __future__ import annotations

import tokenize
import zipfile
import zlib

import numpy as np

#: What the zip and ``.npy`` readers raise on a damaged archive: single-bit
#: flips and truncations of saved archives raise each of these.
_DAMAGE_ERRORS = (
    EOFError, KeyError, NotImplementedError, OSError, RuntimeError,
    ValueError, tokenize.TokenError, zipfile.BadZipFile, zlib.error,
)


def read_npz(source, what: str) -> dict[str, np.ndarray]:
    """Every array of the ``.npz`` archive ``source`` (a path or a binary
    file), read eagerly.

    Whatever the readers raise on damage becomes :class:`ValueError`, whose
    message names ``what``.
    """
    try:
        with np.load(source, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    except _DAMAGE_ERRORS as error:
        raise ValueError(
            f"corrupt or unreadable {what}: {type(error).__name__}: {error}"
        ) from error
