"""Corruptions for the fail-closed reader tests.

Two kinds, following the job-file test in ``test_service.py``: damaged
bytes (one flipped bit, or the file cut short), and a JSON document with
one field replaced by any JSON value or removed.  Bit flips rarely reach
the values a reader must refuse -- ``NaN``, ``null``, a string where a
number belongs -- so the field corruptions draw them directly.
"""

from __future__ import annotations

import json

from hypothesis import strategies as st

#: Marks a field to remove instead of replace.
DELETE = object()

#: Any JSON value Python's ``json`` reads, NaN and the infinities included,
#: or :data:`DELETE`.
FIELD_VALUES = st.one_of(
    st.just(DELETE),
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
)

#: Arguments of :func:`damage_bytes`.
BYTE_DAMAGE = dict(
    flip=st.booleans(),
    where=st.floats(min_value=0.0, max_value=1.0),
    bit=st.integers(min_value=0, max_value=7),
)


def damage_bytes(original: bytes, flip: bool, where: float, bit: int) -> bytes:
    """``original`` with bit ``bit`` flipped at fraction ``where`` of its
    length, or cut short there."""
    index = min(int(where * len(original)), len(original) - 1)
    if not flip:
        return original[:index]
    corrupt = bytearray(original)
    corrupt[index] ^= 1 << bit
    return bytes(corrupt)


def json_paths(document, depth: int, prefix: tuple = ()) -> list[tuple]:
    """Paths (object keys and list indices) to every value of ``document``
    at most ``depth`` levels down."""
    if depth == 0:
        return []
    if isinstance(document, dict):
        items = document.items()
    elif isinstance(document, list):
        items = enumerate(document)
    else:
        return []
    paths = []
    for key, value in items:
        path = prefix + (key,)
        paths.append(path)
        paths.extend(json_paths(value, depth - 1, path))
    return paths


def replace_at(document, path: tuple, value):
    """A copy of ``document`` with the value at ``path`` replaced by
    ``value``, or removed when ``value`` is :data:`DELETE`."""
    copy = json.loads(json.dumps(document))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return copy
