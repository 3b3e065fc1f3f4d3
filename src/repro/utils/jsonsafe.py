"""The NaN <-> ``null`` JSON convention, in one place.

Result records (:mod:`repro.experiments.records`) and validation
summaries (:mod:`repro.validation.stats`) both persist floats that can
legitimately be NaN (no band ever selected, no delivered packets).
``json.dumps`` would emit bare ``NaN`` tokens -- valid Python, invalid
JSON -- so every serializer maps NaN to ``None`` on the way out and back
on the way in.  Keeping the pair here means the strict-JSON guarantee
has exactly one owner.
"""

from __future__ import annotations

import math

from repro.utils.validation import require_finite


def nan_to_none(value):
    """Strict-JSON value: NaN becomes ``None``.

    Dictionaries, lists and tuples are converted element by element, so a
    whole report payload can be passed through before ``json.dump``.
    """
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if isinstance(value, dict):
        return {key: nan_to_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [nan_to_none(item) for item in value]
    return value


def none_to_nan(value, name: str = "value") -> float:
    """Inverse of :func:`nan_to_none` for loaders: ``None`` reads as NaN.

    Anything else must be a finite number; ``ValueError`` otherwise.
    """
    return math.nan if value is None else require_finite(value, name)
