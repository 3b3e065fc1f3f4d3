"""Argument validation helpers shared across the package.

The simulator configuration surface is large (dozens of numeric parameters).
Raising clear errors at construction time is much cheaper than debugging a
NaN that surfaces three modules later.
"""

from __future__ import annotations

import math
from typing import Any


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value`` is strictly positive."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_one_of(value: Any, options: tuple, name: str) -> Any:
    """Raise ``ValueError`` unless ``value`` is one of ``options``."""
    if value not in options:
        raise ValueError(f"{name} must be one of {options}, got {value!r}")
    return value


# Readers of on-disk documents (fault schedules, traces) take each field
# through one of these, so a corrupt file fails with ``ValueError`` at
# load time instead of a ``TypeError`` or a NaN surfacing mid-run.
def require_finite(value: Any, name: str) -> float:
    """``value`` as a float; ``ValueError`` unless it is a finite number.

    Booleans and strings are refused, not converted.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def require_real(value: Any, name: str) -> float:
    """``value`` as a float; ``ValueError`` unless it is a number.

    NaN and the infinities are accepted; booleans, strings and integers
    too large for a float are refused.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"{name} must be a number, got {value!r}")


def require_int(value: Any, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is an integer.

    A float with an integral value is accepted; booleans are refused.
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def require_count(value: Any, name: str) -> int:
    """``value`` as an int; ``ValueError`` unless it is a non-negative integer."""
    count = require_int(value, name)
    if count < 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return count


def require_bool(value: Any, name: str) -> bool:
    """``value`` itself; ``ValueError`` unless it is a boolean."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be a boolean, got {value!r}")
    return value


def require_str(value: Any, name: str) -> str:
    """``value`` itself; ``ValueError`` unless it is a string."""
    if not isinstance(value, str):
        raise ValueError(f"{name} must be a string, got {value!r}")
    return value


def require_dict(value: Any, name: str) -> dict:
    """``value`` itself; ``ValueError`` unless it is a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


def require_list(value: Any, name: str) -> list:
    """``value`` itself; ``ValueError`` unless it is a JSON array."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array, got {type(value).__name__}")
    return value
