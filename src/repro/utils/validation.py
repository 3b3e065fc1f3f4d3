"""Argument validation helpers shared across the package.

The simulator configuration surface is large (dozens of numeric parameters).
Raising clear errors at construction time is much cheaper than debugging a
NaN that surfaces three modules later.
"""

from __future__ import annotations

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
