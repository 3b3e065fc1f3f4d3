"""Small shared utilities: unit conversions, RNG handling, validation, atomic writes."""

from repro.utils.atomic import atomic_write
from repro.utils.rng import ensure_rng
from repro.utils.units import db_to_amplitude_ratio, power_ratio_to_db
from repro.utils.validation import require_positive

__all__ = [
    "atomic_write",
    "ensure_rng",
    "power_ratio_to_db",
    "db_to_amplitude_ratio",
    "require_positive",
]
