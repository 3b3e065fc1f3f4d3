"""Analysis helpers used by the result tables, the figure validation and examples."""

from repro.analysis.ber import bpsk_ber_theoretical, q_function
from repro.analysis.metrics import format_table

__all__ = [
    "q_function",
    "bpsk_ber_theoretical",
    "format_table",
]
