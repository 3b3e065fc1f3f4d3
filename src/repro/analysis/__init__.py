"""Analysis helpers used by the result tables, the figure validation and examples."""

from repro.analysis.ber import bpsk_ber_theoretical, q_function, snr_for_target_ber
from repro.analysis.metrics import format_table, per_to_percent

__all__ = [
    "q_function",
    "bpsk_ber_theoretical",
    "snr_for_target_ber",
    "per_to_percent",
    "format_table",
]
