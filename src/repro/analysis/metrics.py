"""Small formatting and metric helpers for reports and result tables."""

from __future__ import annotations

import numpy as np


def per_to_percent(per: float) -> str:
    """Format a packet error rate as a percentage string."""
    if not np.isfinite(per):
        return "n/a"
    return f"{100.0 * per:.1f}%"


def format_table(headers: list[str], rows: list[list[object]]) -> str:
    """Render a simple fixed-width text table (result sets, CLI reports)."""
    columns = [headers] + [[str(cell) for cell in row] for row in rows]
    widths = [max(len(row[i]) for row in columns) for i in range(len(headers))]
    lines = []
    header_line = "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        cells = [str(cell).ljust(widths[i]) for i, cell in enumerate(row)]
        lines.append("  ".join(cells))
    return "\n".join(lines)


def geometric_mean(values: list[float] | np.ndarray) -> float:
    """Geometric mean, ignoring non-positive entries."""
    values = np.asarray(values, dtype=float)
    values = values[values > 0]
    if values.size == 0:
        return float("nan")
    return float(np.exp(np.mean(np.log(values))))
