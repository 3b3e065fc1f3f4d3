"""Fixed-width text tables for reports and result sets."""

from __future__ import annotations


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
