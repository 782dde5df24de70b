"""Small reporting helpers: statistics and paper-style ASCII tables."""

import math


def mean(values):
    """Arithmetic mean; 0.0 for an empty sequence."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def stdev(values):
    """Sample standard deviation; 0.0 below two samples."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    centre = mean(values)
    return math.sqrt(sum((v - centre) ** 2 for v in values) / (len(values) - 1))


def format_table(headers, rows, title=None):
    """Render a fixed-width table like the ones in the paper."""
    columns = [str(h) for h in headers]
    text_rows = [[_cell(value) for value in row] for row in rows]
    widths = [len(column) for column in columns]
    for row in text_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def line(cells):
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    parts = []
    if title:
        parts.append(title)
    parts.append(line(columns))
    parts.append("  ".join("-" * width for width in widths))
    parts.extend(line(row) for row in text_rows)
    return "\n".join(parts)


def _cell(value):
    if isinstance(value, float):
        return "{:.3f}".format(value)
    return str(value)
