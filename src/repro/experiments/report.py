"""Plain-text tables and series charts for experiment output.

The paper's artifacts are figures; a terminal reproduction renders the
same data as aligned tables and simple horizontal bar charts, which is
what the ``repro`` subcommands print.
"""

from __future__ import annotations

from typing import List, Mapping, Sequence

from repro.errors import ExperimentError

__all__ = ["render_table", "render_bars", "format_ms", "format_ci"]


def format_ms(seconds: float, digits: int = 2) -> str:
    """Format a latency in milliseconds with a unit suffix."""
    return f"{seconds * 1e3:.{digits}f}ms"


def format_ci(lo: float, hi: float, digits: int = 2) -> str:
    """Format a confidence interval as ``[lo, hi]`` (pre-scaled values)."""
    if hi < lo:
        raise ExperimentError(f"interval upper bound {hi} below lower {lo}")
    return f"[{lo:.{digits}f}, {hi:.{digits}f}]"


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table."""
    if not headers:
        raise ExperimentError("table needs headers")
    str_rows = [[str(c) for c in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row width {len(row)} != header width {len(headers)}"
            )
    widths = [
        max(len(h), *(len(r[i]) for r in str_rows)) if str_rows else len(h)
        for i, h in enumerate(headers)
    ]
    sep = "-+-".join("-" * w for w in widths)
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_bars(
    values: Mapping[str, float],
    title: str = "",
    width: int = 50,
    unit: str = "",
    log: bool = False,
) -> str:
    """Render a labelled horizontal bar chart (terminal 'figure').

    ``log=True`` scales bars by log10, which keeps the RED-5 blow-ups
    of Fig. 6 on the same axis as PCS.
    """
    if not values:
        raise ExperimentError("no values to chart")
    if width < 1:
        raise ExperimentError("width must be >= 1")
    import math

    vals = dict(values)
    if any(v < 0 for v in vals.values()):
        raise ExperimentError("bar values must be >= 0")
    if log:
        floor = min(v for v in vals.values() if v > 0) if any(vals.values()) else 1.0
        scale_of = {
            k: (math.log10(v / floor) + 1.0 if v > 0 else 0.0)
            for k, v in vals.items()
        }
    else:
        scale_of = vals
    top = max(scale_of.values()) or 1.0
    label_w = max(len(k) for k in vals)
    lines = [title] if title else []
    for key, value in vals.items():
        bar = "#" * max(1 if value > 0 else 0, int(round(scale_of[key] / top * width)))
        lines.append(f"{key.ljust(label_w)} | {bar} {value:.4g}{unit}")
    return "\n".join(lines)
