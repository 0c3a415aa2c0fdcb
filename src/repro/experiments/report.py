"""Rendering figure series as the printed rows the paper's plots encode.

Each figure becomes one table per panel (overall + the four strata),
with one row per (mechanism, α) series and one column per ε — the same
series a reader traces in the published plots.
"""

from __future__ import annotations

import math

from repro.engine.points import FigureSeries, SeriesPoint
from repro.metrics.strata import STRATUM_LABELS
from repro.util import format_float, format_table

PANELS = ("overall",) + STRATUM_LABELS


def _point_value(point: SeriesPoint, panel_index: int) -> float:
    if panel_index == 0:
        return point.overall
    return point.by_stratum[panel_index - 1]


def _series_key(point: SeriesPoint) -> tuple:
    if point.theta is not None:
        return (point.mechanism, f"theta={point.theta}")
    return (point.mechanism, f"alpha={point.alpha}")


def render_panel(series: FigureSeries, panel_index: int) -> str:
    """One panel (overall or a stratum) as an ε-column table."""
    epsilons = sorted({p.epsilon for p in series.points})
    keys = []
    for point in series.points:
        key = _series_key(point)
        if key not in keys:
            keys.append(key)

    value_of = {}
    for point in series.points:
        value_of[(_series_key(point), point.epsilon)] = _point_value(
            point, panel_index
        )

    rows = []
    for key in keys:
        row = [key[0], key[1]]
        for epsilon in epsilons:
            value = value_of.get((key, epsilon), float("nan"))
            row.append("-" if isinstance(value, float) and math.isnan(value) else format_float(value))
        rows.append(row)
    headers = ["mechanism", "series"] + [f"eps={e:g}" for e in epsilons]
    title = f"{series.title} [{PANELS[panel_index]}] ({series.metric})"
    return format_table(headers=headers, rows=rows, title=title)


def render_figure(series: FigureSeries, panels: tuple[int, ...] = (0, 1, 2, 3, 4)) -> str:
    """All requested panels of a figure, separated by blank lines."""
    return "\n\n".join(render_panel(series, panel) for panel in panels)


def summarize_finding(series: FigureSeries, epsilon: float, alpha: float) -> dict:
    """The (overall) values of every mechanism at one grid point."""
    values = {}
    for point in series.points:
        if point.epsilon == epsilon and point.alpha == alpha:
            values[point.mechanism] = point.overall
    return values
