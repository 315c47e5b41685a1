"""M4-style query-result reduction for line visualizations ([11]).

A line chart rendered on ``w`` pixel columns cannot show more detail than
4 values per column: the first, last, minimum and maximum of the points
falling in that column.  Reducing a long series to those 4·w rows is
visually lossless at the target width and shrinks transferred results by
orders of magnitude — the interactive-visualization optimisation the
tutorial covers under "dynamic reduction of query result sets".
"""

from __future__ import annotations

import numpy as np

from repro.engine import operators as ops


def m4_reduce(
    x: np.ndarray,
    y: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a series to at most ``4 * width`` points (M4).

    Args:
        x: monotonically plottable x values (e.g. timestamps).
        y: the measure.
        width: pixel columns of the target chart.

    Returns:
        (x, y) of the reduced series, in x order.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y):
        raise ValueError("x and y must have equal length")
    n = len(x)
    if n == 0 or width <= 0:
        return np.empty(0), np.empty(0)
    by_x = np.argsort(x, kind="stable")
    if n <= 4 * width:
        return x[by_x], y[by_x]
    # GROUP BY pixel column over the x-ordered rows: the kernel's sort is
    # stable, so every bucket stays in x order and its ends are its first
    # and last rows
    order, starts, counts = ops.group_ids(_pixels(x, width)[by_x], width)
    rows = by_x[order]
    bucket_y = y[rows]
    position = np.arange(n)
    picks = [starts, starts + counts - 1]  # each bucket's first and last row
    for extreme in (np.minimum, np.maximum):
        # ... and the first row at its min / max (if that is NaN, its first
        # NaN), which is the row np.argmin / np.argmax pick
        at_extreme = bucket_y == np.repeat(extreme.reduceat(bucket_y, starts), counts)
        hit = np.where(at_extreme | np.isnan(bucket_y), position, n)
        picks.append(np.minimum.reduceat(hit, starts))
    kept = rows[np.unique(np.concatenate(picks))]
    return x[kept], y[kept]


def _pixels(values: np.ndarray, size: int) -> np.ndarray:
    """The pixel (of ``size`` along the axis) each value falls in."""
    lo = float(values.min())
    span = float(values.max()) - lo or 1.0
    return np.clip(((values - lo) / span * size).astype(np.int64), 0, size - 1)


def _rasterise(x: np.ndarray, y: np.ndarray, width: int, height: int) -> np.ndarray:
    """Binary pixel matrix of the min-max envelope per pixel column."""
    image = np.zeros((width, height), dtype=bool)
    if len(x) == 0:
        return image
    columns = _pixels(x, width)
    order, starts, _ = ops.group_ids(columns, width)
    rows = _pixels(y, height)[order]
    lows = np.minimum.reduceat(rows, starts)[:, None]
    highs = np.maximum.reduceat(rows, starts)[:, None]
    heights = np.arange(height)
    image[columns[order[starts]]] = (lows <= heights) & (heights <= highs)
    return image


def reduction_error(
    x_full: np.ndarray,
    y_full: np.ndarray,
    x_reduced: np.ndarray,
    y_reduced: np.ndarray,
    width: int = 200,
    height: int = 100,
) -> float:
    """Fraction of differing pixels between full and reduced renderings.

    0.0 means the reduced series renders pixel-identically at the given
    raster size — M4's correctness claim at ``width`` matching the
    reduction width.
    """
    full = _rasterise(np.asarray(x_full, float), np.asarray(y_full, float), width, height)
    reduced = _rasterise(
        np.asarray(x_reduced, float), np.asarray(y_reduced, float), width, height
    )
    return float(np.mean(full != reduced))
