"""Summary statistics the ledger reports: percentiles, quartile spread."""

from __future__ import annotations

import statistics
from typing import Sequence

import numpy as np

#: percentiles the ledger is willing to report, ascending
_LADDER = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile (linear interpolation) of ``values``."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def supported_percentile(samples: int) -> float:
    """Highest reportable percentile with at least ten samples beyond it.

    This is the choosing-metrics rule: a p99 over 300 samples rests on
    three observations and is noise; the ledger prints this next to
    every tail it reports so a reader can see when a run was too short.
    """
    best = _LADDER[0]
    for p in _LADDER:
        if samples * (1.0 - p / 100.0) >= 10.0:
            best = p
    return best


def quartile_summary(values: Sequence[float]) -> tuple[float, float, float, float]:
    """``(q1, median, q3, spread)`` with spread = (q3 - q1) / median.

    Quartiles are ``statistics.quantiles(values, n=4)`` — the same
    definition the PR driver applies to ten seeds.  A single value has
    no spread.
    """
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(median) if median else 0.0
    return q1, median, q3, spread
