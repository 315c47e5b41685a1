"""Per-column statistics for the optimizer, per-zone summaries for scans.

The column statistics are the classical optimizer ones: row and null
counts, min/max and distinct counts.  The selectivity estimators
implement the textbook uniformity assumptions (min/max interpolation)
and are deliberately simple; the point of the exploration work in the
paper is precisely that such static statistics are insufficient for
ad-hoc workloads, which the adaptive components then address.  For the
same reason nothing here is built before someone reads it: a scan
builds its zone map (:class:`ZoneMap`, kept on the table's catalog
state, where a write re-summarises only the zones it touched), and a
column's entry is built when the optimizer reads it
(:class:`TableStatistics`, from ``Database.statistics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection, Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.table import Table
from repro.engine.types import DataType


@dataclass
class ColumnStatistics:
    """Summary statistics of one column."""

    dtype: DataType
    row_count: int
    null_count: int
    distinct_count: int
    min_value: Any = None
    max_value: Any = None

    @classmethod
    def from_column(cls, column: Column) -> "ColumnStatistics":
        """Compute statistics for a column."""
        return cls(
            dtype=column.dtype,
            row_count=len(column),
            null_count=column.null_count(),
            distinct_count=column.distinct_count(),
            min_value=column.min(),
            max_value=column.max(),
        )

    # -- selectivity estimation ---------------------------------------------------

    def _bounds_known(self) -> bool:
        """True when min/max bound the values: present and not NaN (a
        FLOAT64 column holding a NaN has NaN bounds, which bound nothing)."""
        lo, hi = self.min_value, self.max_value
        return lo is not None and lo == lo and hi == hi

    def estimate_equality_selectivity(self, value: Any = None) -> float:
        """Fraction of rows expected to equal a point value (1/NDV)."""
        if self.row_count == 0 or self.distinct_count == 0:
            return 0.0
        if (
            value is not None
            and self.dtype.is_numeric
            and self._bounds_known()
            and not (self.min_value <= value <= self.max_value)
        ):
            return 0.0
        return 1.0 / self.distinct_count

    def estimate_range_selectivity(
        self, low: float | None, high: float | None
    ) -> float:
        """Fraction of rows expected inside ``[low, high]``.

        A linear interpolation between min and max.  Non-numeric columns
        and unknown bounds fall back to 1/3 (the classical System R
        default).
        """
        if self.row_count == 0:
            return 0.0
        if not self.dtype.is_numeric or not self._bounds_known():
            return 1.0 / 3.0
        lo = float(self.min_value) if low is None else float(low)
        hi = float(self.max_value) if high is None else float(high)
        if hi < lo:
            return 0.0
        span = float(self.max_value) - float(self.min_value)
        if span <= 0:
            return 1.0 if lo <= float(self.min_value) <= hi else 0.0
        clipped_lo = max(lo, float(self.min_value))
        clipped_hi = min(hi, float(self.max_value))
        if clipped_hi < clipped_lo:
            return 0.0
        return (clipped_hi - clipped_lo) / span


@dataclass
class ColumnZones:
    """Per-zone summaries of one numeric column.

    ``mins``/``maxs`` stay in the column's native dtype (an int64 bound
    cast to float64 could round across a probe value) and cover valid,
    non-NaN values only; a zone with none has ``real_counts`` 0 and
    meaningless bounds.  ``null_counts``/``nan_counts`` record how many
    rows carry no comparable value.  NULL/NaN rows never satisfy a range
    probe, so min/max disproof stays sound; proving a zone *passes*
    additionally requires both counts to be zero.
    """

    mins: np.ndarray
    maxs: np.ndarray
    real_counts: np.ndarray
    null_counts: np.ndarray
    nan_counts: np.ndarray


@dataclass
class ZoneMap:
    """Zone (a.k.a. morsel-granular) min/max/null summaries of a table.

    Zones are contiguous ``zone_rows``-sized row ranges; the last zone may
    be short.  Only numeric columns are summarised — string predicates go
    through dictionary codes instead.  A map the catalog keeps summarises
    every numeric column of its main in every zone (a map of no zone
    holds none).  Every map is made by :meth:`resummarised` — built,
    extended over appended rows or patched after an UPDATE — and every
    zone summary by :func:`summarise_zone`.
    """

    zone_rows: int
    row_count: int
    columns: dict[str, ColumnZones] = field(default_factory=dict)

    @property
    def num_zones(self) -> int:
        if self.zone_rows <= 0 or self.row_count == 0:
            return 0
        return (self.row_count + self.zone_rows - 1) // self.zone_rows

    def zone_bounds(self, zone: int) -> tuple[int, int]:
        """Row range ``[start, stop)`` of one zone."""
        start = zone * self.zone_rows
        return start, min(start + self.zone_rows, self.row_count)

    def column(self, name: str) -> ColumnZones | None:
        """Zone summaries for one column, or None when not summarised."""
        return self.columns.get(name)

    @classmethod
    def from_table(cls, table: Table, zone_rows: int) -> "ZoneMap":
        """Summarise every numeric column of ``table`` zone by zone."""
        return cls(zone_rows, 0).resummarised(table)

    def resummarised(
        self, table: Table, rows: Sequence[int] = (), columns: Collection[str] | None = None
    ) -> "ZoneMap":
        """This map over ``table``: the rows it summarised, values changed
        in place or not, then any rows appended.

        The zones holding the positions ``rows`` are summarised again in
        ``columns`` (default every numeric column), and when rows were
        appended so is every zone of every numeric column past this
        map's whole zones.  A column with no zone to summarise keeps its
        :class:`ColumnZones` object.
        """
        n = table.num_rows
        fresh = ZoneMap(self.zone_rows, n, dict(self.columns))
        num_zones = fresh.num_zones
        if not num_zones:
            return fresh
        appended = range(
            self.row_count // self.zone_rows if n > self.row_count else num_zones, num_zones
        )
        zones = np.unique(np.asarray(rows, np.int64) // self.zone_rows)
        for name in table.column_names:
            column = table.column(name)
            if not column.dtype.is_numeric:
                continue
            listed = zones if columns is None or name in columns else ()
            touched = sorted({*listed, *appended})
            if not touched:
                continue
            data, validity = column.data, column.validity
            mins, maxs, reals, nulls, nans = parts = [
                np.zeros(num_zones, dtype) for dtype in (data.dtype, data.dtype) + _COUNTS
            ]
            old = self.columns.get(name)
            if old is not None:  # whole old zones first; only ``touched`` ones change
                for part, kept in zip(parts, vars(old).values()):
                    part[: len(kept)] = kept
            for zone in touched:
                mins[zone], maxs[zone], reals[zone], nulls[zone], nans[zone] = summarise_zone(
                    data, validity, *fresh.zone_bounds(zone)
                )
            fresh.columns[name] = ColumnZones(*parts)
        return fresh


#: the dtypes of a :class:`ColumnZones`' three counts
_COUNTS = (np.int64,) * 3


def summarise_zone(
    data: np.ndarray, validity: np.ndarray | None, start: int, stop: int
) -> tuple[Any, Any, int, int, int]:
    """Rows ``[start, stop)`` of a numeric column's payload and validity
    summarised as :class:`ColumnZones` keeps a zone: ``(min, max, real,
    null, nan)``, the bounds 0 when no value is real."""
    chunk = data[start:stop]
    nulls = nans = 0
    if validity is not None:
        valid = validity[start:stop]
        nulls = int((~valid).sum())
        chunk = chunk[valid]
    if chunk.dtype.kind == "f":
        nan = np.isnan(chunk)
        if nan.any():
            nans = int(nan.sum())
            chunk = chunk[~nan]
    if not len(chunk):
        return 0, 0, 0, nulls, nans
    return chunk.min(), chunk.max(), len(chunk), nulls, nans


class TableStatistics:
    """Column statistics of one table, each entry built on first read.

    ``Database.statistics`` hands out one per table as queries see it
    (and per delta version), so an entry is a function of the table's
    current values alone and equals a rebuild from scratch; the
    optimizer's join reorder reads only its join keys, so no other
    column's entry is built.
    """

    def __init__(self, table: Table) -> None:
        self.table = table
        self.row_count = table.num_rows
        #: the entries built so far, by column name
        self.columns: dict[str, ColumnStatistics] = {}

    def column(self, name: str) -> ColumnStatistics | None:
        """Statistics for one column (built now if not yet read), or None
        if the table has no such column."""
        entry = self.columns.get(name)
        if entry is None and name in self.table.schema:
            entry = self.columns[name] = ColumnStatistics.from_column(self.table.column(name))
        return entry
