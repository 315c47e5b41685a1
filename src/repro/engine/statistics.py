"""Per-column statistics for the optimizer, per-zone summaries for scans.

The column statistics are the classical optimizer ones: row and null
counts, min/max and distinct counts.  The selectivity estimators
implement the textbook uniformity assumptions (min/max interpolation)
and are deliberately simple; the point of the exploration work in the
paper is precisely that such static statistics are insufficient for
ad-hoc workloads, which the adaptive components then address.  For the
same reason nothing here is built before someone reads it: a scan
builds its zone map (:class:`ZoneMap`, kept on the table's catalog
state), and a column's entry is built when the optimizer reads it
(:class:`TableStatistics`, from ``Database.statistics``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Collection

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
    through dictionary codes instead.  ``complete`` records that every
    numeric column is: ``Database.zone_map`` serves such a map as it is,
    and completes any other (a write dropped summaries, or a checkpoint
    restored it) through :meth:`from_table` with ``reuse=``.
    """

    zone_rows: int
    row_count: int
    columns: dict[str, ColumnZones] = field(default_factory=dict)
    complete: bool = False

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
    def from_table(
        cls, table: Table, zone_rows: int, reuse: "ZoneMap | None" = None
    ) -> "ZoneMap":
        """Summarise every numeric column of ``table`` zone by zone.

        ``reuse`` — a map of this same table at this granularity that may
        lack some columns — lends the summaries it has: only the columns
        it lacks are computed.
        """
        n = table.num_rows
        zone_map = cls(zone_rows=zone_rows, row_count=n, complete=True)
        if zone_rows <= 0 or n == 0:
            return zone_map
        known = {} if reuse is None else reuse.columns
        starts = range(0, n, zone_rows)
        num_zones = zone_map.num_zones
        for name in table.column_names:
            column = table.column(name)
            if not column.dtype.is_numeric:
                continue
            if name in known:
                zone_map.columns[name] = known[name]
                continue
            data = column.data
            validity = column.validity
            mins = np.zeros(num_zones, dtype=data.dtype)
            maxs = np.zeros(num_zones, dtype=data.dtype)
            real_counts = np.zeros(num_zones, dtype=np.int64)
            null_counts = np.zeros(num_zones, dtype=np.int64)
            nan_counts = np.zeros(num_zones, dtype=np.int64)
            is_float = data.dtype.kind == "f"
            for zone, start in enumerate(starts):
                stop = min(start + zone_rows, n)
                chunk = data[start:stop]
                if validity is not None:
                    valid = validity[start:stop]
                    null_counts[zone] = int((~valid).sum())
                    chunk = chunk[valid]
                if is_float:
                    nan = np.isnan(chunk)
                    if nan.any():
                        nan_counts[zone] = int(nan.sum())
                        chunk = chunk[~nan]
                real_counts[zone] = len(chunk)
                if len(chunk):
                    mins[zone] = chunk.min()
                    maxs[zone] = chunk.max()
            zone_map.columns[name] = ColumnZones(
                mins, maxs, real_counts, null_counts, nan_counts
            )
        return zone_map

    def without(self, names: Collection[str]) -> "ZoneMap":
        """This map over the same rows lacking the summaries of ``names``;
        every other summary is the same object."""
        kept = {name: zones for name, zones in self.columns.items() if name not in names}
        return ZoneMap(
            self.zone_rows, self.row_count, kept, self.complete and len(kept) == len(self.columns)
        )


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
