"""Per-table delta stores: the batched write path.

Writes no longer rebuild the columnar main.  ``INSERT`` appends row
tuples to a small row-major :class:`DeltaStore`; ``DELETE`` marks
tombstones (a boolean mask over the main, a set over the delta) without
moving a single row.  Scans union the columnar main with the live delta
rows as a trailing morsel — the zone-map and dictionary fast paths keep
applying to the main, and the delta tail is evaluated directly (it is
bounded by the merge threshold, so it stays cache-sized).

When the write pressure (pending inserts + tombstones) reaches the
configured threshold (``PRAGMA delta_rows`` / ``REPRO_DELTA_ROWS``), a
*merge* folds the delta into a new columnar main.  The merge is
incremental where the structures allow it:

- **dictionary codes** — the merged STRING column's sorted dictionary is
  ``unique(old_dict ∪ tail_distinct)``; old codes are remapped with one
  gather through a ``searchsorted`` translation table and tail codes are
  assigned by ``searchsorted``, so the O(n log n) re-encode of the main
  payload never reruns;
- **zone maps** — on a pure append (no tombstones) only the trailing
  partial zone and the new zones are recomputed; complete old zones are
  spliced in unchanged;
- **statistics** — on a pure append the zone maps carry over extended;
  every column gained rows, so its statistics are recomputed at the next
  read, like the columns an UPDATE assigned.  A main's statistics always
  equal a rebuild; only the *effective* statistics of pending writes are
  absorbed approximately (:func:`effective_statistics`).

A merge with tombstones compacts row positions, so it drops positional
structures (registered indexes, cached zone maps/statistics) instead of
maintaining them — deletes are the rare case in an exploration workload.
Which of the two a merge was is decided in one place,
``Database._install`` (its docstring has the rule table); the values
derived from a store — tail table, effective table, effective
statistics — are cached on the store itself (:meth:`DeltaStore.cached`).

This is the "Updating a Cracked Database" [30] design promoted from the
:mod:`repro.indexing.updates` demo into the engine's real update path:
pending inserts and a pending-deletion set, merged when crossing a
threshold rather than eagerly per statement.

Durability (:mod:`repro.engine.wal`) treats the delta store as volatile:
what is logged is the *statement* that fed it, not the delta contents,
and each merge writes a marker record before folding.  Replay therefore
re-executes statements into a fresh delta store and merges exactly where
the markers say — merges change physical state only, so the recovered
logical contents are bit-identical whatever threshold was configured
when the log was written.

Out-of-core interaction (``PRAGMA storage=mmap``): the delta store
itself always stays in RAM — it is bounded by the merge threshold — but
the main it shadows may be a read-only memory map of checkpoint files.
Every write path here is already copy-on-write against the main
(:func:`assign_column` copies payload and validity before masked writes,
:func:`merged_table` builds fresh arrays through
:func:`~repro.engine.column.concat_columns`), so a mapped main is never
mutated in place; the catalog spills the merged image to a fresh live
directory (write-temp-then-rename) and remaps it instead of overwriting
the checkpoint bytes.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.column import Column, _null_fill_value, _wrap, concat_columns
from repro.engine.statistics import (
    ColumnStatistics,
    ColumnZones,
    TableStatistics,
    ZoneMap,
)
from repro.engine.table import Table
from repro.engine.types import DataType, python_value
from repro.errors import TypeMismatchError

class DeltaStore:
    """Pending writes against one table: inserted rows and tombstones.

    Inserted rows are row-major tuples in the main's column order; delta
    row ``i`` has the logical position ``main_rows + i``, so positions
    handed out by secondary indexes stay meaningful across appends.
    Deleted rows are never moved — main deletes flip a bit in a lazily
    allocated mask, delta deletes land in a set — so every surviving row
    keeps its position until the next merge compacts the table.

    The store also holds what is derived from it — the tail table, the
    effective table, the effective statistics (:meth:`cached`) — because
    it is the store's own :meth:`touch` that makes them stale, and a
    merge that replaces the store retires them with it.
    """

    __slots__ = ("main_rows", "rows", "dead_delta", "_dead_main", "version", "_derived")

    def __init__(self, main_rows: int) -> None:
        self.main_rows = main_rows
        self.rows: list[tuple[Any, ...]] = []
        self.dead_delta: set[int] = set()
        self._dead_main: np.ndarray | None = None
        #: bumped on every state change; keys the derived-value cache
        self.version = 0
        self._derived: dict[str, tuple[int, Any]] = {}

    # -- state -----------------------------------------------------------------------

    def is_clean(self) -> bool:
        """True when the main table alone is the whole truth."""
        return not self.rows and not self.dead_delta and self._dead_main is None

    @property
    def pending_inserts(self) -> int:
        return len(self.rows)

    @property
    def main_tombstones(self) -> int:
        return 0 if self._dead_main is None else int(self._dead_main.sum())

    @property
    def write_pressure(self) -> int:
        """Pending inserts + tombstones: what the merge threshold compares."""
        return len(self.rows) + self.main_tombstones + len(self.dead_delta)

    def touch(self) -> None:
        """Bump the version: any cache keyed on it is now stale."""
        self.version += 1

    def cached(self, slot: str, build: Callable[[], Any]) -> Any:
        """The derived value named ``slot``, built at most once per version.

        The value is stored under the version read *before* it was
        built, so a build that raced a write lands under the old version
        and is never served.
        """
        version = self.version
        entry = self._derived.get(slot)
        if entry is None or entry[0] != version:
            entry = self._derived[slot] = (version, build())
        return entry[1]

    # -- mutation --------------------------------------------------------------------

    def append(self, rows: Sequence[tuple[Any, ...]]) -> None:
        """Append pre-coerced row tuples (main column order)."""
        self.rows.extend(rows)
        self.touch()

    def mark_main_deleted(self, mask: np.ndarray) -> None:
        """Tombstone main rows where ``mask`` is True."""
        if not mask.any():
            return
        if self._dead_main is None:
            self._dead_main = np.zeros(self.main_rows, dtype=bool)
        self._dead_main |= mask
        self.touch()

    def mark_delta_deleted(self, indices: Sequence[int]) -> None:
        """Tombstone delta rows by delta-local index."""
        if not len(indices):
            return
        self.dead_delta.update(int(i) for i in indices)
        self.touch()

    # -- masks -----------------------------------------------------------------------

    def live_main_mask(self) -> np.ndarray | None:
        """True where a main row survives, or None when nothing was deleted."""
        if self._dead_main is None:
            return None
        return ~self._dead_main

    def live_delta_mask(self) -> np.ndarray | None:
        """True where a delta row survives, or None when nothing was deleted."""
        if not self.dead_delta:
            return None
        mask = np.ones(len(self.rows), dtype=bool)
        for i in self.dead_delta:
            if i < len(mask):
                mask[i] = False
        return mask

    def live_delta_count(self) -> int:
        """Number of pending rows that have not been tombstoned."""
        return len(self.rows) - len(self.dead_delta)


# -- typed coercion ------------------------------------------------------------------


def coerce_scalar(value: Any, dtype: DataType, column: str) -> Any:
    """One INSERT or UPDATE value, of a type bound assignable to ``dtype``,
    stored as ``dtype``: an int widens to FLOAT64; a float into INT64 must
    be integral — :class:`TypeMismatchError` instead of truncating it."""
    value = python_value(value)
    if dtype is DataType.FLOAT64 and value is not None:
        return float(value)
    if dtype is DataType.INT64 and isinstance(value, float):
        if not (np.isfinite(value) and value.is_integer()):
            raise TypeMismatchError(
                f"cannot store {value!r} in INT64 column {column!r} without losing precision"
            )
        return int(value)
    return value


def assign_column(old: Column, values: Column, mask: np.ndarray) -> Column:
    """``old`` with ``values`` written into the rows where ``mask`` is True.

    The vectorised UPDATE kernel: payload and validity are copied once
    and patched in place.  The values' type is already bound
    :func:`~repro.engine.types.assignable`; as in :func:`coerce_scalar`,
    a fractional float into INT64 raises :class:`TypeMismatchError`.
    """
    target = old.dtype
    new_validity = old.validity.copy() if old.validity is not None else np.ones(len(old), bool)
    values_valid = values.validity if values.validity is not None else np.ones(len(values), bool)
    new_validity[mask] = values_valid[mask]

    data = old.data.copy()
    write = mask & values_valid
    incoming = values.data[write]
    if target is DataType.INT64 and values.dtype is DataType.FLOAT64 and not (
        np.isfinite(incoming).all() and np.equal(np.floor(incoming), incoming).all()
    ):
        raise TypeMismatchError(
            "UPDATE would store fractional FLOAT64 values in an INT64 "
            "column; cast explicitly or change the column type"
        )
    data[write] = incoming
    # park the null fill in newly nulled slots so the payload stays harmless
    data[mask & ~values_valid] = _null_fill_value(target)
    return _wrap(data, target, new_validity)


# -- tail materialisation and merge ---------------------------------------------------


def tail_table(store: DeltaStore, main: Table) -> Table:
    """All delta rows (dead ones included, for position stability) as a
    columnar table with the main's schema."""
    rows = list(store.rows)  # snapshot: appends may race a reader
    columns = []
    for j, name in enumerate(main.column_names):
        dtype = main.schema.type_of(name)
        values = [row[j] for row in rows]
        columns.append((name, Column(values, dtype=dtype)))
    return Table(columns)


def merged_table(main: Table, tail: Table, store: DeltaStore) -> Table:
    """The effective table: live main rows followed by live delta rows.

    Dictionary-encoded STRING columns keep their encoding (maintained
    incrementally by :func:`~repro.engine.column.concat_columns`).  This
    is both what :meth:`Database.get_table` hands out while the delta is
    dirty and the new main a merge installs; scans never build it — they
    read the main and the tail in place.
    """
    live_main = store.live_main_mask()
    live_delta = store.live_delta_mask()
    columns = []
    for name in main.column_names:
        base = main.column(name)
        if live_main is not None:
            base = base.filter(live_main)
        t = tail.column(name)
        if live_delta is not None:
            t = t.filter(live_delta)
        columns.append((name, concat_columns([base, t])))
    return Table(columns)


def extend_zone_map(old: ZoneMap, table: Table) -> ZoneMap:
    """Zone map of ``table`` given the map of its prefix (pure append only).

    Complete old zones are reused verbatim; only the trailing partial
    zone and the appended rows are re-summarised.
    """
    zone_rows = old.zone_rows
    n = table.num_rows
    if zone_rows <= 0 or old.row_count == n:
        return old
    keep = old.row_count // zone_rows  # complete zones to splice in unchanged
    start = keep * zone_rows
    fresh = ZoneMap.from_table(table.slice(start, n), zone_rows)
    merged = ZoneMap(zone_rows=zone_rows, row_count=n)
    for name, zones in old.columns.items():
        new_zones = fresh.columns.get(name)
        if new_zones is None:
            continue
        merged.columns[name] = ColumnZones(
            mins=np.concatenate([zones.mins[:keep], new_zones.mins]),
            maxs=np.concatenate([zones.maxs[:keep], new_zones.maxs]),
            real_counts=np.concatenate([zones.real_counts[:keep], new_zones.real_counts]),
            null_counts=np.concatenate([zones.null_counts[:keep], new_zones.null_counts]),
            nan_counts=np.concatenate([zones.nan_counts[:keep], new_zones.nan_counts]),
        )
    return merged


def _absorb_column(
    main: ColumnStatistics, tail: ColumnStatistics, row_count: int
) -> ColumnStatistics:
    """Main-column statistics absorbed with an O(delta) tail summary.

    Row/null counts and min/max combine exactly (min/max conservatively
    under tombstones — a superset's bounds stay sound); the distinct
    count is a ``max()`` lower bound; the histogram keeps the main's
    bounds (stale for appended out-of-range values, still sound for the
    clamped estimators).
    """

    def _combine(a: Any, b: Any, pick: Any) -> Any:
        if a is None:
            return b
        if b is None:
            return a
        return pick(a, b)

    return ColumnStatistics(
        dtype=main.dtype,
        row_count=row_count,
        null_count=main.null_count + tail.null_count,
        distinct_count=max(main.distinct_count, tail.distinct_count),
        min_value=_combine(main.min_value, tail.min_value, min),
        max_value=_combine(main.max_value, tail.max_value, max),
        bucket_bounds=main.bucket_bounds,
        bucket_counts=main.bucket_counts,
    )


def effective_statistics(
    main_stats: TableStatistics, live_tail: Table, dead_main: int
) -> TableStatistics:
    """Statistics of main + live delta, absorbed without touching the main."""
    row_count = main_stats.row_count - dead_main + live_tail.num_rows
    tail_stats = TableStatistics.from_table(live_tail)
    columns = {}
    for name, stats in main_stats.columns.items():
        tail_col = tail_stats.column(name)
        if tail_col is None:
            columns[name] = stats
            continue
        columns[name] = _absorb_column(stats, tail_col, row_count)
    return TableStatistics(row_count=row_count, columns=columns)


def extend_statistics(main_stats: TableStatistics, merged_main: Table) -> TableStatistics:
    """Post-merge statistics seeded from the pre-merge main statistics.

    Pure-append only.  Every cached zone map is extended incrementally —
    a complete zone summarises rows the merge did not touch.  Every
    column gained rows, so no column entry carries over: the next read
    completes them (:meth:`TableStatistics.from_table` with ``reuse=``),
    exactly as after an UPDATE, so the result equals a rebuild.
    """
    extended = TableStatistics(row_count=merged_main.num_rows)
    for zone_rows, zones in main_stats.zone_maps.items():
        extended.zone_maps[zone_rows] = extend_zone_map(zones, merged_main)
    return extended
