"""Per-table delta stores: the batched write path.

Writes no longer rebuild the columnar main.  ``INSERT`` checks and
coerces its VALUES a column at a time (:func:`insert_columns`) and
appends them as one typed batch to a :class:`DeltaStore`, which keeps a
growable payload + validity buffer per column; ``DELETE`` marks
tombstones (a boolean mask over the main, another over the delta, each
with a maintained count) without moving a single row.  Scans union the
columnar main with the live delta rows as a trailing morsel — the
zone-map and dictionary fast paths keep applying to the main, and the
delta tail, zero-copy views of the buffers (:func:`tail_table`), is
evaluated directly (it is bounded by the merge threshold, so it stays
cache-sized).

When the write pressure (pending inserts + tombstones) reaches the
configured threshold (``PRAGMA delta_rows`` / ``REPRO_DELTA_ROWS``), a
*merge* folds the delta into a new columnar main.  The merge is
incremental where the structures allow it:

- **dictionary codes** — the tail is factorized and only its distinct
  values are placed in the main's sorted dictionary by ``searchsorted``;
  old codes are remapped with one gather through a translation table,
  so the main payload is never re-encoded;
- **zone maps** — on a pure append (no tombstones) only the trailing
  partial zone and the new zones are summarised; every whole old zone
  is kept (:meth:`~repro.engine.statistics.ZoneMap.resummarised`, the
  one kernel an UPDATE's patch and a first scan's build also run);
- **column statistics** are not maintained at all: they are built
  over the table as queries see it, per delta version, when the
  optimizer reads a column (``Database.statistics``), so they are
  exact with writes pending and after every merge.

A merge with tombstones compacts row positions, so it drops positional
structures (registered indexes, zone maps) instead of maintaining them
— deletes are the rare case in an exploration workload.  Which of the
two a merge was is decided in one place, ``Database._install`` (its
docstring has the rule table); the values derived from a store — tail
table, effective table, column statistics — are cached on the store
itself (:meth:`DeltaStore.cached`).

This is the "Updating a Cracked Database" [30] design promoted from the
:mod:`repro.indexing.updates` demo into the engine's real update path:
pending inserts and a pending-deletion set, merged when crossing a
threshold rather than eagerly per statement.

Durability (:mod:`repro.engine.wal`) treats the delta store as volatile:
what is logged is the *statement text* that fed it, not the delta contents,
and each merge writes a marker record before folding.  Replay therefore
re-executes statements into a fresh delta store and merges exactly where
the markers say — merges change physical state only, so the recovered
logical contents are bit-identical whatever threshold was configured
when the log was written.

Out-of-core interaction (``PRAGMA storage=mmap``): the delta store
itself always stays in RAM — it is bounded by the merge threshold — but
the main it shadows may be a read-only memory map of checkpoint files.
Every write path here is copy-on-write against the main and against a
tail already handed out (:func:`assign_column` copies payload and
validity before scattered writes, :meth:`DeltaStore.install_column` puts
the patched copy in new buffers, :func:`merged_table` builds fresh
arrays through :func:`~repro.engine.column.concat_columns`), so neither
a mapped main nor a reader's tail is mutated in place; the catalog
spills the merged image to a fresh live directory
(write-temp-then-rename) and remaps it instead of overwriting the
checkpoint bytes.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.engine.column import (
    Column,
    _null_fill_value,
    column_from_parts,
    compact_dictionary,
    concat_columns,
    merge_dictionaries,
)
from repro.engine.expressions import Expression, Literal, fold_constant
from repro.engine.planner import bind_expression
from repro.engine.statistics import ZoneMap
from repro.engine.table import Schema, Table
from repro.engine.types import DataType, assignable
from repro.errors import CatalogError, ReproError, TypeMismatchError


class DeltaStore:
    """Pending writes against one table: appended rows and tombstones.

    Appended rows live column by column in growable typed buffers — per
    column a payload array in the column's NumPy dtype (null slots hold
    its null fill) and a validity array, both grown geometrically and
    filled up to :attr:`length`.  Delta row ``i`` has the logical
    position ``main_rows + i``, so positions handed out by secondary
    indexes stay meaningful across appends.  Deleted rows are never
    moved — a main delete flips a bit in a lazily allocated mask over the
    main, a delta delete a bit in a bool buffer beside the columns — and
    both tombstone counts are maintained as the bits flip, so
    :attr:`write_pressure` reads three integers.

    A column buffer's filled prefix never changes in place: an append
    writes past it, growing copies it into a bigger buffer, and an UPDATE
    of pending rows installs a patched copy (:meth:`install_column`).  A
    tail table, whose columns are read-only views of the prefix
    (:func:`tail_table`), is therefore a snapshot its reader keeps; the
    live masks are handed out as copies.

    The store also holds what is derived from it — the tail table, the
    effective table, the column statistics (:meth:`cached`) — because
    it is the store's own :meth:`touch` that makes them stale, and a
    merge that replaces the store retires them with it.
    """

    __slots__ = (
        "main_rows", "schema", "length", "main_tombstones", "delta_tombstones",
        "_data", "_valid", "_dead_delta", "_dead_main", "version", "_derived", "_encoded",
    )

    def __init__(self, main: Table) -> None:
        self.main_rows = main.num_rows
        self.schema = main.schema
        self.length = 0
        self.main_tombstones = 0
        self.delta_tombstones = 0
        self._data = [np.empty(0, dtype.numpy_dtype) for dtype in main.schema.types]
        self._valid = [np.empty(0, bool) for _ in main.schema.types]
        self._dead_delta = np.empty(0, bool)
        self._dead_main: np.ndarray | None = None
        #: bumped on every state change; keys the derived-value cache
        self.version = 0
        self._derived: dict[str, tuple[int, Any]] = {}
        #: per STRING column, its rows encoded so far (:meth:`column`)
        self._encoded: dict[int, Column] = {}

    # -- state -----------------------------------------------------------------------

    def is_clean(self) -> bool:
        """True when the main table alone is the whole truth."""
        return not self.length and not self.main_tombstones

    @property
    def pending_inserts(self) -> int:
        return self.length

    @property
    def tombstones(self) -> int:
        """Deleted rows awaiting the merge, main and delta."""
        return self.main_tombstones + self.delta_tombstones

    @property
    def write_pressure(self) -> int:
        """Pending inserts + tombstones: what the merge threshold compares."""
        return self.length + self.tombstones

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

    def append(self, columns: Sequence[tuple[np.ndarray, np.ndarray | None]]) -> None:
        """Append one ``(payload, validity)`` batch per column, in main
        column order, already coerced to the column types (validity None
        when every value is valid)."""
        start = self.length
        stop = start + len(columns[0][0])
        if stop > len(self._dead_delta):
            self._grow(stop)
        for data_buffer, valid_buffer, (data, valid) in zip(self._data, self._valid, columns):
            data_buffer[start:stop] = data
            valid_buffer[start:stop] = True if valid is None else valid
        self._dead_delta[start:stop] = False
        self.length = stop  # last: a reader never sees a row half written
        self.touch()

    def _grow(self, needed: int) -> None:
        """Move every buffer to one at least twice as big (and ``needed``)
        holding a copy of the filled prefix; all share one capacity."""
        capacity = max(needed, 2 * len(self._dead_delta), 64)
        self._data = [_regrown(buffer, self.length, capacity) for buffer in self._data]
        self._valid = [_regrown(buffer, self.length, capacity) for buffer in self._valid]
        self._dead_delta = _regrown(self._dead_delta, self.length, capacity)

    def install_column(self, index: int, column: Column) -> None:
        """Replace pending column ``index`` with ``column`` (an UPDATE's
        patched copy of the whole tail column): new buffers, never a write
        into the ones a tail already handed out."""
        capacity = len(self._dead_delta)
        self._data[index] = _regrown(column.data, len(column), capacity)
        valid = column.validity
        self._valid[index] = _regrown(
            np.ones(len(column), bool) if valid is None else valid, len(column), capacity
        )
        self._encoded.pop(index, None)
        self.touch()

    def mark_deleted(self, main_rows: np.ndarray, delta_rows: np.ndarray) -> None:
        """Tombstone live main rows and live delta rows, each by position."""
        if len(main_rows):
            if self._dead_main is None:
                self._dead_main = np.zeros(self.main_rows, dtype=bool)
            self._dead_main[main_rows] = True
            self.main_tombstones += len(main_rows)
        self._dead_delta[delta_rows] = True
        self.delta_tombstones += len(delta_rows)
        self.touch()

    # -- reads -----------------------------------------------------------------------

    def column(self, index: int, length: int) -> Column:
        """Pending column ``index`` up to ``length``: read-only views of its
        buffers.  A STRING column extends the codes its last read encoded
        unless an UPDATE installed the column since: new rows alone encode."""
        data, valid = self._data[index][:length], self._valid[index][:length]
        data.flags.writeable = valid.flags.writeable = False
        dtype, done = self.schema.types[index], self._encoded.get(index)
        if dtype is not DataType.STRING:
            return Column(data, dtype, valid)
        start = len(done) if done is not None and len(done) <= length else 0
        column = Column(data[start:], dtype, valid[start:])
        self._encoded[index] = column = concat_columns([done, column]) if start else column
        return column

    def live_main_mask(self) -> np.ndarray | None:
        """True where a main row survives, or None when nothing was deleted."""
        if self._dead_main is None:
            return None
        return ~self._dead_main

    def live_delta_mask(self) -> np.ndarray | None:
        """True where a delta row survives, or None when nothing was deleted."""
        if not self.delta_tombstones:
            return None
        return ~self._dead_delta[: self.length]

    def live_delta_count(self) -> int:
        """Number of pending rows that have not been tombstoned."""
        return self.length - self.delta_tombstones


def _regrown(buffer: np.ndarray, filled: int, capacity: int) -> np.ndarray:
    """A new ``capacity``-slot buffer of ``buffer``'s dtype that starts
    with a copy of its first ``filled`` slots."""
    grown = np.empty(capacity, buffer.dtype)
    grown[:filled] = buffer[:filled]
    return grown


# -- typed coercion: INSERT batches, UPDATE patches ---------------------------------

_NONE = type(None)
#: the type of a literal of each Python kind (a bare NULL's is UNKNOWN)
_KIND_TYPES = {_NONE: DataType.UNKNOWN, bool: DataType.BOOL, int: DataType.INT64,
               float: DataType.FLOAT64, str: DataType.STRING}
#: the Python kinds of a plain VALUES value
_PLAIN = frozenset(_KIND_TYPES)
#: per column type, the Python kinds whose literals are assignable to it
_STORABLE = {
    dtype: frozenset(kind for kind, source in _KIND_TYPES.items() if assignable(source, dtype))
    for dtype in DataType
}


def insert_columns(
    rows: Sequence[Sequence[Any]], names: Sequence[str], schema: Schema
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """An INSERT's VALUES rows for the columns ``names`` as one
    ``(payload, validity)`` batch per column of ``schema``, in its order
    (validity None when every value is valid) — an unnamed column all
    NULL.

    An item is a plain value (the lexer read the whole list), a
    :class:`Literal` or another expression.  A column's values are
    checked and coerced together: each plain value's type, or plain
    literal's, must be :func:`~repro.engine.types.assignable` to the
    column's, any other item is bound for the column and folded
    (:func:`~repro.engine.planner.bind_expression`, :func:`~repro.engine.
    expressions.fold_constant`), then :func:`coerce_values` stores them.
    A rejected batch raises what its first failing row raises on its own
    — a short row its width, else its leftmost failing item — and
    returns nothing, so it changes nothing.

    Raises:
        CatalogError: a row whose width is not ``len(names)``, or an item
            that reads a column.
        TypeMismatchError: an item whose type does not fit its column, or
            a value :func:`coerce_values` cannot store.
    """
    try:
        return _insert_columns(rows, names, schema)
    except ReproError:
        for row in rows:  # whichever error the batch met, raise the first row's
            _insert_columns([row], names, schema)
        raise


def _insert_columns(
    rows: Sequence[Sequence[Any]], names: Sequence[str], schema: Schema
) -> list[tuple[np.ndarray, np.ndarray | None]]:
    """:func:`insert_columns`, raising the first error it meets."""
    width = len(names)
    if set(map(len, rows)) != {width}:
        short = next(row for row in rows if len(row) != width)
        raise CatalogError(f"INSERT row width {len(short)} does not match {width} columns")
    batch = {name: _column_values(items, schema, name) for name, items in zip(names, zip(*rows))}
    count = len(rows)
    for name, dtype in schema.fields():
        if name not in batch:
            fill = _null_fill_value(dtype)
            batch[name] = np.full(count, fill, dtype.numpy_dtype), np.zeros(count, bool)
    return [batch[name] for name in schema.names]


def _column_values(
    items: Sequence[Any], schema: Schema, name: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """One column's VALUES items as ``(payload, validity)``: a plain
    value is itself, a :class:`Literal` its value, any other item is
    folded (:func:`_folded`)."""
    dtype = schema.type_of(name)
    values = items
    kinds = set(map(type, values))
    if not kinds <= _PLAIN:
        values = [
            item if type(item) in _PLAIN
            else item.value if type(item) is Literal
            else _folded(item, schema, name)
            for item in items
        ]
        kinds = set(map(type, values))
    if not kinds <= _STORABLE[dtype]:  # a plain literal of the wrong type
        wrong = next(value for value in values if type(value) not in _STORABLE[dtype])
        bind_expression(Literal(wrong), schema, "values", name)  # raises as binding would
    return coerce_values(values, kinds, dtype, name)


def _folded(item: Expression, schema: Schema, name: str) -> Any:
    """A VALUES item that is not a plain literal, bound for column ``name``
    and folded to its value."""
    if item.referenced_columns():
        raise CatalogError("INSERT VALUES must be constant expressions (no column references)")
    return fold_constant(bind_expression(item, schema, "values", name))


def coerce_values(
    values: Sequence, kinds: set[type], dtype: DataType, column: str
) -> tuple[np.ndarray, np.ndarray | None]:
    """Python values of the ``kinds`` a ``dtype`` column can store
    (:data:`_STORABLE`) as its ``(payload, validity)`` in one conversion
    (validity None when no value is NULL): a NULL parks the null fill,
    an int widens to FLOAT64, and a FLOAT64 into INT64 must be integral
    — :class:`TypeMismatchError` for the first value the column cannot
    hold (:func:`_unstorable`) instead of truncating it."""
    valid = None
    if _NONE in kinds:
        valid = np.array([value is not None for value in values], bool)
        fill = _null_fill_value(dtype)
        values = [fill if value is None else value for value in values]
    try:
        data = np.array(values, dtype=dtype.numpy_dtype)
        # the int conversion truncates a fractional float: compare back
        lossless = dtype is not DataType.INT64 or float not in kinds or bool(
            (data == np.array(values, dtype=np.float64)).all()
        )
    except (OverflowError, ValueError):
        lossless = False
    if not lossless:
        raise next(filter(None, (_unstorable(value, dtype, column) for value in values)))
    return data, valid


def _unstorable(value: Any, dtype: DataType, column: str) -> TypeMismatchError | None:
    """Why a ``dtype`` column cannot store ``value``, or None when it can."""
    if dtype is DataType.INT64 and type(value) is float and not value.is_integer():
        return TypeMismatchError(
            f"cannot store {value!r} in INT64 column {column!r} without losing precision"
        )
    try:
        np.array([value], dtype=dtype.numpy_dtype)
    except OverflowError as exc:
        return TypeMismatchError(f"cannot store {value!r} in {dtype.name} column {column!r}: {exc}")
    return None


def assign_column(old: Column, values: Column, rows: np.ndarray) -> Column:
    """``old`` with ``values[i]`` written at position ``rows[i]``.

    The vectorised UPDATE kernel: payload and validity are copied once
    and scattered into at ``rows``; STRING codes are first mapped into
    one dictionary (:func:`~repro.engine.column.merge_dictionaries`),
    and the values the update overwrote everywhere leave it.
    The values' type is already bound
    :func:`~repro.engine.types.assignable`; as in :func:`coerce_values`,
    a fractional float into INT64 raises :class:`TypeMismatchError`.
    """
    target = old.dtype
    valid = values.validity if values.validity is not None else np.ones(len(values), bool)
    if target is DataType.STRING:
        (data, codes), dictionary = merge_dictionaries([old, values])
        incoming, fill = codes[valid], -1
    else:
        data, dictionary = old.data, None
        incoming, fill = values.data[valid], _null_fill_value(target)
    if target is DataType.INT64 and values.dtype is DataType.FLOAT64 and not (
        np.isfinite(incoming).all() and np.equal(np.floor(incoming), incoming).all()
    ):
        raise TypeMismatchError(
            "UPDATE would store fractional FLOAT64 values in an INT64 "
            "column; cast explicitly or change the column type"
        )
    data = data.copy()
    data[rows[valid]] = incoming
    # park the null fill in newly nulled slots so the payload stays harmless
    data[rows[~valid]] = fill
    new_validity = old.validity.copy() if old.validity is not None else np.ones(len(old), bool)
    new_validity[rows] = valid
    updated = column_from_parts(data, target, new_validity, dictionary)
    return updated if dictionary is None else compact_dictionary(updated)


# -- tail materialisation and merge ---------------------------------------------------


def tail_table(store: DeltaStore) -> Table:
    """All delta rows (dead ones included, for position stability) as a
    columnar table with the main's schema: zero-copy views of the
    store's buffers up to its current length, which no later write
    changes (:class:`DeltaStore`), a STRING column as codes
    (:meth:`DeltaStore.column`)."""
    length = store.length  # read once: an append racing this lands past it
    return Table([
        (name, store.column(index, length)) for index, name in enumerate(store.schema.names)
    ])


def merged_table(main: Table, tail: Table, store: DeltaStore) -> Table:
    """The effective table: live main rows followed by live delta rows.

    STRING columns keep the main's dictionary, extended by the tail's
    values (:func:`~repro.engine.column.concat_columns`) and, when rows
    were deleted, cut to the values the live rows hold.  This
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
        merged = concat_columns([base, t])
        if merged.dtype is DataType.STRING and (live_main is not None or live_delta is not None):
            merged = compact_dictionary(merged)
        columns.append((name, merged))
    return Table(columns)


def extend_zone_map(old: ZoneMap, table: Table) -> ZoneMap:
    """Zone map of ``table`` given the map of its prefix (pure append
    only): the old partial zone and the appended zones are summarised,
    every whole old zone is kept (:meth:`ZoneMap.resummarised`)."""
    return old.resummarised(table)


def extend_statistics(zones: dict[int, ZoneMap], merged_main: Table) -> dict[int, ZoneMap]:
    """A table's zone maps after a pure-append merge, each extended over
    the appended rows (:func:`extend_zone_map`)."""
    return {
        zone_rows: extend_zone_map(zone_map, merged_main)
        for zone_rows, zone_map in zones.items()
    }
