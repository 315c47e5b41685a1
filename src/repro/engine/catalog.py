"""Catalog and the :class:`Database` facade.

``Database`` is the main entry point of the engine substrate: it registers
tables, maintains statistics, hosts secondary indexes (including the
adaptive cracker indexes of the paper's Database Layer), and executes SQL.

Everything the catalog knows about one table is one :class:`_TableState`
record in ``Database._tables``, and a table's columnar main is replaced
in exactly one place, :meth:`Database._install`, whose docstring is the
rule table for what survives the replacement (DESIGN.md, "Catalog
state").
"""

from __future__ import annotations

import ctypes
import os
import threading
from collections import OrderedDict
from typing import Any, Collection, Mapping, Protocol, Sequence

import numpy as np

from repro import settings
from repro.engine import delta as deltamod
from repro.engine import shards as shardsmod
from repro.engine.delta import DeltaStore
from repro.engine.expressions import Expression
from repro.engine.optimizer import optimize_plan
from repro.engine.parallel import ScanMemo, SelectionMemo
from repro.engine.planner import Plan, Template, bind_statement, plan_statement
from repro.engine.sql.lexer import Token, shape, tokenize
from repro.engine.sql.parser import parse, parse_statement
from repro.engine.statistics import TableStatistics, ZoneMap
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import CatalogError
from repro.obs.metrics import get_registry
from repro.obs.profile import ExplainAnalyzeReport, PlanProfiler

#: LRU capacity of each plan-cache level (:meth:`Database._plan_cached`)
PLAN_CACHE_SIZE = 256


def _malloc_trim():
    """glibc's ``malloc_trim``, or ``None`` where the C library has none."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):  # not glibc (musl, macOS, Windows)
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


#: returns the allocator's free pages to the operating system (:meth:`Database.close`)
_MALLOC_TRIM = _malloc_trim()


class RangeIndex(Protocol):
    """Protocol for secondary indexes consulted by table scans.

    Implementations return the *positions* of qualifying rows in the base
    table.  Adaptive implementations (database cracking) are free to refine
    their internal organisation as a side effect of each lookup — that is
    the whole point of adaptive indexing.
    """

    def lookup_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions with values in the given (possibly open) range."""
        ...


class _TableState:
    """Everything the catalog holds about one table.

    ``main`` is the columnar main and ``version`` its data version;
    ``delta`` holds the pending writes against it, with the tail table,
    effective table and column statistics derived from them cached on
    the store itself (:meth:`DeltaStore.cached`); ``zones`` maps a
    ``zone_rows`` granularity to the main's zone map, built by
    :meth:`Database.zone_map` when a scan first asks;
    ``layout`` is the shard layout clustering the main, or None;
    ``indexes`` maps a column to its secondary index, whose positions
    are main row positions; ``selections`` keeps the span selections
    zone-gated scans evaluated, valid for one ``(version, delta.version,
    settings generation)`` (:meth:`Database.selection_memo`).
    :meth:`Database._install` is the only writer of ``main``, ``version``
    and ``delta``.
    """

    __slots__ = ("main", "version", "delta", "zones", "layout", "indexes", "selections")

    def __init__(self, main: Table) -> None:
        self.main = main
        self.version = 0
        self.delta = DeltaStore(main)
        self.zones: dict[int, ZoneMap] = {}
        self.layout: shardsmod.ShardLayout | None = None
        self.indexes: dict[str, RangeIndex] = {}
        self.selections = SelectionMemo()


class Database:
    """A database: tables, statistics, indexes, SQL execution.

    In-memory by default; pass ``path=`` to open (or create) a *durable*
    database rooted at a directory — writes go through a write-ahead log
    and survive process death (see :mod:`repro.engine.wal`).
    """

    def __init__(self, name: str = "db", path: str | os.PathLike | None = None) -> None:
        self.name = name
        self._tables: dict[str, _TableState] = {}
        self._catalog_version = 0
        self._data_counter = 0
        #: the plan cache's two levels (:meth:`_plan_cached`): by SQL text,
        #: and by shape, whose entry holds a Template or None
        self._plan_cache: OrderedDict[str, tuple] = OrderedDict()
        self._plan_templates: OrderedDict[tuple, tuple] = OrderedDict()
        self._plan_cache_lock = threading.Lock()
        self.queries_executed = 0
        # durability: None for in-memory databases; recovery replays the
        # WAL with _replaying set so replayed writes are not re-logged
        self._closed = False
        self._replaying = False
        self._durability = None
        if path is not None:
            from repro.engine import wal as walmod

            self._durability = walmod.DurabilityManager(path)
            self._durability.open_into(self)

    # -- durability ----------------------------------------------------------------

    @property
    def durability(self):
        """The :class:`~repro.engine.wal.DurabilityManager`, or None."""
        return self._durability

    @property
    def is_durable(self) -> bool:
        return self._durability is not None

    def _check_open(self) -> None:
        if self._closed:
            raise CatalogError("database is closed")

    def _wal_active(self) -> bool:
        """True when writes must be logged (durable, logging on, not replaying)."""
        if self._durability is None or self._replaying:
            return False
        return settings.current.wal and self._durability.wal is not None

    def _log_record(self, meta: dict[str, Any]) -> None:
        if self._wal_active():
            self._durability.wal.append(meta)

    def checkpoint(self) -> str:
        """Merge pending deltas, then atomically persist the whole catalog.

        Returns the checkpoint directory path.  The old WAL is retired —
        recovery afterwards starts from this snapshot.

        Raises:
            CatalogError: for an in-memory database.
        """
        from repro.obs.tracing import trace

        self._check_open()
        if self._durability is None:
            raise CatalogError(
                "checkpoint requires a durable database (open with Database(path=...))"
            )
        registry = get_registry()
        with registry.timer("write.checkpoint_time").time(), trace(
            "write.checkpoint", tables=len(self._tables)
        ):
            self.flush_deltas()
            directory = self._durability.checkpoint(self)
            if settings.current.storage == "mmap":
                # Re-home every main onto the just-written part files:
                # they are byte-for-byte the current mains (deltas were
                # flushed first), so this is also how a running session
                # goes out of core (``PRAGMA storage=mmap``, then a
                # checkpoint).  Same content — _install keeps everything
                # a mapped main may carry.
                from repro.engine import wal as walmod

                for name, table, _, _ in walmod._load_checkpoint_dir(directory, "mmap"):
                    self._install(name, table, layout=self._tables[name].layout)
                self._durability.release_live_dirs()
        return str(directory)

    def close(self) -> None:
        """Flush and close the database; idempotent.

        Durable databases fsync any unsynced WAL tail.  Every table's
        state and both plan-cache levels are dropped (:meth:`_release_tables`),
        so a closed database pins no main, tail or zone map, and reading
        a table of it raises.  The shared worker pool is shut down
        deterministically (it restarts lazily if some other database
        issues a parallel query later).  Last, the C allocator returns
        its free pages to the operating system: otherwise whether the
        arrays this database freed stay resident depends on where they sat
        in the heap, and a process that builds a database, closes it and
        builds the next alternates between two resident sizes.
        """
        if self._closed:
            return
        self._closed = True
        self._release_tables()
        if self._durability is not None:
            self._durability.close()
            self._durability.release_live_dirs()
        from repro.engine import parallel

        parallel.shutdown_pool()
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)

    def _release_tables(self) -> None:
        """Drop every table's state and cached plan, and close the memory
        maps the mains held.

        Without the map close, checkpoint directories stay undeletable on
        platforms with strict open-file semantics (Windows) for as long
        as the process lives.  Best-effort: maps still pinned by
        user-held column references are left to the garbage collector.
        """
        import gc

        handles = []
        for state in self._tables.values():
            for column_name in state.main.column_names:
                backing = state.main.column(column_name).backing
                if backing is not None:
                    handles.extend(backing.mmap_handles())
                    backing.release()
        # drop every internal reference that may pin a mapped array
        self._tables.clear()
        self._clear_plans()
        if not handles:
            return
        gc.collect()
        for handle in handles:
            try:
                handle.close()
            except BufferError:  # a caller still holds a view
                pass

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- versioning ----------------------------------------------------------------

    @property
    def catalog_version(self) -> int:
        """Monotonic counter bumped by every *structural* change — DDL,
        table replacement; cached plans are valid only for the version
        they were planned under.  Delta appends, tombstones, index
        (un)registration and a re-shard or unshard deliberately do **not**
        bump it: they change no schema and no plan shape, so the plan cache
        survives the write (the per-table data version below keys the
        data-dependent caches instead)."""
        return self._catalog_version

    def _bump_catalog(self) -> None:
        """Advance the catalog version and drop every cached plan — the
        catalog they were bound against no longer exists."""
        self._catalog_version += 1
        self._clear_plans()

    def _clear_plans(self) -> None:
        """Drop both levels of the plan cache."""
        with self._plan_cache_lock:
            self._plan_cache.clear()
            self._plan_templates.clear()

    def _state(self, name: str) -> _TableState:
        try:
            return self._tables[name]
        except KeyError:
            self._check_open()
            raise CatalogError(f"unknown table {name!r}") from None

    def _install(
        self,
        name: str,
        main: Table,
        *,
        moved: bool = False,
        changed: Collection[str] = (),
        rows: Sequence[int] = (),
        zones: dict[int, ZoneMap] | None = None,
        layout: shardsmod.ShardLayout | None = None,
    ) -> None:
        """Make ``main`` the table's columnar main — the one place a main
        is replaced, and so the one place that decides what survives.

        The writer passes what it *observed*: ``moved`` — a surviving row
        changed position; ``changed`` — the columns whose values changed
        in place, at the main positions ``rows``; ``layout`` — the shard
        layout that clusters ``main``;
        ``zones`` — zone maps that already describe new contents.
        Contents are *new* when no table of that name is registered
        (``replace_table`` retires the old one first).  From that alone:

        ================================  ==========  ========  =======  =======  =======
        observed (writers)                zone maps   indexes   pending  data     cached
                                                                delta    version  plans
        ================================  ==========  ========  =======  =======  =======
        new contents (create, replace,    ``zones``   none      fresh    new      dropped
        recovered, unfiltered DELETE)
        rows moved (compacting or re-     none        none      fresh    new      kept
        clustering merge, re-shard)
        rows appended (pure-append        extended    kept      fresh    new      kept
        merge)
        ``changed`` at ``rows`` in place  patched     others    touched  new      kept
        (UPDATE)                                      kept
        same content (adopted check-      kept        kept      kept     kept     kept
        point, identity re-shard,
        unshard)
        ================================  ==========  ========  =======  =======  =======

        *Patched* zone maps re-summarise the zones holding ``rows`` of
        the ``changed`` columns, *extended* ones the appended rows
        (``delta.extend_statistics``); both through
        :meth:`ZoneMap.resummarised`, so every kept map summarises each
        numeric column, equals a rebuild from scratch, and shares every
        other summary object.  Column statistics are no catalog state:
        they are derived per delta version (:meth:`statistics`), so a
        fresh or touched delta retires them.

        Cached plans go with new contents only (the catalog version
        moves): an index picks rows and a shard layout schedules a scan's
        tasks at run time, so neither is part of a plan.
        """
        state = self._tables.get(name)
        rebuilt = state is None
        if state is None:
            state = self._tables[name] = _TableState(main)
            state.zones = zones or {}
            self._bump_catalog()
        else:
            # a merge or re-shard hands over a whole new image; an UPDATE
            # or an adopted checkpoint keeps every row where it was
            rebuilt = moved or main.num_rows != state.main.num_rows
            if (
                rebuilt
                and state.main.is_mapped
                and self._durability is not None
                and settings.current.storage == "mmap"
            ):
                # never rewrite the checkpoint files a mapped main points
                # at — they are the recovery source until the next
                # checkpoint.  The new image is spilled to a live
                # scratch dir (write-temp-then-rename) and remapped.
                main = self._durability.spill_table(name, main)
            if moved:
                state.zones = {}
            elif rebuilt and state.zones:
                state.zones = deltamod.extend_statistics(state.zones, main)
            elif changed:
                state.zones = {
                    zone_rows: zone_map.resummarised(main, rows, changed)
                    for zone_rows, zone_map in state.zones.items()
                }
            for column in list(state.indexes):
                if moved or column in changed:
                    del state.indexes[column]
            if rebuilt:
                state.delta = DeltaStore(main)
            elif changed:
                state.delta.touch()
        if rebuilt or changed:
            self._data_counter += 1
            state.version = self._data_counter
        state.main, state.layout = main, layout

    # -- DDL ---------------------------------------------------------------------

    def create_table(self, name: str, table: Table | Mapping[str, Sequence[Any]]) -> Table:
        """Register a table under ``name``.

        Accepts either a built :class:`Table` or a ``{column: values}``
        mapping.

        Raises:
            CatalogError: if the name is already taken.
        """
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        if not isinstance(table, Table):
            table = Table.from_dict(table)
        if self._wal_active():  # column files first, then a record naming them
            self._durability.log_load("create", name, table)
        self._register(name, table)
        return table

    def _register(self, name: str, table: Table) -> None:
        """Install new contents: nothing of an old ``name`` describes them."""
        self._tables.pop(name, None)
        self._install(name, table)
        self._maybe_auto_shard(name)

    def drop_table(self, name: str) -> None:
        """Remove a table and everything attached to it."""
        self._state(name)
        self._log_record({"op": "drop", "table": name})
        del self._tables[name]
        self._bump_catalog()

    def replace_table(self, name: str, table: Table) -> None:
        """Swap the contents of an existing table.

        Statistics, indexes, layout and the pending delta attached to
        the old contents are dropped, since they no longer describe the
        data.
        """
        self._state(name)
        if self._wal_active():
            self._durability.log_load("replace", name, table)
        self._register(name, table)

    def table_names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """True if a table with this name exists."""
        return name in self._tables

    def get_table(self, name: str) -> Table:
        """The named table, as queries see it.

        While the table has pending writes this is the *effective* table
        — live main rows followed by live delta rows, cached on the
        delta store per delta version.  With a clean delta it is the
        columnar main itself, zero-copy.

        Raises:
            CatalogError: if the table does not exist, or the database
                is closed.
        """
        state = self._state(name)
        store = state.delta
        if store.is_clean():
            return state.main
        return store.cached(
            "effective",
            lambda: deltamod.merged_table(state.main, self.delta_tail(name), store),
        )

    def main_table(self, name: str) -> Table:
        """The columnar main of a table, ignoring any pending delta.

        The scan fast paths (zone maps, index positions) are aligned to the
        main's row positions; the executor unions in the delta tail
        separately.

        Raises:
            CatalogError: if the table does not exist, or the database
                is closed.
        """
        return self._state(name).main

    # -- delta store ---------------------------------------------------------------

    def delta_store_if_dirty(self, name: str) -> DeltaStore | None:
        """The table's delta store when it has pending writes, else None.

        The executor's scan hot path calls this first: a None means the
        columnar main is the whole truth and every fast path applies
        unchanged.
        """
        state = self._tables.get(name)
        if state is None or state.delta.is_clean():
            return None
        return state.delta

    def delta_tail(self, name: str) -> Table:
        """All pending delta rows (dead ones included, keeping positions
        stable) as a columnar table, cached per delta version."""
        state = self._state(name)
        store = state.delta
        return store.cached("tail", lambda: deltamod.tail_table(store))

    def delta_pressure(self, name: str) -> int:
        """Pending inserts + tombstones awaiting the next merge."""
        state = self._tables.get(name)
        return 0 if state is None else state.delta.write_pressure

    def flush_deltas(self, name: str | None = None) -> None:
        """Merge pending deltas into the columnar main now (all tables,
        or just one)."""
        names = [name] if name is not None else list(self._tables)
        for table_name in names:
            self._merge_delta(table_name, reason="flush")

    def _maybe_merge(self, name: str) -> None:
        if self._replaying:
            # replay must not race ahead of history: merges happen exactly
            # where the log's merge markers say they happened
            return
        store = self._tables[name].delta
        if store.write_pressure >= settings.current.delta_rows and not store.is_clean():
            self._merge_delta(name, reason="threshold")

    def _merge_delta(self, name: str, reason: str) -> None:
        """Fold a table's delta into its columnar main.

        Dictionary codes ride through
        :func:`~repro.engine.delta.merged_table`, and a sharded table
        re-applies its layout; what that leaves of the attached
        structures is :meth:`_install`'s call — a pure append keeps and
        extends them, anything that moved a row drops them.
        """
        from repro.obs.tracing import trace

        state = self._state(name)
        store = state.delta
        if store.is_clean():
            return
        # a merge changes physical state only, but it is still logged: the
        # marker keeps replayed merge timing (and hence physical layout)
        # faithful, and arms the crash_mid_merge injection point
        self._log_record({"op": "merge", "table": name, "reason": reason})
        if self._durability is not None and not self._replaying:
            self._durability.crash_point(
                "crash_mid_merge", self._durability.wal.records_logged
            )
        registry = get_registry()
        pending = store.pending_inserts
        tombstones = store.tombstones
        with registry.timer("write.merge_time").time(), trace(
            "write.merge", table=name, rows=pending, tombstones=tombstones, reason=reason
        ):
            new_main = self.get_table(name)  # the effective table IS the merge result
            moved = tombstones > 0  # compaction renumbers the rows behind a dead one
            # a sharded table re-applies its layout: appended rows route
            # to their shards by key, range bounds track the new value
            # distribution, and the extents stay contiguous
            layout = state.layout
            if layout is not None:
                new_main, layout, in_place = shardsmod.apply_layout(
                    new_main, layout.mode, layout.key, layout.num_shards
                )
                moved = moved or not in_place
            self._install(name, new_main, moved=moved, layout=layout)
            if layout is not None:
                shardsmod.record_layout_metrics(layout)
        registry.counter("write.merges").inc()
        registry.counter("write.merge_rows").inc(pending)
        self._maybe_auto_shard(name)

    # -- statistics ---------------------------------------------------------------

    def statistics(self, name: str) -> TableStatistics:
        """Column statistics of a table as queries see it
        (:meth:`get_table`), pending writes included.

        One object per delta version, cached on the store: it builds a
        column's entry when that column is first read — the optimizer's
        join reorder, the engine's one reader, reads its join keys only
        — so every entry is exact, and taking the object builds none.
        """
        store = self._state(name).delta
        return store.cached("statistics", lambda: TableStatistics(self.get_table(name)))

    def zone_map(self, name: str) -> ZoneMap:
        """Zone map of the columnar *main* at the configured ``zone_rows``
        granularity.

        Zones are aligned to main row positions — the executor applies
        them to the main and evaluates the delta tail directly, so the
        map deliberately ignores pending writes.  (Tombstoned main rows
        stay summarised: bounds over a superset keep FAIL/PASS sound,
        and the scan ANDs the live mask afterwards.)  Kept on the
        table's state, which :meth:`_install` keeps, extends, patches or
        empties: a map there is served as it is, and a missing one is
        built here.
        """
        state = self._state(name)
        main, zones = state.main, state.zones
        zone_rows = settings.current.zone_rows
        zone_map = zones.get(zone_rows)
        if zone_map is None:
            zone_map = ZoneMap.from_table(main, zone_rows)
            if state.main is main:  # a build that raced an install is not kept
                zones[zone_rows] = zone_map
        return zone_map

    # -- indexes -------------------------------------------------------------------

    def register_index(self, table: str, column: str, index: RangeIndex) -> None:
        """Attach a secondary index to ``table.column``.

        A scan whose predicate has a range conjunct on the column reads
        only the main rows the index returns (and still evaluates the
        whole predicate over them); no plan changes, so cached plans stay.
        Index positions refer to main row positions, so a pending delta
        is merged first — the index then describes exactly the table the
        caller just observed via :meth:`get_table` (on a sharded table,
        the re-clustered main).  A merge that leaves a different main
        than that table — a sharded one re-clustering the pending rows,
        a mapped one spilled — registers nothing: the index's positions
        are not main positions.
        """
        state = self._state(table)
        if column not in state.main.schema:
            raise CatalogError(f"table {table!r} has no column {column!r}")
        if not state.delta.is_clean():
            observed = self.get_table(table)
            self._merge_delta(table, reason="register_index")
            if state.main is not observed:
                return
        state.indexes[column] = index

    def unregister_index(self, table: str, column: str) -> None:
        """Detach the index on ``table.column`` if present."""
        state = self._tables.get(table)
        if state is not None:
            state.indexes.pop(column, None)

    def index_for(self, table: str, column: str) -> RangeIndex | None:
        """The registered index on ``table.column``, or None."""
        state = self._tables.get(table)
        return None if state is None else state.indexes.get(column)

    # -- sharding ------------------------------------------------------------------

    def shard_layout(self, name: str):
        """The table's :class:`~repro.engine.shards.ShardLayout`, or None."""
        state = self._tables.get(name)
        return None if state is None else state.layout

    def _effective_rows(self, name: str) -> int:
        """Main rows plus pending delta inserts (the post-merge size)."""
        state = self._tables[name]
        return state.main.num_rows + state.delta.pending_inserts

    def selection_memo(self, name: str, predicate: Expression) -> ScanMemo:
        """A zone-gated scan's handle on the table's selection memo for
        ``predicate``: what earlier scans of the same predicate evaluated
        is reused while the table's data version, its delta version and
        the settings generation all stay what they were."""
        state = self._state(name)
        epoch = (state.version, state.delta.version, settings.generation)
        return state.selections.scan(epoch, predicate.key(), state.main.num_rows)

    def table_version(self, name: str) -> int:
        """The table's monotonic data version, moved by every install that changes rows."""
        state = self._tables.get(name)
        return 0 if state is None else state.version

    def apply_sharding(
        self,
        name: str,
        num_shards: int,
        shard_by: str | None = None,
        log: bool = True,
    ) -> None:
        """(Re)partition a table into ``num_shards`` extents, or unshard.

        ``shard_by`` is a ``hash``/``hash(col)``/``range(col)`` spec; the
        default is a hash of the table's first column.  The arguments are
        explicit — never read from the live config — so a replayed WAL
        ``shard`` record reproduces exactly the layout that was logged.
        A pending delta is merged first; rows are then stably reordered
        into shard order (a no-op when they already are, e.g. range
        partitioning of a monotone key).  ``num_shards`` of 0 or 1 drops
        the layout without touching the data.
        """
        state = self._state(name)
        if num_shards <= 1:
            if state.layout is not None:
                if log:
                    self._log_record({"op": "shard", "table": name, "shards": 0})
                self._install(name, state.main, layout=None)
            return
        mode, key = "hash", None
        if shard_by is not None:
            try:
                mode, key = settings.parse_shard_by(shard_by)
            except ValueError as exc:
                raise CatalogError(str(exc)) from None
        if key is None:
            key = state.main.column_names[0]
        if key not in state.main.schema:
            raise CatalogError(f"table {name!r} has no column {key!r}")
        if not state.delta.is_clean():
            self._merge_delta(name, reason="shard")
        try:
            new_main, layout, in_place = shardsmod.apply_layout(
                state.main, mode, key, num_shards
            )
        except ValueError as exc:
            raise CatalogError(str(exc)) from None
        if log:
            self._log_record(
                {
                    "op": "shard",
                    "table": name,
                    "shards": num_shards,
                    "mode": mode,
                    "key": key,
                }
            )
        # in place: same rows in the same order (new_main is the old main)
        self._install(name, new_main, moved=not in_place, layout=layout)
        shardsmod.record_layout_metrics(layout)

    def _maybe_auto_shard(self, name: str) -> None:
        """Shard a table per the live config when it crosses the row floor.

        Live-path only: replay reproduces sharding from the WAL's own
        ``shard`` records instead, so a changed environment config can
        never fork recovery away from history.
        """
        if self._replaying or self._tables[name].layout is not None:
            return
        config = settings.current
        if config.shards < 2:
            return
        if self._effective_rows(name) < config.shard_min_rows:
            return
        try:
            self.apply_sharding(name, config.shards, shard_by=config.shard_by)
        except CatalogError:
            # the configured default does not fit this table (e.g. range
            # on a text first column): leave it unsharded rather than
            # failing DML that never mentioned sharding
            pass

    # -- query execution --------------------------------------------------------------

    def plan(self, sql: str) -> Plan:
        """Parse and plan a query without executing it (plan-cache aware)."""
        return self._plan_cached(sql)[0]

    def _plan_fresh(self, statement, optimize: bool) -> Plan:
        """Bind and plan a parsed SELECT, then optimize it if asked."""
        plan = plan_statement(statement, self)
        if optimize:
            optimize_plan(plan, self)
        return plan

    def _plan_cached(
        self, sql: str, tokens: list[Token] | None = None
    ) -> tuple[Plan, str | None]:
        """``(plan, how the cache served it)`` for a SELECT string:
        ``"hit"``, ``"template hit"`` or None for a fresh plan.  ``tokens``
        is ``tokenize(sql)`` when the caller already has it.

        The cache has two LRU levels, each bounded by ``PLAN_CACHE_SIZE``,
        and holds fully *optimized* plans.  An entry remembers the catalog
        version *and* the optimizer setting it was planned under and is
        only served while both are current (DDL and table replacement
        bump the version and clear the cache; toggling
        ``PRAGMA optimizer`` makes old entries stale).  The first level
        is keyed on the exact SQL text and costs no tokenization.  The
        second is keyed on the statement's shape, its tokens with the
        literals masked (:func:`~repro.engine.sql.lexer.shape`): a brush
        or slider re-issues one statement with new constants, and a shape
        hit re-binds the cached plan to them (:meth:`Template.bind`)
        without parsing, binding, planning or optimizing.  A shape whose
        plan is no template (:meth:`Template.of`) is remembered as such.
        """
        registry = get_registry()
        stamp = (self._catalog_version, bool(settings.current.optimizer))
        entry = self._cache_get(self._plan_cache, sql, stamp)
        if entry is not None:
            registry.counter("plan_cache.hits").inc()
            return entry[1], "hit"
        tokens = tokens or tokenize(sql)
        key, positions = shape(tokens)
        entry = self._cache_get(self._plan_templates, key, stamp)
        if entry is not None and entry[1] is not None:
            plan = entry[1].bind([tokens[i].value for i in positions])
            registry.counter("plan_cache.hits").inc()
            registry.counter("plan_cache.template_hits").inc()
            self._cache_put(self._plan_cache, sql, (stamp, plan))
            return plan, "template hit"
        literals: dict[int, Any] = {}
        statement = parse(sql, tokens, literals)
        plan = self._plan_fresh(statement, stamp[1])
        registry.counter("plan_cache.misses").inc()
        self._cache_put(self._plan_cache, sql, (stamp, plan))
        if entry is None:
            template = Template.of(statement, plan, [literals.get(i) for i in positions])
            self._cache_put(self._plan_templates, key, (stamp, template))
        return plan, None

    def _cache_get(self, cache: OrderedDict, key: Any, stamp: tuple) -> tuple | None:
        """``cache``'s entry for ``key`` if it was planned under ``stamp``."""
        with self._plan_cache_lock:
            entry = cache.get(key)
            if entry is None or entry[0] != stamp:
                return None
            cache.move_to_end(key)
            return entry

    def _cache_put(self, cache: OrderedDict, key: Any, entry: tuple) -> None:
        """Store ``entry`` as the newest in ``cache``, evicting the oldest
        past :data:`PLAN_CACHE_SIZE`."""
        with self._plan_cache_lock:
            cache[key] = entry
            cache.move_to_end(key)
            while len(cache) > PLAN_CACHE_SIZE:
                cache.popitem(last=False)

    def explain(self, sql: str) -> str:
        """Textual plan for a query (like EXPLAIN)."""
        return self.plan(sql).explain()

    def sql(self, query: str) -> Table:
        """Parse, plan and execute a SELECT statement.

        Execution runs under the query governor (:mod:`repro.resilience`):
        ``PRAGMA timeout_ms`` / ``memory_budget_kb`` bound the query, a
        Ctrl-C surfaces as a clean
        :class:`~repro.errors.QueryCancelledError`, and with ``PRAGMA
        degrade=1`` a degradable aggregate that blows its budget returns
        an approximate answer with confidence bounds instead of failing.
        """
        self._check_open()
        return self._run_query(self.plan(query))

    def _run_query(self, plan: Plan) -> Table:
        self.queries_executed += 1
        registry = get_registry()
        registry.counter("engine.queries").inc()
        with registry.timer("engine.query_time").time():
            return self._run_governed(plan)

    def _run_governed(self, plan: Plan) -> Table:
        """Execute a plan under a fresh :class:`~repro.resilience.QueryContext`.

        A governor violation unwinds the tracer (abandoned spans are
        closed, not leaked), bumps the matching ``resilience.*`` counter
        and either re-raises or — when degradation is on and the plan
        qualifies — re-routes through the sampling-based approximate
        answer *outside* the expired context.
        """
        from repro import resilience
        from repro.engine.executor import execute_plan
        from repro.errors import (
            MemoryBudgetError,
            QueryCancelledError,
            QueryTimeoutError,
            ResourceError,
        )
        from repro.obs.tracing import get_tracer

        registry = get_registry()
        config = settings.current
        context = resilience.context_from_config()
        tracer = get_tracer()
        depth = tracer.open_depth()
        try:
            with resilience.activate(context):
                return execute_plan(plan, self)
        except ResourceError as exc:
            tracer.unwind(depth)
            if isinstance(exc, QueryTimeoutError):
                registry.counter("resilience.timeouts").inc()
            elif isinstance(exc, QueryCancelledError):
                registry.counter("resilience.cancellations").inc()
            elif isinstance(exc, MemoryBudgetError):
                registry.counter("resilience.memory_exceeded").inc()
            if config.degrade and not context.cancelled:
                from repro.resilience.degrade import degradable, degraded_answer

                if degradable(plan):
                    registry.counter("resilience.degradations").inc()
                    return degraded_answer(plan, self, reason=str(exc))
            raise
        except KeyboardInterrupt:
            context.cancel()
            tracer.unwind(depth)
            registry.counter("resilience.cancellations").inc()
            raise QueryCancelledError("query interrupted") from None

    def explain_analyze(self, query: str) -> ExplainAnalyzeReport:
        """Execute a SELECT under the profiler and return the report.

        The report carries per-plan-node wall time, input/output row
        counts and bytes touched; render it with
        :meth:`~repro.obs.profile.ExplainAnalyzeReport.render`.
        """
        return self._profile_plan(*self._plan_cached(query))

    def _profile_plan(self, plan: Plan, served: str | None) -> ExplainAnalyzeReport:
        from repro.engine.executor import execute_plan

        profiler = PlanProfiler()
        self.queries_executed += 1
        registry = get_registry()
        registry.counter("engine.queries_profiled").inc()
        with registry.timer("engine.query_time").time():
            execute_plan(plan, self, profiler=profiler)
        assert profiler.root is not None
        report = ExplainAnalyzeReport(root=profiler.root, notes=list(plan.notes))
        if served:
            report.notes.append(f"plan cache: {served}")
        return report

    def execute(self, statement_sql: str) -> Table | int:
        """Execute any supported statement.

        SELECTs return their result :class:`Table`; DML statements return
        the number of rows affected; DDL statements return 0.  What a
        mutation keeps of the structures describing the old contents is
        :meth:`_install`'s rule table.

        ``PRAGMA <name>[=<value>]`` reads or sets a row of
        :data:`repro.settings.SETTINGS`; the read form returns a one-row
        settings table.
        """
        from repro.engine.sql.ast import (
            CreateTableStatement,
            DeleteStatement,
            DropTableStatement,
            ExplainStatement,
            InsertStatement,
            SelectStatement,
            UpdateStatement,
        )

        self._check_open()
        stripped = statement_sql.strip().rstrip(";").strip()
        if stripped[:6].upper() == "PRAGMA":
            return self._execute_pragma(stripped[6:].strip())
        if stripped[:7].upper().split() == ["SELECT"]:
            # the plan cache first: an exact hit is not even tokenized
            return self._run_query(self.plan(statement_sql))
        tokens = tokenize(statement_sql)
        statement = parse_statement(statement_sql, tokens)
        if isinstance(statement, SelectStatement):  # e.g. after a leading comment
            return self._run_query(self._plan_cached(statement_sql, tokens)[0])
        if isinstance(statement, ExplainStatement):
            return self._execute_explain(statement, statement_sql, tokens)
        if isinstance(statement, CreateTableStatement):
            if statement.table in self._tables:
                raise CatalogError(f"table {statement.table!r} already exists")
            table = _empty_table(statement.columns)
            self._log_record({"op": "sql", "stmt": stripped})
            self._register(statement.table, table)
            return 0
        if isinstance(statement, DropTableStatement):
            self.drop_table(statement.table)
            return 0
        if isinstance(statement, InsertStatement):
            return self._execute_insert(statement, stripped)
        if isinstance(statement, DeleteStatement):
            return self._execute_delete(statement, stripped)
        if isinstance(statement, UpdateStatement):
            return self._execute_update(statement, stripped)
        raise CatalogError(f"unsupported statement {type(statement).__name__}")

    def _reshard_all(self) -> None:
        """``PRAGMA shards=N`` acts on the tables already registered."""
        config = settings.current
        for name in list(self._tables):
            existing = self._tables[name].layout
            if config.shards <= 1:
                self.apply_sharding(name, 0)
            elif existing is not None:
                if existing.num_shards != config.shards:
                    # re-shard in place, keeping the table's spec
                    self.apply_sharding(
                        name, config.shards, shard_by=f"{existing.mode}({existing.key})"
                    )
            elif self._effective_rows(name) >= config.shard_min_rows:
                try:
                    self.apply_sharding(name, config.shards, shard_by=config.shard_by)
                except CatalogError:
                    # bulk action: skip tables the default spec cannot
                    # partition (range on text)
                    continue

    def _merge_over_threshold(self) -> None:
        """A lowered ``delta_rows`` may put tables over it immediately."""
        for name in list(self._tables):
            self._maybe_merge(name)

    #: what a ``PRAGMA name=value`` does to *this* database once the
    #: setting is stored — the only per-setting code on the PRAGMA path
    _PRAGMA_FOLLOW_UPS = {
        "shards": _reshard_all,
        "delta_rows": _merge_over_threshold,
    }

    def _execute_pragma(self, body: str) -> Table | int:
        """``PRAGMA [<name>[=<value>]]`` over :data:`repro.settings.SETTINGS`.

        The set form stores the value (process-wide), runs the setting's
        follow-up on this database if it has one, and returns 0 like
        DDL; the read form returns a one-row table with the current
        value; a bare ``PRAGMA`` lists every setting with its source.
        """
        name, _, value = body.partition("=")
        name, value = name.strip().lower(), value.strip()
        if not name:
            return self.settings_table()
        if name not in settings.ROWS:
            raise CatalogError(
                f"unknown pragma {name!r}; expected one of {sorted(settings.ROWS)}"
            )
        if not value:
            current = settings.shown(getattr(settings.current, name))
            return Table.from_rows([(name, current)], ["pragma", "value"])
        try:
            settings.configure(**{name: value})
        except ValueError as exc:
            raise CatalogError(f"PRAGMA {exc}") from None
        follow_up = self._PRAGMA_FOLLOW_UPS.get(name)
        if follow_up is not None:
            follow_up(self)
        return 0

    def settings_table(self) -> Table:
        """Every tunable with its current value and provenance.

        This is what a bare ``PRAGMA`` (or the shell's ``\\pragma``)
        returns.  The source column distinguishes the built-in default,
        an environment variable, and a value set this session —
        recovery-relevant configuration is thereby inspectable before
        trusting a durable session.
        """
        store = settings.current
        rows = [
            (name, str(settings.shown(getattr(store, name))), store.source(name))
            for name in settings.ROWS
        ]
        return Table.from_rows(rows, ["pragma", "value", "source"])

    def _execute_explain(self, statement, statement_sql: str, tokens: list[Token]) -> Table:
        """EXPLAIN [ANALYZE]: the plan (and measurements) as a one-column
        table of report lines, the way conventional engines present it."""
        from repro.engine.column import Column

        if statement.analyze:
            # route through the plan-cache-aware path (keyed on the inner
            # SELECT text, whose tokens follow EXPLAIN ANALYZE) so repeat
            # EXPLAIN ANALYZE skips planning too
            inner = statement_sql[statement.select_offset :].rstrip().rstrip(";").rstrip()
            lines = self._profile_plan(*self._plan_cached(inner, tokens[2:])).lines()
        else:
            plan = self._plan_fresh(statement.statement, settings.current.optimizer)
            lines = plan.explain().split("\n")
            lines.extend(f"note: {note}" for note in plan.notes)
        return Table([("plan", Column(lines, dtype=DataType.STRING))])

    def _execute_insert(self, statement, sql: str) -> int:
        """INSERT: type-check and coerce the values a column at a time,
        append them to the table's delta store as one typed batch, feed
        insert-capable indexes, maybe merge.

        The statement text is WAL-logged *after* validation and coercion
        succeed (a rejected statement changed nothing, so it must not be
        replayed) and *before* any in-memory state changes.

        A plain literal is checked by its type; any other value may be a
        constant expression (``-2``, ``1+1``) — typed for its column and
        folded through the normal expression kernels
        (:func:`~repro.engine.delta.insert_columns`).  A number into
        STRING raises, and a fractional float into INT64 raises
        :class:`~repro.errors.TypeMismatchError` instead of truncating.
        """
        name = statement.table
        state = self._state(name)
        schema = state.main.schema
        names = statement.columns or list(schema.names)
        unknown = set(names) - set(schema.names)
        if unknown:
            raise CatalogError(f"unknown column(s) in INSERT: {sorted(unknown)}")
        columns = deltamod.insert_columns(statement.rows, names, schema)
        self._log_record({"op": "sql", "stmt": sql})
        store = state.delta
        self._feed_indexes_on_insert(state, columns)
        store.append(columns)
        registry = get_registry()
        registry.counter("write.inserts").inc()
        registry.counter("write.insert_rows").inc(len(statement.rows))
        registry.gauge("write.delta_pressure").set(store.write_pressure)
        self._maybe_merge(name)
        return len(statement.rows)

    def _feed_indexes_on_insert(
        self, state: _TableState, columns: list[tuple[np.ndarray, np.ndarray | None]]
    ) -> None:
        """Keep registered indexes truthful across an append.

        Insert-capable indexes (the ``UpdatableCrackerIndex`` protocol:
        an O(1) ``insert(value)`` assigning the next logical row id) are
        fed each new value — logical ids line up with main positions plus
        delta offsets because registration merges the delta first.  An
        index without ``insert`` (or facing a value it cannot hold, e.g.
        NULL) is unregistered: it no longer describes the table.
        """
        schema = state.main.schema
        for column, index in list(state.indexes.items()):
            insert = getattr(index, "insert", None)
            data, valid = columns[schema.names.index(column)]
            if (
                insert is None
                or (valid is not None and not valid.all())
                or not schema.type_of(column).is_numeric
            ):
                del state.indexes[column]
                continue
            for value in data.tolist():
                insert(value)

    def _execute_delete(self, statement, sql: str) -> int:
        """DELETE: tombstone the rows the scan selects
        (:func:`~repro.engine.executor.select_rows`) instead of
        materialising a filtered copy of the table.  Main rows flip a bit
        in the delta store's dead mask over the main, delta rows one in
        its dead mask over the delta; nothing moves until the next merge
        compacts the table.

        WAL logging: the statement text, once the rows are selected and
        at least one is affected (the unfiltered form: always)."""
        from repro.engine.executor import select_rows

        name = statement.table
        state = self._state(name)
        bind_statement(statement, self)
        main, store = state.main, state.delta
        registry = get_registry()
        if statement.where is None:
            affected = main.num_rows - store.main_tombstones + store.live_delta_count()
            self._log_record({"op": "sql", "stmt": sql})
            # dropping every row is a structural reset, like replace_table
            self._register(name, main.slice(0, 0))
            registry.counter("write.deletes").inc()
            registry.counter("write.delete_rows").inc(affected)
            return affected
        main_rows, tail_rows = select_rows(self, name, statement.where)
        affected = len(main_rows) + len(tail_rows)
        if affected == 0:
            return 0
        self._log_record({"op": "sql", "stmt": sql})
        # Forward the tombstones to delete-capable indexes.  Purely an
        # optimisation: the scan drops dead index positions through the
        # live mask regardless, so an index without ``delete`` stays
        # registered and correct — it just returns positions the scan
        # then drops.
        for index in state.indexes.values():
            delete = getattr(index, "delete", None)
            if delete is not None:
                for position in np.concatenate([main_rows, main.num_rows + tail_rows]).tolist():
                    delete(position)
        store.mark_deleted(main_rows, tail_rows)
        registry.counter("write.deletes").inc()
        registry.counter("write.delete_rows").inc(affected)
        registry.gauge("write.delta_pressure").set(store.write_pressure)
        self._maybe_merge(name)
        return affected

    def _execute_update(self, statement, sql: str) -> int:
        """UPDATE: vectorised in-place column rewrite of the rows the scan
        selects (:func:`~repro.engine.executor.select_rows`).

        Each assignment is evaluated over those rows only, so a value the
        WHERE rules out is never computed.  The statement text is
        WAL-logged after every assignment has been evaluated and coerced,
        immediately before the new table is installed — a type error
        mid-statement therefore logs nothing, and neither does a
        statement that matched no row (it returns 0 with nothing
        installed, as DELETE does).

        Only assigned columns are copied — unassigned columns are shared
        with the old table — and assignments scatter into the payload at
        the selected positions under the same typed-coercion contract as
        INSERT.  The pending delta rows it hit are patched the same way,
        into new buffers (:meth:`~repro.engine.delta.DeltaStore.install_column`),
        so a tail a reader holds keeps its values.  Row order and
        column order are preserved; indexes on assigned columns are
        dropped (their values changed in place), others stay valid.
        """
        from repro.engine.executor import select_rows

        name = statement.table
        state = self._state(name)
        bind_statement(statement, self)
        main, store = state.main, state.delta
        main_rows, tail_rows = select_rows(self, name, statement.where)
        affected = len(main_rows) + len(tail_rows)
        if affected == 0:
            return 0
        tail = self.delta_tail(name) if len(tail_rows) else None
        main_hit = main.take(main_rows)
        tail_hit = None if tail is None else tail.take(tail_rows)
        new_columns = {n: main.column(n) for n in main.column_names}
        new_tail = {}
        for column_name, expr in statement.assignments:
            new_columns[column_name] = deltamod.assign_column(
                new_columns[column_name], expr.evaluate(main_hit), main_rows
            )
            if tail is not None:
                new_tail[column_name] = deltamod.assign_column(
                    new_tail.get(column_name, tail.column(column_name)),
                    expr.evaluate(tail_hit),
                    tail_rows,
                )
        self._log_record({"op": "sql", "stmt": sql})
        for column_name, column in new_tail.items():
            store.install_column(main.column_names.index(column_name), column)
        self._install(
            name,
            Table([(n, new_columns[n]) for n in main.column_names]),
            changed=[column_name for column_name, _ in statement.assignments],
            rows=main_rows,
            layout=state.layout,
        )
        registry = get_registry()
        registry.counter("write.updates").inc()
        registry.counter("write.update_rows").inc(affected)
        return affected

_TYPE_WORDS = {
    "INT": "INT64", "INTEGER": "INT64", "BIGINT": "INT64",
    "FLOAT": "FLOAT64", "DOUBLE": "FLOAT64", "REAL": "FLOAT64",
    "TEXT": "STRING", "STRING": "STRING", "VARCHAR": "STRING",
    "BOOL": "BOOL", "BOOLEAN": "BOOL",
}


def _empty_table(columns: list[tuple[str, str]]) -> Table:
    """An empty Table from CREATE TABLE (name, type word) pairs."""
    from repro.engine.column import Column
    from repro.engine.types import DataType

    built = []
    for name, type_word in columns:
        if type_word not in _TYPE_WORDS:
            raise CatalogError(f"unknown column type {type_word!r}")
        built.append((name, Column.empty(DataType[_TYPE_WORDS[type_word]])))
    return Table(built)
