"""Catalog and the :class:`Database` facade.

``Database`` is the main entry point of the engine substrate: it registers
tables, maintains statistics, hosts secondary indexes (including the
adaptive cracker indexes of the paper's Database Layer), and executes SQL.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Mapping, Protocol, Sequence

import numpy as np

from repro import settings
from repro.engine import delta as deltamod
from repro.engine.delta import DeltaStore
from repro.engine.optimizer import optimize_plan
from repro.engine.planner import Plan, plan_statement
from repro.engine.sql.parser import parse
from repro.engine.statistics import TableStatistics, ZoneMap
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import CatalogError
from repro.obs.metrics import get_registry
from repro.obs.profile import ExplainAnalyzeReport, PlanProfiler
from repro.storage import layouts


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


class Database:
    """A database: tables, statistics, indexes, SQL execution.

    In-memory by default; pass ``path=`` to open (or create) a *durable*
    database rooted at a directory — writes go through a write-ahead log
    and survive process death (see :mod:`repro.engine.wal`).
    """

    def __init__(self, name: str = "db", path: str | os.PathLike | None = None) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        self._statistics: dict[str, tuple[int, TableStatistics]] = {}
        self._indexes: dict[tuple[str, str], RangeIndex] = {}
        self._catalog_version = 0
        self._data_counter = 0
        self._table_versions: dict[str, int] = {}
        # write path: per-table delta stores plus caches keyed on
        # (table data version, delta version)
        self._deltas: dict[str, DeltaStore] = {}
        self._tails: dict[str, tuple[int, Table]] = {}
        self._effective: dict[str, tuple[tuple[int, int], Table]] = {}
        self._effective_stats: dict[str, tuple[tuple[int, int], TableStatistics]] = {}
        self._plan_cache: OrderedDict[str, tuple[int, bool, Plan]] = OrderedDict()
        self._plan_cache_lock = threading.Lock()
        # sharding: per-table partition layout (see repro.engine.shards)
        self._shard_layouts: dict[str, Any] = {}
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

    def _log_record(self, meta: dict[str, Any], blob: bytes | None = None) -> None:
        if self._wal_active():
            self._durability.wal.append(meta, blob)

    def _log_snapshot(self, op: str, name: str, table: Table) -> None:
        """Log a DDL operation as a full-table snapshot record."""
        if not self._wal_active():
            return
        from repro.storage import layouts

        self._durability.wal.append(
            {"op": op, "table": name}, layouts.table_to_bytes(table)
        )

    def _install_recovered(
        self,
        name: str,
        table: Table,
        stats: TableStatistics | None,
        sharding: dict | None = None,
    ) -> None:
        """Register a checkpoint-restored table without logging anything."""
        self._encode_strings(table)  # no-op for columns whose codes came from disk
        self._tables[name] = table
        self._reset_delta(name)
        self._bump_catalog(name)
        if stats is not None:
            self._statistics[name] = (self._table_versions.get(name, 0), stats)
        if sharding is not None:
            from repro.engine import shards as shardsmod

            self._shard_layouts[name] = shardsmod.ShardLayout.from_manifest(sharding)
            self._register_shard_index(name)
        else:
            self._shard_layouts.pop(name, None)

    def cached_statistics(self, name: str) -> TableStatistics | None:
        """Cached statistics for a table's main iff still current, else None.

        The checkpoint writer persists exactly what is cached — nothing
        is computed at checkpoint time; missing statistics are recomputed
        lazily after recovery.
        """
        entry = self._statistics.get(name)
        if entry is None or entry[0] != self._table_versions.get(name, 0):
            return None
        return entry[1]

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
                self._adopt_checkpoint(directory)
                self._durability.release_live_dirs()
        return str(directory)

    def _adopt_checkpoint(self, directory: str | os.PathLike) -> None:
        """Re-home every main onto the just-written checkpoint's files.

        In mmap mode the freshly written part files are byte-for-byte
        the current mains (deltas were flushed first), so the catalog
        swaps its in-RAM or live-dir-backed columns for read-only maps
        of the checkpoint — this is also how a running session goes out
        of core (``PRAGMA storage=mmap`` followed by a checkpoint).  No
        version bumps: content is identical by construction, so cached
        plans, statistics, zone maps and indexes all stay valid.
        """
        import json

        directory = Path(directory)
        manifest = json.loads((directory / "MANIFEST.json").read_text())
        for table_meta in manifest["tables"]:
            name = table_meta["name"]
            if name not in self._tables:
                continue
            columns = []
            for column_meta in table_meta["columns"]:
                dtype = DataType[column_meta["dtype"]]
                columns.append((
                    column_meta["name"],
                    layouts.open_column_files(
                        directory, column_meta["files"], dtype, mode="mmap"
                    ),
                ))
            remapped = Table(columns)
            self._encode_strings(remapped)  # codes come back from disk
            self._tables[name] = remapped
            self._tails.pop(name, None)
            self._effective.pop(name, None)

    def close(self) -> None:
        """Flush and close the database; idempotent.

        Durable databases fsync any unsynced WAL tail; the shared worker
        pool is shut down deterministically (it restarts lazily if some
        other database issues a parallel query later).
        """
        if self._closed:
            return
        self._closed = True
        if self._durability is not None:
            self._durability.close()
            self._release_mmaps()
            self._durability.release_live_dirs()
        from repro.engine import parallel

        parallel.shutdown_pool()

    def _release_mmaps(self) -> None:
        """Close every memory map held by this database's tables.

        Without this, checkpoint directories stay undeletable on
        platforms with strict open-file semantics (Windows) for as long
        as the process lives.  Best-effort: maps still pinned by
        user-held column references are left to the garbage collector.
        """
        import gc

        backings = []
        for table in self._tables.values():
            for column_name in table.column_names:
                backing = table.column(column_name).backing
                if backing is not None:
                    backings.append(backing)
        if not backings:
            return
        handles = []
        for backing in backings:
            handles.extend(backing.mmap_handles())
            backing.release()
        # drop every internal reference that may pin a mapped array
        self._tables.clear()
        self._statistics.clear()
        self._effective.clear()
        self._effective_stats.clear()
        self._tails.clear()
        self._deltas.clear()
        self._indexes.clear()
        with self._plan_cache_lock:
            self._plan_cache.clear()
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
        table replacement, index (un)registration; cached plans are valid
        only for the version they were planned under.  Delta appends and
        tombstones deliberately do **not** bump it: an append changes no
        schema, no index set and no plan shape, so the plan cache
        survives the write (the per-table data version below keys the
        data-dependent caches instead)."""
        return self._catalog_version

    def _bump_catalog(self, table: str | None = None) -> None:
        """Advance the catalog version (naming the changed table, if any)
        and drop every cached plan — the catalog they were bound against
        no longer exists."""
        self._catalog_version += 1
        if table is not None:
            self._bump_data(table)
        with self._plan_cache_lock:
            self._plan_cache.clear()

    def _bump_data(self, table: str) -> None:
        """Advance a table's *data* version: its contents changed (merge,
        UPDATE, replacement) but the catalog shape did not.  Invalidates
        statistics and effective-table caches without touching cached
        plans."""
        self._data_counter += 1
        self._table_versions[table] = self._data_counter

    def _reset_delta(self, name: str) -> None:
        """Fresh (empty) delta store tracking the current main table."""
        main = self._tables.get(name)
        if main is None:
            self._deltas.pop(name, None)
        else:
            self._deltas[name] = DeltaStore(main.num_rows)
        self._tails.pop(name, None)
        self._effective.pop(name, None)
        self._effective_stats.pop(name, None)

    @staticmethod
    def _encode_strings(table: Table) -> None:
        """Eagerly dictionary-encode the STRING columns of a table."""
        if not settings.current.dict_encode:
            return
        for name in table.column_names:
            column = table.column(name)
            if column.dtype is DataType.STRING:
                column.encode_dictionary()

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
        self._log_snapshot("create", name, table)
        self._encode_strings(table)
        self._tables[name] = table
        self._reset_delta(name)
        self._bump_catalog(name)
        self._maybe_auto_shard(name)
        return table

    def drop_table(self, name: str) -> None:
        """Remove a table and everything attached to it."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        self._log_record({"op": "drop", "table": name})
        del self._tables[name]
        self._statistics.pop(name, None)
        self._table_versions.pop(name, None)
        self._shard_layouts.pop(name, None)
        self._reset_delta(name)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        self._bump_catalog()

    def replace_table(self, name: str, table: Table) -> None:
        """Swap the contents of an existing table.

        Statistics, indexes and the pending delta attached to the old
        contents are dropped, since they no longer describe the data.
        """
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        self._log_snapshot("replace", name, table)
        self._encode_strings(table)
        self._tables[name] = table
        self._statistics.pop(name, None)
        self._shard_layouts.pop(name, None)
        self._reset_delta(name)
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        self._bump_catalog(name)
        self._maybe_auto_shard(name)

    def table_names(self) -> list[str]:
        """Registered table names, sorted."""
        return sorted(self._tables)

    def has_table(self, name: str) -> bool:
        """True if a table with this name exists."""
        return name in self._tables

    def get_table(self, name: str) -> Table:
        """The named table, as queries see it.

        While the table has pending writes this is the *effective* table
        — live main rows followed by live delta rows, cached per (data
        version, delta version).  With a clean delta it is the columnar
        main itself, zero-copy.

        Raises:
            CatalogError: if the table does not exist.
        """
        main = self.main_table(name)
        store = self._deltas.get(name)
        if store is None or store.is_clean():
            return main
        key = (self._table_versions.get(name, 0), store.version)
        cached = self._effective.get(name)
        if cached is not None and cached[0] == key:
            return cached[1]
        effective = deltamod.merged_table(main, self.delta_tail(name), store)
        self._effective[name] = (key, effective)
        return effective

    def main_table(self, name: str) -> Table:
        """The columnar main of a table, ignoring any pending delta.

        The scan fast paths (zone maps, index probes) are aligned to the
        main's row positions; the executor unions in the delta tail
        separately.

        Raises:
            CatalogError: if the table does not exist.
        """
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    # -- delta store ---------------------------------------------------------------

    def _delta(self, name: str) -> DeltaStore:
        """The delta store of an existing table (created lazily)."""
        store = self._deltas.get(name)
        if store is None:
            store = DeltaStore(self.main_table(name).num_rows)
            self._deltas[name] = store
        return store

    def delta_store_if_dirty(self, name: str) -> DeltaStore | None:
        """The table's delta store when it has pending writes, else None.

        The executor's scan hot path calls this first: a None means the
        columnar main is the whole truth and every fast path applies
        unchanged.
        """
        store = self._deltas.get(name)
        if store is None or store.is_clean():
            return None
        return store

    def delta_tail(self, name: str) -> Table:
        """All pending delta rows (dead ones included, keeping positions
        stable) as a columnar table, cached per delta version."""
        store = self._delta(name)
        version = store.version
        cached = self._tails.get(name)
        if cached is not None and cached[0] == version:
            return cached[1]
        tail = deltamod.tail_table(store, self.main_table(name))
        self._tails[name] = (version, tail)
        return tail

    def delta_pressure(self, name: str) -> int:
        """Pending inserts + tombstones awaiting the next merge."""
        store = self._deltas.get(name)
        return 0 if store is None else store.write_pressure

    def flush_deltas(self, name: str | None = None) -> None:
        """Merge pending deltas into the columnar main now (all tables,
        or just one)."""
        names = [name] if name is not None else list(self._tables)
        for table_name in names:
            if table_name not in self._tables:
                raise CatalogError(f"unknown table {table_name!r}")
            self._merge_delta(table_name, reason="flush")

    def _maybe_merge(self, name: str) -> None:
        if self._replaying:
            # replay must not race ahead of history: merges happen exactly
            # where the log's merge markers say they happened
            return
        store = self._deltas.get(name)
        if store is None:
            return
        if store.write_pressure >= settings.current.delta_rows and not store.is_clean():
            self._merge_delta(name, reason="threshold")

    def _merge_delta(self, name: str, reason: str) -> None:
        """Fold a table's delta into its columnar main.

        Pure appends maintain every attached structure incrementally —
        dictionary codes ride through :func:`~repro.engine.delta.merged_table`,
        cached zone maps are extended in place of a rebuild, and cached
        statistics are absorbed with the O(delta) tail summary.  A merge
        that compacts tombstones shifts row positions, so it drops
        positional structures (registered indexes, cached stats) instead.
        """
        from repro.obs.tracing import trace

        store = self._deltas.get(name)
        if store is None or store.is_clean():
            self._reset_delta(name)
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
        tombstones = store.main_tombstones + len(store.dead_delta)
        with registry.timer("write.merge_time").time(), trace(
            "write.merge", table=name, rows=pending, tombstones=tombstones, reason=reason
        ):
            main = self._tables[name]
            pure_append = tombstones == 0
            new_main = self.get_table(name)  # the effective table IS the merge result
            self._encode_strings(new_main)  # encodes columns that never had codes
            # a sharded table re-applies its layout: appended rows route
            # to their shards by key, range bounds track the new value
            # distribution, and the extents stay contiguous
            layout = self._shard_layouts.get(name)
            re_clustered = False
            if layout is not None:
                from repro.engine import shards as shardsmod

                new_main, layout, layout_identity = shardsmod.apply_layout(
                    new_main, layout.mode, layout.key, layout.num_shards,
                    uid=layout.uid,
                )
                self._shard_layouts[name] = layout
                re_clustered = not layout_identity
            if (
                self._durability is not None
                and main.is_mapped
                and settings.current.storage == "mmap"
            ):
                # never rewrite the checkpoint files a mapped main points
                # at — they are the recovery source until the next
                # checkpoint.  The merged image is spilled to a live
                # scratch dir (write-temp-then-rename) and remapped.
                new_main = self._durability.spill_table(
                    name,
                    new_main,
                    {
                        column: new_main.schema.type_of(column)
                        for column in new_main.column_names
                    },
                )
            seeded: TableStatistics | None = None
            entry = self._statistics.get(name)
            if (
                pure_append
                and not re_clustered
                and entry is not None
                and entry[0] == self._table_versions.get(name, 0)
            ):
                seeded = deltamod.extend_statistics(entry[1], new_main, main.num_rows)
            self._tables[name] = new_main
            if not pure_append or re_clustered:
                # compaction/re-clustering renumbered rows: positional
                # indexes are stale
                index_keys = [k for k in self._indexes if k[0] == name]
                for key in index_keys:
                    del self._indexes[key]
                if index_keys:
                    self._bump_catalog(name)
                else:
                    self._bump_data(name)
            else:
                self._bump_data(name)
            self._reset_delta(name)
            if seeded is not None:
                self._statistics[name] = (self._table_versions.get(name, 0), seeded)
            else:
                self._statistics.pop(name, None)
            if layout is not None:
                from repro.engine import shards as shardsmod

                self._register_shard_index(name)
                shardsmod.record_layout_metrics(layout)
        registry.counter("write.merges").inc()
        registry.counter("write.merge_rows").inc(pending)
        if not self._replaying and name not in self._shard_layouts:
            self._maybe_auto_shard(name)

    # -- statistics ---------------------------------------------------------------

    def _main_statistics(self, name: str) -> TableStatistics:
        """Statistics of the columnar main, lazily computed and cached
        under the table's data version."""
        table = self.main_table(name)
        version = self._table_versions.get(name, 0)
        entry = self._statistics.get(name)
        if entry is None or entry[0] != version:
            entry = (version, TableStatistics.from_table(table))
            self._statistics[name] = entry
        return entry[1]

    def statistics(self, name: str) -> TableStatistics:
        """Statistics for a table as queries see it, lazily cached.

        With a clean delta these are the (exact) main statistics.  While
        writes are pending, the cached main statistics are *absorbed*
        with an O(delta) summary of the live delta rows — row/null
        counts and min/max reflect the pending writes exactly; distinct
        counts and histograms are approximate until the next merge.
        """
        main_stats = self._main_statistics(name)
        store = self.delta_store_if_dirty(name)
        if store is None:
            return main_stats
        key = (self._table_versions.get(name, 0), store.version)
        cached = self._effective_stats.get(name)
        if cached is not None and cached[0] == key:
            return cached[1]
        tail = self.delta_tail(name)
        live = store.live_delta_mask()
        if live is not None:
            tail = tail.filter(live)
        effective = deltamod.effective_statistics(main_stats, tail, store.main_tombstones)
        self._effective_stats[name] = (key, effective)
        return effective

    def invalidate_statistics(self, name: str) -> None:
        """Drop cached statistics (e.g. after the table was replaced)."""
        self._statistics.pop(name, None)
        self._effective_stats.pop(name, None)

    def zone_map(self, name: str) -> ZoneMap:
        """Zone map of the columnar *main* at the configured ``zone_rows``
        granularity.

        Zones are aligned to main row positions — the executor applies
        them to the main and evaluates the delta tail directly, so the
        map deliberately ignores pending writes.  (Tombstoned main rows
        stay summarised: bounds over a superset keep FAIL/PASS sound,
        and the scan ANDs the live mask afterwards.)  Cached inside the
        version-checked statistics entry; merges extend it incrementally.
        """
        return self._main_statistics(name).zone_map(
            self.main_table(name), settings.current.zone_rows
        )

    # -- indexes -------------------------------------------------------------------

    def register_index(self, table: str, column: str, index: RangeIndex) -> None:
        """Attach a secondary index to ``table.column``.

        The planner will route qualifying range predicates through it.
        Index positions refer to main row positions, so a pending delta
        is merged first — the index then describes exactly the table the
        caller just observed via :meth:`get_table`.

        On a sharded table the main was re-clustered when its layout was
        applied, so positions in a caller-built index refer to a row
        order that no longer exists.  The registration is honoured by
        rebuilding the index partition-local from the live column (the
        same form the automatic shard-key index takes) — probes then
        prune shards and return current row positions.
        """
        if table not in self._tables:
            raise CatalogError(f"unknown table {table!r}")
        if column not in self.main_table(table).schema:
            raise CatalogError(f"table {table!r} has no column {column!r}")
        if self.delta_store_if_dirty(table) is not None:
            self._merge_delta(table, reason="register_index")
        layout = self._shard_layouts.get(table)
        if layout is not None:
            from repro.engine import shards as shardsmod

            main = self.main_table(table)
            if main.schema.type_of(column) not in (DataType.INT64, DataType.FLOAT64):
                raise CatalogError(
                    f"cannot index {table}.{column}: a sharded table needs a "
                    "numeric column to back a partition-local cracker"
                )
            data = main.column(column)
            if data.validity is not None or (
                data.data.dtype.kind == "f" and bool(np.isnan(data.data).any())
            ):
                raise CatalogError(
                    f"cannot index {table}.{column}: NULLs/NaNs cannot back a "
                    "partition-local cracker on a sharded table"
                )
            index = shardsmod.ShardedCrackerIndex(data, layout)
        self._indexes[(table, column)] = index
        self._bump_catalog()  # cached plans may now prefer an index probe

    def unregister_index(self, table: str, column: str) -> None:
        """Detach the index on ``table.column`` if present."""
        if self._indexes.pop((table, column), None) is not None:
            self._bump_catalog()  # cached plans may reference the index

    def index_for(self, table: str, column: str) -> RangeIndex | None:
        """The registered index on ``table.column``, or None."""
        return self._indexes.get((table, column))

    # -- sharding ------------------------------------------------------------------

    def shard_layout(self, name: str):
        """The table's :class:`~repro.engine.shards.ShardLayout`, or None."""
        return self._shard_layouts.get(name)

    def _effective_rows(self, name: str) -> int:
        """Main rows plus pending delta inserts (the post-merge size)."""
        store = self._deltas.get(name)
        pending = 0 if store is None else store.pending_inserts
        return self.main_table(name).num_rows + pending

    def table_version(self, name: str) -> int:
        """The table's monotonic data version (keys the shard ship cache)."""
        return self._table_versions.get(name, 0)

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
        from repro.engine import shards as shardsmod

        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        if num_shards <= 1:
            if self._shard_layouts.pop(name, None) is not None:
                self._drop_shard_indexes(name)
                if log:
                    self._log_record({"op": "shard", "table": name, "shards": 0})
                self._bump_catalog(name)
            return
        mode, key = "hash", None
        if shard_by is not None:
            try:
                mode, key = settings.parse_shard_by(shard_by)
            except ValueError as exc:
                raise CatalogError(str(exc)) from None
        if key is None:
            key = self.main_table(name).column_names[0]
        if key not in self.main_table(name).schema:
            raise CatalogError(f"table {name!r} has no column {key!r}")
        if self.delta_store_if_dirty(name) is not None:
            self._merge_delta(name, reason="shard")
        main = self._tables[name]
        try:
            new_main, layout, identity = shardsmod.apply_layout(
                main, mode, key, num_shards
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
        self._drop_shard_indexes(name)
        if identity:
            # same rows in the same order: stats, zone maps and mapped
            # backings stay valid; only cached plans must re-bind
            self._shard_layouts[name] = layout
            self._bump_catalog()
        else:
            if (
                self._durability is not None
                and main.is_mapped
                and settings.current.storage == "mmap"
            ):
                new_main = self._durability.spill_table(
                    name,
                    new_main,
                    {
                        column: new_main.schema.type_of(column)
                        for column in new_main.column_names
                    },
                )
            self._encode_strings(new_main)
            self._tables[name] = new_main
            self._shard_layouts[name] = layout
            self._statistics.pop(name, None)
            for index_key in [k for k in self._indexes if k[0] == name]:
                del self._indexes[index_key]
            self._reset_delta(name)
            self._bump_catalog(name)
        self._register_shard_index(name)
        shardsmod.record_layout_metrics(layout)

    def _drop_shard_indexes(self, name: str) -> None:
        """Remove partition-local cracker indexes of a retired layout."""
        from repro.engine.shards import ShardedCrackerIndex

        for key in [
            k
            for k, index in self._indexes.items()
            if k[0] == name and isinstance(index, ShardedCrackerIndex)
        ]:
            del self._indexes[key]

    def _register_shard_index(self, name: str) -> None:
        """Attach a partition-local cracker index on the shard key.

        Installed directly (not via :meth:`register_index`, which would
        re-enter the merge path) and only when the key column can back a
        cracker exactly: numeric, no NULLs, no NaNs.  Skipped when an
        index on the key already exists — after an identity (pure
        append) merge the surviving index is still truthful.  Also
        skipped for mapped tables: building the cracker (and its NaN
        scan) would fault in every page, and out-of-core scans must stay
        on the streamed path where pruning skips reads and ``io.*`` is
        accounted.
        """
        from repro.engine import shards as shardsmod

        layout = self._shard_layouts.get(name)
        if layout is None or not settings.current.shard_index:
            return
        main = self.main_table(name)
        if main.is_mapped:
            return
        if layout.key not in main.schema:
            return
        if (name, layout.key) in self._indexes:
            return
        if main.schema.type_of(layout.key) not in (DataType.INT64, DataType.FLOAT64):
            return
        column = main.column(layout.key)
        if column.validity is not None:
            return
        if column.data.dtype.kind == "f" and bool(np.isnan(column.data).any()):
            return
        self._indexes[(name, layout.key)] = shardsmod.ShardedCrackerIndex(
            column, layout
        )
        self._bump_catalog()  # cached plans may now prefer an index probe

    def _maybe_auto_shard(self, name: str) -> None:
        """Shard a table per the live config when it crosses the row floor.

        Live-path only: replay reproduces sharding from the WAL's own
        ``shard`` records instead, so a changed environment config can
        never fork recovery away from history.
        """
        if self._replaying or name in self._shard_layouts:
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

    def _plan_cached(self, sql: str) -> tuple[Plan, bool]:
        """``(plan, cache_hit)`` for a SQL string.

        The cache is an LRU keyed on the exact SQL text; each entry
        remembers the catalog version *and* the optimizer setting it was
        planned under and is only served while both are current (DDL,
        table replacement and index changes bump the version and clear
        the cache; toggling ``PRAGMA optimizer`` makes old entries
        stale).  Exploration workloads re-issue the same statements
        constantly, so repeat queries skip parse/bind/plan/optimize
        entirely — what is cached is the fully *optimized* plan.
        """
        config = settings.current
        if not config.plan_cache:
            plan = plan_statement(parse(sql), self)
            if config.optimizer:
                optimize_plan(plan, self)
            return plan, False
        registry = get_registry()
        optimized = bool(config.optimizer)
        with self._plan_cache_lock:
            entry = self._plan_cache.get(sql)
            if (
                entry is not None
                and entry[0] == self._catalog_version
                and entry[1] == optimized
            ):
                self._plan_cache.move_to_end(sql)
                registry.counter("plan_cache.hits").inc()
                return entry[2], True
        plan = plan_statement(parse(sql), self)
        if optimized:
            optimize_plan(plan, self)
        registry.counter("plan_cache.misses").inc()
        with self._plan_cache_lock:
            self._plan_cache[sql] = (self._catalog_version, optimized, plan)
            self._plan_cache.move_to_end(sql)
            while len(self._plan_cache) > config.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plan, False

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
        plan = self.plan(query)
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
                    return degraded_answer(
                        plan,
                        self,
                        max_rows=config.degrade_rows,
                        reason=str(exc),
                    )
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
        plan, hit = self._plan_cached(query)
        report = self._profile_plan(plan)
        if hit:
            report.notes.append("plan cache: hit")
        return report

    def _profile_plan(self, plan: Plan) -> ExplainAnalyzeReport:
        from repro.engine.executor import execute_plan

        profiler = PlanProfiler()
        self.queries_executed += 1
        registry = get_registry()
        registry.counter("engine.queries_profiled").inc()
        with registry.timer("engine.query_time").time():
            execute_plan(plan, self, profiler=profiler)
        assert profiler.root is not None
        return ExplainAnalyzeReport(root=profiler.root, notes=list(plan.notes))

    def execute(self, statement_sql: str) -> Table | int:
        """Execute any supported statement.

        SELECTs return their result :class:`Table`; DML statements return
        the number of rows affected; DDL statements return 0.  Mutating a
        table drops its cached statistics and any registered indexes,
        since both describe the old contents.

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
        from repro.engine.sql.parser import parse_statement

        self._check_open()
        stripped = statement_sql.strip().rstrip(";").strip()
        if stripped[:6].upper() == "PRAGMA":
            return self._execute_pragma(stripped[6:].strip())
        statement = parse_statement(statement_sql)
        if isinstance(statement, SelectStatement):
            return self.sql(statement_sql)
        if isinstance(statement, ExplainStatement):
            return self._execute_explain(statement, stripped)
        if isinstance(statement, CreateTableStatement):
            self.create_table(statement.table, _empty_table(statement.columns))
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
            existing = self._shard_layouts.get(name)
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

    def _encode_registered(self) -> None:
        """``dict_encode=1`` encodes tables registered while it was off."""
        for table in self._tables.values():
            self._encode_strings(table)

    #: what a ``PRAGMA name=value`` does to *this* database once the
    #: setting is stored — the only per-setting code on the PRAGMA path
    _PRAGMA_FOLLOW_UPS = {
        "shards": _reshard_all,
        "delta_rows": _merge_over_threshold,
        "dict_encode": _encode_registered,
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

    def _execute_explain(self, statement, statement_sql: str) -> Table:
        """EXPLAIN [ANALYZE]: the plan (and measurements) as a one-column
        table of report lines, the way conventional engines present it."""
        import re

        from repro.engine.column import Column
        from repro.engine.types import DataType

        if statement.analyze:
            # route through the plan-cache-aware path (keyed on the inner
            # SELECT text) so repeat EXPLAIN ANALYZE skips planning too
            inner = re.sub(
                r"^\s*EXPLAIN\s+ANALYZE\s+", "", statement_sql, flags=re.IGNORECASE
            )
            lines = self.explain_analyze(inner).lines()
        else:
            plan = plan_statement(statement.statement, self)
            if settings.current.optimizer:
                optimize_plan(plan, self)
            lines = plan.explain().split("\n")
            lines.extend(f"note: {note}" for note in plan.notes)
        return Table([("plan", Column(lines, dtype=DataType.STRING))])

    def _execute_insert(self, statement, sql: str | None = None) -> int:
        """INSERT: constant-fold + type-check each value, append to the
        table's delta store, feed insert-capable indexes, maybe merge.

        The statement text is WAL-logged *after* validation and coercion
        succeed (a rejected statement changed nothing, so it must not be
        replayed) and *before* any in-memory state changes.

        Values may be any constant expression (``-2``, ``1+1``, ``NULL``)
        — they are folded through the normal expression kernels.  Lossy
        coercions (a fractional float into INT64, a number into STRING)
        raise :class:`~repro.errors.TypeMismatchError` instead of the old
        silent numpy truncation.
        """
        from repro.engine.expressions import fold_constant

        name = statement.table
        table = self.main_table(name)
        names = statement.columns or list(table.column_names)
        unknown = set(names) - set(table.column_names)
        if unknown:
            raise CatalogError(f"unknown column(s) in INSERT: {sorted(unknown)}")
        dtypes = {n: table.schema.type_of(n) for n in table.column_names}
        new_rows: list[tuple[Any, ...]] = []
        for row in statement.rows:
            if len(row) != len(names):
                raise CatalogError(
                    f"INSERT row width {len(row)} does not match {len(names)} columns"
                )
            values: dict[str, Any] = {}
            for column_name, expr in zip(names, row):
                if expr.referenced_columns():
                    raise CatalogError(
                        "INSERT VALUES must be constant expressions "
                        "(no column references)"
                    )
                values[column_name] = deltamod.coerce_scalar(
                    fold_constant(expr), dtypes[column_name], column_name
                )
            new_rows.append(tuple(values.get(n) for n in table.column_names))
        if sql is not None:
            self._log_record({"op": "sql", "stmt": sql})
        store = self._delta(name)
        self._feed_indexes_on_insert(name, table, new_rows)
        store.append(new_rows)
        registry = get_registry()
        registry.counter("write.inserts").inc()
        registry.counter("write.insert_rows").inc(len(new_rows))
        registry.gauge("write.delta_pressure").set(store.write_pressure)
        self._maybe_merge(name)
        return len(new_rows)

    def _feed_indexes_on_insert(
        self, name: str, table: Table, new_rows: list[tuple[Any, ...]]
    ) -> None:
        """Keep registered indexes truthful across an append.

        Insert-capable indexes (the ``UpdatableCrackerIndex`` protocol:
        an O(1) ``insert(value)`` assigning the next logical row id) are
        fed each new value — logical ids line up with main positions plus
        delta offsets because registration merges the delta first.  An
        index without ``insert`` (or facing a value it cannot hold, e.g.
        NULL) is unregistered: it no longer describes the table.
        """
        index_keys = [k for k in self._indexes if k[0] == name]
        if not index_keys:
            return
        positions = {n: i for i, n in enumerate(table.column_names)}
        for key in index_keys:
            index = self._indexes[key]
            insert = getattr(index, "insert", None)
            column_pos = positions[key[1]]
            values = [row[column_pos] for row in new_rows]
            if insert is None or any(
                v is None or isinstance(v, (str, bool)) for v in values
            ):
                del self._indexes[key]
                self._bump_catalog(name)
                continue
            for value in values:
                insert(value)

    def _execute_delete(self, statement, sql: str | None = None) -> int:
        """DELETE: tombstone matching rows instead of materialising a
        filtered copy of the table.  Main rows flip a bit in the delta
        store's dead mask, delta rows land in its dead set; nothing moves
        until the next merge compacts the table.

        WAL logging: the unfiltered form goes through
        :meth:`replace_table`, which logs an (empty) snapshot record; the
        WHERE form logs the statement text once matches are computed and
        at least one row is affected."""
        from repro.engine.expressions import truth_mask

        name = statement.table
        main = self.main_table(name)
        store = self._delta(name)
        registry = get_registry()
        if statement.where is None:
            affected = main.num_rows - store.main_tombstones + store.live_delta_count()
            # dropping every row is a structural reset, like replace_table
            self.replace_table(name, main.slice(0, 0))
            registry.counter("write.deletes").inc()
            registry.counter("write.delete_rows").inc(affected)
            return affected
        mask_main = truth_mask(statement.where, main)
        live_main = store.live_main_mask()
        if live_main is not None:
            mask_main &= live_main
        affected = int(mask_main.sum())
        dead_delta: list[int] = []
        if store.rows:
            tail = self.delta_tail(name)
            mask_tail = truth_mask(statement.where, tail)
            live_delta = store.live_delta_mask()
            if live_delta is not None:
                mask_tail &= live_delta
            dead_delta = np.flatnonzero(mask_tail).tolist()
            affected += len(dead_delta)
        if affected == 0:
            return 0
        if sql is not None:
            self._log_record({"op": "sql", "stmt": sql})
        self._notify_index_deletes(name, mask_main, dead_delta, main.num_rows)
        store.mark_main_deleted(mask_main)
        store.mark_delta_deleted(dead_delta)
        registry.counter("write.deletes").inc()
        registry.counter("write.delete_rows").inc(affected)
        registry.gauge("write.delta_pressure").set(store.write_pressure)
        self._maybe_merge(name)
        return affected

    def _notify_index_deletes(
        self, name: str, mask_main: np.ndarray, dead_delta: list[int], main_rows: int
    ) -> None:
        """Forward tombstones to delete-capable indexes.

        Purely an optimisation: the scan filters probe positions through
        the live masks regardless, so an index without ``delete`` stays
        registered and correct — it just returns dead positions the scan
        then drops.
        """
        for key in [k for k in self._indexes if k[0] == name]:
            delete = getattr(self._indexes[key], "delete", None)
            if delete is None:
                continue
            for position in np.flatnonzero(mask_main):
                delete(int(position))
            for index in dead_delta:
                delete(main_rows + index)

    def _execute_update(self, statement, sql: str | None = None) -> int:
        """UPDATE: vectorised in-place column rewrite.

        The statement text is WAL-logged after every assignment has been
        evaluated and coerced, immediately before the new table is
        installed — a type error mid-statement therefore logs nothing.

        Only assigned columns are copied — unassigned columns are shared
        with the old table — and assignments patch the payload with one
        masked write under the same typed-coercion contract as INSERT.
        Pending delta rows are rewritten tuple-wise.  Row order and
        column order are preserved; indexes on assigned columns are
        dropped (their values changed in place), others stay valid.
        """
        from repro.engine.expressions import fold_constant, truth_mask

        name = statement.table
        main = self.main_table(name)
        store = self._delta(name)
        mask_main = (
            truth_mask(statement.where, main)
            if statement.where is not None
            else np.ones(main.num_rows, dtype=bool)
        )
        live_main = store.live_main_mask()
        if live_main is not None:
            mask_main &= live_main
        affected = int(mask_main.sum())
        tail = self.delta_tail(name) if store.rows else None
        mask_tail = None
        if tail is not None:
            mask_tail = (
                truth_mask(statement.where, tail)
                if statement.where is not None
                else np.ones(tail.num_rows, dtype=bool)
            )
            live_delta = store.live_delta_mask()
            if live_delta is not None:
                mask_tail &= live_delta
            affected += int(mask_tail.sum())
        dict_encode = settings.current.dict_encode
        new_columns = {n: main.column(n) for n in main.column_names}
        new_rows = [list(row) for row in store.rows]
        positions = {n: i for i, n in enumerate(main.column_names)}
        assigned: list[str] = []
        for column_name, expr in statement.assignments:
            if column_name not in main.schema:
                raise CatalogError(f"unknown column {column_name!r} in UPDATE")
            assigned.append(column_name)
            dtype = main.schema.type_of(column_name)
            new_values = expr.evaluate(main)
            updated = deltamod.assign_column(
                new_columns[column_name], new_values, mask_main
            )
            if dtype is DataType.STRING and dict_encode:
                updated.encode_dictionary()
            new_columns[column_name] = updated
            if mask_tail is not None and mask_tail.any():
                if expr.referenced_columns():
                    tail_values = expr.evaluate(tail)
                    folded = None
                else:
                    folded = deltamod.coerce_scalar(
                        fold_constant(expr), dtype, column_name
                    )
                    tail_values = None
                for index in np.flatnonzero(mask_tail):
                    value = (
                        folded
                        if tail_values is None
                        else deltamod.coerce_scalar(
                            tail_values[int(index)], dtype, column_name
                        )
                    )
                    new_rows[int(index)][positions[column_name]] = value
        if sql is not None:
            self._log_record({"op": "sql", "stmt": sql})
        self._tables[name] = Table(
            [(n, new_columns[n]) for n in main.column_names]
        )
        if new_rows:
            store.rows = [tuple(row) for row in new_rows]
        store.touch()
        index_keys = [
            k for k in self._indexes if k[0] == name and k[1] in assigned
        ]
        for key in index_keys:
            del self._indexes[key]
        if index_keys:
            self._bump_catalog(name)
        else:
            self._bump_data(name)
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
