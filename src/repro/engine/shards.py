"""Sharded execution: partitioned tables with scatter-gather operators.

A *shard layout* splits a table's rows into N contiguous extents of one
re-clustered columnar main: rows are routed to a shard by a hash or
range function of a key column, stably reordered so shard ``s`` owns the
row range ``[offsets[s], offsets[s+1])``, and the layout (mode, key,
offsets, range bounds) persists through checkpoints and WAL replay.
Because shards are extents of the ordinary format-2 part files, mmap
mode maps the one file and slices shards lazily — a shard that is never
scheduled never faults its pages in.

Execution is scatter-gather: a filtered scan and a fused
filter+aggregate fan out one task per shard — the parallel module's span
kernels over the shard's own table — on the morsel pool or a governed
serial loop, and recombine with the parallel module's gathers, so
results are bit-identical to serial execution over the same
(re-clustered) table by construction.  Pruning happens before
scheduling: the executor's zone classification (this module never
consults the zone map or counts I/O itself) is split at shard extents,
and a shard left with no surviving span is never scheduled at all.  The
scatter pools by the parallel module's one rule, on the rows the
scheduled shards' spans cover.  Nothing else scatters: a sort is one
kernel on the calling thread whatever produced its input.

In process-pool mode shards are shipped to workers **once per catalog
epoch**: the parent serialises each scheduled shard to a scratch file
keyed by ``(layout uid, shard, table version, columns)``, tasks carry
the small ``("shardref", key, path)`` handle instead of the columns,
and each worker caches the materialised shard until the version moves.
``parallel.bytes_shipped`` counts the bytes actually serialised, so
repeated queries against an unchanged table ship nothing.

Each shard may also own a partition-local
:class:`~repro.indexing.updates.UpdatableCrackerIndex`
(:class:`ShardedCrackerIndex`): range probes crack each shard
independently, prune shards by their actual key min/max, and rebase the
local row ids onto the global extent.
"""

from __future__ import annotations

import atexit
import bisect
import itertools
import math
import os
import shutil
import tempfile
import zlib
from typing import TYPE_CHECKING, Any, Sequence

import numpy as np

from repro import settings
from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.obs.metrics import get_registry
from repro.storage import layouts

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.indexing.updates import UpdatableCrackerIndex


# -- layouts -------------------------------------------------------------------------

_layout_counter = itertools.count(1)


class ShardLayout:
    """Immutable description of one table's shard partitioning.

    ``offsets`` has N+1 entries; shard ``s`` is the row extent
    ``[offsets[s], offsets[s+1])`` of the re-clustered main.  ``bounds``
    (range mode) has N−1 ascending split points: shard 0 takes values
    ``<= bounds[0]``, shard s the values in ``(bounds[s-1], bounds[s]]``.
    ``uid`` identifies this layout instance process-wide (ship-cache key).
    """

    __slots__ = ("mode", "key", "offsets", "bounds", "uid")

    def __init__(
        self,
        mode: str,
        key: str,
        offsets: Sequence[int],
        bounds: Sequence[float] | None,
        uid: int | None = None,
    ) -> None:
        self.mode = mode
        self.key = key
        self.offsets = [int(o) for o in offsets]
        self.bounds = [float(b) for b in bounds] if bounds is not None else None
        self.uid = uid if uid is not None else next(_layout_counter)

    @property
    def num_shards(self) -> int:
        return len(self.offsets) - 1

    @property
    def total_rows(self) -> int:
        return self.offsets[-1]

    def shard_rows(self, shard: int) -> int:
        """Row count of one shard's extent."""
        return self.offsets[shard + 1] - self.offsets[shard]

    def to_manifest(self) -> dict:
        """JSON-safe form persisted inside checkpoint manifests."""
        return {
            "mode": self.mode,
            "key": self.key,
            "offsets": list(self.offsets),
            "bounds": list(self.bounds) if self.bounds is not None else None,
        }

    @classmethod
    def from_manifest(cls, meta: dict) -> "ShardLayout":
        return cls(meta["mode"], meta["key"], meta["offsets"], meta.get("bounds"))


# -- partitioning --------------------------------------------------------------------


def _splitmix(x: np.ndarray) -> np.ndarray:
    """Vectorised splitmix64 finaliser over a uint64 array."""
    x = x.copy()
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4B7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


def _hash_ids(column, n: int) -> np.ndarray:
    """Deterministic shard id per row of a column under hash partitioning.

    Numeric payloads hash their 64-bit patterns through splitmix64;
    strings hash per distinct value via crc32 (through the dictionary
    codes when encoded).  NULL and NaN rows route to shard 0.
    """
    data = column.data
    if data.dtype.kind in "iufb":
        if data.dtype.kind == "f":
            bits = np.ascontiguousarray(data, dtype=np.float64).view(np.uint64)
        else:
            bits = np.ascontiguousarray(data.astype(np.int64)).view(np.uint64)
        ids = (_splitmix(bits) % np.uint64(n)).astype(np.int64)
        if data.dtype.kind == "f":
            ids = np.where(np.isnan(data), 0, ids)
    else:
        encoding = column.dictionary()
        if encoding is not None:
            codes, values = encoding
            per_value = np.asarray(
                [zlib.crc32(str(v).encode("utf-8")) % n for v in values],
                dtype=np.int64,
            )
            ids = np.where(codes >= 0, per_value[np.maximum(codes, 0)], 0)
        else:
            ids = np.asarray(
                [zlib.crc32(str(v).encode("utf-8")) % n for v in data],
                dtype=np.int64,
            )
    if column.validity is not None:
        ids = np.where(column.validity, ids, 0)
    return ids


def compute_bounds(column, n: int) -> list[float]:
    """N−1 ascending range split points from the column's value quantiles."""
    values = column.valid_data()
    if values.dtype.kind == "f":
        values = values[~np.isnan(values)]
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return [0.0] * (n - 1)
    return [float(np.quantile(values, i / n)) for i in range(1, n)]


def _range_ids(column, bounds: Sequence[float]) -> np.ndarray:
    """Shard id per row under range partitioning; NULL/NaN route to 0."""
    data = np.asarray(column.data, dtype=np.float64)
    ids = np.searchsorted(
        np.asarray(bounds, dtype=np.float64), data, side="left"
    ).astype(np.int64)
    ids = np.where(np.isnan(data), 0, ids)
    if column.validity is not None:
        ids = np.where(column.validity, ids, 0)
    return ids


def apply_layout(
    table: Table, mode: str, key: str, num_shards: int, uid: int | None = None
) -> tuple[Table, ShardLayout, bool]:
    """Partition ``table`` by ``key`` into ``num_shards`` extents.

    Returns ``(table, layout, identity)``.  The table is stably
    reordered so each shard is contiguous; when the rows already sit in
    shard order (``identity`` True — e.g. range partitioning of a
    monotone key) the input table is returned untouched, so zone maps,
    statistics and mapped backings stay valid.
    """
    column = table.column(key)
    bounds: list[float] | None = None
    if mode == "range":
        if column.data.dtype.kind not in "iufb":
            raise ValueError(
                f"range sharding requires a numeric key column, got {key!r}"
            )
        bounds = compute_bounds(column, num_shards)
        ids = _range_ids(column, bounds)
    else:
        ids = _hash_ids(column, num_shards)
    counts = np.bincount(ids, minlength=num_shards)
    offsets = np.zeros(num_shards + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    layout = ShardLayout(mode, key, offsets.tolist(), bounds, uid=uid)
    identity = table.num_rows == 0 or bool(np.all(ids[1:] >= ids[:-1]))
    if identity:
        return table, layout, True
    order = np.argsort(ids, kind="stable")
    return table.take(order), layout, False


def route_ids(layout: ShardLayout, column) -> np.ndarray:
    """Shard id per row of ``column`` under an existing layout's function."""
    if layout.mode == "range":
        return _range_ids(column, layout.bounds or [])
    return _hash_ids(column, layout.num_shards)


# -- scheduling ----------------------------------------------------------------------


def plan_spans(
    layout: ShardLayout, ranges: Sequence[tuple[int, int, bool]] | None
) -> list[list[tuple[int, int, bool]]]:
    """Surviving global row spans per shard.

    ``ranges`` is a zone-map classification (FAIL zones absent) over the
    whole table, or None for an unpruned scan.  Each global range is
    split at shard boundaries; a shard with no surviving span is pruned
    from scheduling entirely.
    """
    n = layout.num_shards
    spans: list[list[tuple[int, int, bool]]] = [[] for _ in range(n)]
    if ranges is None:
        for s in range(n):
            start, stop = layout.offsets[s], layout.offsets[s + 1]
            if stop > start:
                spans[s].append((start, stop, True))
        return spans
    offsets = layout.offsets
    for start, stop, evaluate in ranges:
        s = max(0, min(bisect.bisect_right(offsets, start) - 1, n - 1))
        while start < stop and s < n:
            piece_stop = min(stop, offsets[s + 1])
            if piece_stop > start:
                spans[s].append((start, piece_stop, evaluate))
            start = max(start, offsets[s + 1])
            s += 1
    return spans


# -- epoch shipping (process pool) ---------------------------------------------------

_SCRATCH: str | None = None
_CACHE: dict[tuple, Table] = {}
_SHIPPED: dict[tuple, str] = {}
_ship_counter = itertools.count()


def _scratch_dir() -> str:
    global _SCRATCH
    if _SCRATCH is None:
        _SCRATCH = tempfile.mkdtemp(prefix="repro-shards-")
        atexit.register(shutil.rmtree, _SCRATCH, ignore_errors=True)
    return _SCRATCH


def _evict_stale(key: tuple, shipped: dict, cache: dict) -> None:
    """Drop entries for the same (layout, shard, columns) at other versions."""
    uid, shard, _version, cols = key
    for old in [k for k in shipped if (k[0], k[1], k[3]) == (uid, shard, cols) and k != key]:
        path = shipped.pop(old)
        try:
            os.unlink(path)
        except OSError:
            pass
    for old in [k for k in cache if (k[0], k[1], k[3]) == (uid, shard, cols) and k != key]:
        cache.pop(old, None)


def _ship_shard(table: Table, layout: ShardLayout, shard: int, version: int):
    """Serialise one shard to the scratch dir once per epoch; return a ref.

    The ref ``("shardref", key, path)`` is what crosses the process
    boundary.  ``parallel.bytes_shipped`` counts only actual
    serialisations: repeated queries at an unchanged table version reuse
    the file (and the workers' caches) and ship nothing.
    """
    key = (layout.uid, shard, version, tuple(table.column_names))
    if key not in _SHIPPED:
        start, stop = layout.offsets[shard], layout.offsets[shard + 1]
        blob = layouts.table_to_bytes(table.slice(start, stop))
        path = os.path.join(_scratch_dir(), f"shard-{next(_ship_counter):06d}.bin")
        with open(path, "wb") as handle:
            handle.write(blob)
        _evict_stale(key, _SHIPPED, _CACHE)
        _SHIPPED[key] = path
        _CACHE[key] = table.slice(start, stop)
        get_registry().counter("parallel.bytes_shipped").inc(len(blob))
    return ("shardref", key, _SHIPPED[key])


def _resolve(source) -> Table:
    """Materialise a task's table: a Table passes through, a shardref
    loads from the worker-side epoch cache (or the scratch file once)."""
    if isinstance(source, Table):
        return source
    _tag, key, path = source
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    with open(path, "rb") as handle:
        table = layouts.table_from_bytes(handle.read())
    _evict_stale(key, {}, _CACHE)
    _CACHE[key] = table
    return table


# -- scatter (module level: picklable for the process pool) --------------------------


def _shard_task(kernel, source, *args):
    """One shard's task: ``kernel`` over the resolved shard table."""
    return kernel(_resolve(source), *args)


def _local_spans(
    layout: ShardLayout, shard: int, spans: Sequence[tuple[int, int, bool]]
) -> list[tuple[int, int, bool]]:
    """A shard's global spans as shard-local ones, adjacent spans with
    the same evaluate flag merged.

    Partial-aggregate merging and row-local filter masks are invariant
    to chunk boundaries, so fewer, larger pieces mean fewer kernel
    launches and smaller result payloads.  Gaps between spans (pruned
    zones) are never bridged — in mmap mode they stay unread.
    """
    base = layout.offsets[shard]
    out: list[tuple[int, int, bool]] = []
    for start, stop, evaluate in spans:
        if out and out[-1][1] == start - base and out[-1][2] == evaluate:
            out[-1] = (out[-1][0], stop - base, evaluate)
        else:
            out.append((start - base, stop - base, evaluate))
    return out


def _schedule(layout, ranges, profiler):
    """Span plan + shard.* accounting; returns (spans, scheduled shards,
    the rows their spans cover)."""
    spans = plan_spans(layout, ranges)
    scheduled = [s for s in range(layout.num_shards) if spans[s]]
    pruned = layout.num_shards - len(scheduled)
    rows = sum(stop - start for s in scheduled for start, stop, _ in spans[s])
    registry = get_registry()
    registry.counter("shard.tasks").inc(len(scheduled))
    registry.counter("shard.shards_pruned").inc(pruned)
    registry.counter("shard.rows").inc(rows)
    if profiler is not None:
        profiler.annotate(
            f"shards: {len(scheduled)} of {layout.num_shards} scheduled, "
            f"{pruned} pruned"
        )
    return spans, scheduled, rows


def _sources(name, table, layout, scheduled, database, pooled):
    """Per-shard task sources: slices, or epoch-cached refs in process mode."""
    use_refs = pooled and settings.current.pool_kind == "process"
    sources = []
    for s in scheduled:
        if use_refs:
            sources.append(
                _ship_shard(table, layout, s, database.table_version(name))
            )
        else:
            sources.append(table.slice(layout.offsets[s], layout.offsets[s + 1]))
    return sources


def _scatter(kernel, name, table, ranges, layout, database, profiler, *args) -> list:
    """Run a span kernel with one task per scheduled shard.

    ``ranges`` is the executor's zone classification over the whole table
    (None for an unclassified scan); it is split at shard boundaries and
    a shard left with no surviving span is never scheduled.  Returns
    ``(offset, result)`` per task in shard order — ascending global row
    order — where ``offset`` is the global row of the task's local row 0.
    The scatter pools when those spans cover enough rows, the rule every
    scan follows.
    """
    spans, scheduled, rows = _schedule(layout, ranges, profiler)
    if not scheduled:
        # nothing survives: the kernel's result over one empty span
        return [(0, kernel(table, [(0, 0, False)], None, *args))]
    pooled = parallel.should_parallelize(rows)
    sources = _sources(name, table, layout, scheduled, database, pooled)
    if pooled:
        parallel.note_fanout(profiler, len(sources), "shard tasks")
    tasks = [
        (kernel, source, _local_spans(layout, s, spans[s]), None, *args)
        for source, s in zip(sources, scheduled)
    ]
    results = parallel._run_tasks(_shard_task, tasks, pooled)
    return list(zip([layout.offsets[s] for s in scheduled], results))


def scatter_filter(
    name: str, table: Table, predicate, ranges, layout: ShardLayout, database, profiler
) -> Table:
    """Scatter a filtered scan across shards; gather once from the main.

    Each shard returns its shard-local selection (an int array, which is
    all a process worker ships back); shifted by the shard's offset, the
    selections are ascending global positions, and one take per column
    of the re-clustered ``table`` is bit-identical to
    ``table.filter(truth_mask(...))``: each span's mask comes from the
    same row-local kernel.
    """
    results = _scatter(
        parallel._filter_spans, name, table, ranges, layout, database, profiler,
        predicate,
    )
    return parallel.gather((table, rows + offset) for offset, rows in results)


def scatter_fused_aggregate(
    name: str,
    table: Table,
    predicate,
    group_exprs,
    aggregates,
    group_names,
    ranges,
    layout: ShardLayout,
    database,
    profiler,
) -> Table:
    """Scatter the fused filter+aggregate across shards; merge partials.

    Per-shard tasks run the same fused-span kernel as the unsharded
    pooled route; the gather takes the partials in shard-span order and
    recombines with the exact partial-merge rules, so the output equals
    serial execution over the same table.
    """
    modes = parallel._partial_modes(table, aggregates)
    results = _scatter(
        parallel._fused_spans, name, table, ranges, layout, database, profiler,
        predicate, parallel._sink_columns(table, group_exprs, aggregates),
        group_exprs, aggregates, modes,
    )
    return parallel._merge_partial_aggregates(
        [partial for _, partial in results], group_exprs, aggregates, modes, group_names
    )


# The perf ledger's tracer binds this name; no engine code calls it, and it
# goes when the ledger reads its layers from engine spans (ROADMAP 4(b)).


def scatter_sort(name, table: Table, order_by, layout, database, profiler) -> Table:
    """:func:`~repro.engine.operators.sort_table`; goes with ROADMAP 4(b)."""
    return ops.sort_table(table, order_by)


# -- partition-local cracking --------------------------------------------------------


def cracker_obstacle(column) -> str | None:
    """Why ``column`` cannot back a partition-local cracker exactly, or None.

    A cracker holds plain numbers: the column must be numeric and carry
    no NULL and no NaN (the NaN scan reads the whole payload).
    """
    if column.dtype not in (DataType.INT64, DataType.FLOAT64):
        return "a sharded table needs a numeric column to back a partition-local cracker"
    if column.validity is not None or (
        column.data.dtype.kind == "f" and bool(np.isnan(column.data).any())
    ):
        return "NULLs/NaNs cannot back a partition-local cracker on a sharded table"
    return None


class ShardedCrackerIndex:
    """One lazy :class:`UpdatableCrackerIndex` per shard of a key column.

    Range lookups prune shards by the actual key min/max of each extent
    (computed lazily and NaN-safe: a NaN bound never proves exclusion),
    crack only the shards the range touches, and rebase the local row
    ids onto the shard's global offset.  Delta appends land in a linear
    tail buffer addressed at ``total_rows + i`` — matching the logical
    row ids the delta scan path expects — until the next merge rebuilds
    the index over the re-clustered main.
    """

    def __init__(
        self, column, layout: ShardLayout, variant: str = "standard", seed: int = 0
    ) -> None:
        self._column = column
        self._layout = layout
        self._variant = variant
        self._seed = seed
        self._crackers: dict[int, UpdatableCrackerIndex] = {}
        self._pending_deletes: dict[int, set[int]] = {}
        self._minmax: dict[int, tuple[Any, Any]] = {}
        self._tail_values: list[Any] = []
        self._tail_dead: set[int] = set()
        self._next_id = layout.total_rows

    @property
    def shards_built(self) -> int:
        """Number of shards whose cracker has been materialised."""
        return len(self._crackers)

    def insert(self, value: Any) -> int:
        """Queue one appended row; returns its logical row id.  O(1)."""
        row_id = self._next_id
        self._next_id += 1
        self._tail_values.append(value)
        return row_id

    def delete(self, row_id: int) -> None:
        """Queue a delete by logical row id.  O(1)."""
        layout = self._layout
        if row_id >= layout.total_rows:
            self._tail_dead.add(row_id - layout.total_rows)
            return
        shard = bisect.bisect_right(layout.offsets, row_id) - 1
        local = row_id - layout.offsets[shard]
        cracker = self._crackers.get(shard)
        if cracker is not None:
            cracker.delete(local)
        else:
            self._pending_deletes.setdefault(shard, set()).add(local)

    def lookup_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Global row ids whose key falls in the range, shard by shard,
        each shard's in its cracker's order."""
        layout = self._layout
        parts: list[np.ndarray] = []
        pruned = 0
        for shard in range(layout.num_shards):
            if layout.shard_rows(shard) == 0:
                continue
            if self._pruned(shard, low, high, low_inclusive, high_inclusive):
                pruned += 1
                continue
            local = self._cracker_for(shard).lookup_range(
                low, high, low_inclusive, high_inclusive
            )
            parts.append(local + layout.offsets[shard])
        if pruned:
            get_registry().counter("shard.shards_pruned").inc(pruned)
        for i, value in enumerate(self._tail_values):
            if i not in self._tail_dead and _value_in_range(
                value, low, high, low_inclusive, high_inclusive
            ):
                parts.append(
                    np.asarray([layout.total_rows + i], dtype=np.int64)
                )
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # -- internals -------------------------------------------------------------------

    def _shard_keys(self, shard: int) -> np.ndarray:
        """One shard's keys, in the column's own dtype (:func:`ops.key_array`)."""
        start, stop = self._layout.offsets[shard], self._layout.offsets[shard + 1]
        return ops.key_array(self._column)[start:stop]

    def _shard_minmax(self, shard: int) -> tuple[Any, Any]:
        cached = self._minmax.get(shard)
        if cached is None:
            data = self._shard_keys(shard)
            if len(data) == 0:
                cached = (math.inf, -math.inf)
            else:
                cached = (np.min(data).item(), np.max(data).item())
            self._minmax[shard] = cached
        return cached

    def _pruned(self, shard, low, high, low_inc, high_inc) -> bool:
        mn, mx = self._shard_minmax(shard)
        # NaN bounds make every comparison False: the shard stays scheduled
        if low is not None and (mx < low or (mx == low and not low_inc)):
            return True
        if high is not None and (mn > high or (mn == high and not high_inc)):
            return True
        return False

    def _cracker_for(self, shard: int) -> UpdatableCrackerIndex:
        cracker = self._crackers.get(shard)
        if cracker is None:
            # imported where a cracker is first built: the catalog imports
            # this module, and the indexing package pulls in scipy (~70 MB)
            from repro.indexing.updates import UpdatableCrackerIndex

            cracker = UpdatableCrackerIndex(
                self._shard_keys(shard), variant=self._variant, seed=self._seed + shard
            )
            for local in self._pending_deletes.pop(shard, ()):
                cracker.delete(local)
            self._crackers[shard] = cracker
        return cracker


def _value_in_range(value: Any, low, high, low_inc: bool, high_inc: bool) -> bool:
    if math.isnan(value):
        return False
    if low is not None and (value < low or (value == low and not low_inc)):
        return False
    if high is not None and (value > high or (value == high and not high_inc)):
        return False
    return True


# -- observability -------------------------------------------------------------------


def record_layout_metrics(layout: ShardLayout) -> None:
    """Publish the shard.* gauges describing one layout's row balance."""
    registry = get_registry()
    rows = [layout.shard_rows(s) for s in range(layout.num_shards)]
    biggest = max(rows) if rows else 0
    average = (sum(rows) / len(rows)) if rows else 0.0
    registry.gauge("shard.count").set(layout.num_shards)
    registry.gauge("shard.rows_max").set(biggest)
    registry.gauge("shard.rows_avg").set(average)
    registry.gauge("shard.skew_ratio").set(biggest / average if average else 0.0)
