"""Sharded execution: partitioned tables with scatter-gather operators.

A *shard layout* splits a table's rows into N contiguous extents of one
re-clustered columnar main: rows are routed to a shard by a hash or
range function of a key column, stably reordered so shard ``s`` owns the
row range ``[offsets[s], offsets[s+1])``, and the layout (mode, key,
offsets, range bounds) persists through checkpoints and WAL replay.
Because shards are extents of the ordinary format-2 part files, mmap
mode maps the one file and slices shards lazily — a shard that is never
scheduled never faults its pages in.

Execution is scatter-gather over the one main: :func:`schedule` turns a
scan's spans into one group per shard, and the parallel module makes
each group one ``(main, spans, live)`` task of its span kernel — the
same task list and the same governed step whoever runs it — and gathers
as for any scan, so results are bit-identical to serial execution over
the same (re-clustered) table by construction.  Pruning happens before
scheduling: the executor's zone classification (this module never
consults the zone map or counts I/O itself) is split at shard extents,
and a shard left with no surviving span is never scheduled at all.  The
scatter pools by the parallel module's one rule: two scheduled shards or
more.  Nothing else scatters: a sort is one kernel on the calling thread
whatever produced its input.
"""

from __future__ import annotations

import bisect
import zlib
from typing import Sequence

import numpy as np

from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.table import Table
from repro.obs.metrics import get_registry


# -- layouts -------------------------------------------------------------------------


class ShardLayout:
    """Immutable description of one table's shard partitioning.

    ``offsets`` has N+1 entries; shard ``s`` is the row extent
    ``[offsets[s], offsets[s+1])`` of the re-clustered main.  ``bounds``
    (range mode) has N−1 ascending split points: shard 0 takes values
    ``<= bounds[0]``, shard s the values in ``(bounds[s-1], bounds[s]]``.
    """

    __slots__ = ("mode", "key", "offsets", "bounds")

    def __init__(
        self,
        mode: str,
        key: str,
        offsets: Sequence[int],
        bounds: Sequence[float] | None,
    ) -> None:
        self.mode = mode
        self.key = key
        self.offsets = [int(o) for o in offsets]
        self.bounds = [float(b) for b in bounds] if bounds is not None else None

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
    strings hash per distinct value via crc32 (through their dictionary
    codes, :meth:`Column.dictionary`).  NULL and NaN rows route to shard 0.
    """
    encoded = column.dictionary()
    if encoded is None:
        data = column.data
        if data.dtype.kind == "f":
            bits = np.ascontiguousarray(data, dtype=np.float64).view(np.uint64)
        else:
            bits = np.ascontiguousarray(data.astype(np.int64)).view(np.uint64)
        ids = (_splitmix(bits) % np.uint64(n)).astype(np.int64)
        if data.dtype.kind == "f":
            ids = np.where(np.isnan(data), 0, ids)
    else:
        codes, values = encoded
        per_value = [zlib.crc32(str(v).encode("utf-8")) % n for v in values]
        ids = np.array(per_value + [0], dtype=np.int64)[codes]  # a NULL's −1 reads 0
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
    table: Table, mode: str, key: str, num_shards: int
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
        if column.dictionary() is not None:
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
    layout = ShardLayout(mode, key, offsets.tolist(), bounds)
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


def _merged(spans: Sequence[tuple[int, int, bool]]) -> list[tuple[int, int, bool]]:
    """Adjacent spans with the same evaluate flag as one.

    Partial-aggregate merging and row-local filter masks are invariant
    to span boundaries, so fewer, larger spans mean fewer slices and
    kernel calls.  Gaps between spans (pruned zones) are never bridged —
    in mmap mode they stay unread.
    """
    out: list[tuple[int, int, bool]] = []
    for start, stop, evaluate in spans:
        if out and out[-1][1] == start and out[-1][2] == evaluate:
            out[-1] = (out[-1][0], stop, evaluate)
        else:
            out.append((start, stop, evaluate))
    return out


def schedule(
    layout: ShardLayout, ranges: Sequence[tuple[int, int, bool]] | None, profiler
) -> list[list[tuple[int, int, bool]]]:
    """A sharded scan's task spans: per scheduled shard its surviving
    global spans, merged (:func:`_merged`), in shard order — ascending
    row order.  Records the ``shard.*`` counters and annotates
    ``profiler``.
    """
    groups = [_merged(spans) for spans in plan_spans(layout, ranges) if spans]
    pruned = layout.num_shards - len(groups)
    rows = sum(stop - start for spans in groups for start, stop, _ in spans)
    registry = get_registry()
    registry.counter("shard.tasks").inc(len(groups))
    registry.counter("shard.shards_pruned").inc(pruned)
    registry.counter("shard.rows").inc(rows)
    if profiler is not None:
        profiler.annotate(
            f"shards: {len(groups)} of {layout.num_shards} scheduled, "
            f"{pruned} pruned"
        )
    return groups


# -- names the perf ledger's tracer binds --------------------------------------------
#
# No engine code calls these; each hands its arguments to the kernel it names,
# and they go when the ledger reads its layers from engine spans (ROADMAP 4(b)).


def scatter_filter(name, table: Table, predicate, ranges, layout, database, profiler) -> Table:
    """:func:`~repro.engine.parallel.streamed_filter`; goes with ROADMAP 4(b)."""
    return parallel.streamed_filter(table, predicate, ranges, profiler=profiler, layout=layout)


def scatter_fused_aggregate(
    name, table: Table, predicate, group_exprs, aggregates, group_names, ranges, layout,
    database, profiler,
) -> Table:
    """:func:`~repro.engine.parallel.fused_filter_aggregate`; goes with ROADMAP 4(b)."""
    return parallel.fused_filter_aggregate(table, predicate, group_exprs, aggregates, group_names)


def scatter_sort(name, table: Table, order_by, layout, database, profiler) -> Table:
    """:func:`~repro.engine.operators.sort_table`; goes with ROADMAP 4(b)."""
    return ops.sort_table(table, order_by)


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
