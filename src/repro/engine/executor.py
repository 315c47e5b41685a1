"""Plan execution: walks the logical plan bottom-up over in-memory tables.

Execution has two modes sharing one dispatch: the default mode runs the
plan with no measurement overhead at all, while passing a
:class:`~repro.obs.profile.PlanProfiler` brackets every node with
wall-time, row-count and byte accounting — the substrate of ``EXPLAIN
ANALYZE``.

Orthogonally, the data-parallel operators (filter, scan predicates,
hash aggregation, sort) route through the morsel-driven worker pool of
:mod:`repro.engine.parallel` whenever it is enabled (``PRAGMA
threads=N`` / ``REPRO_THREADS``) and the input is large enough; small
inputs always take the serial path.  Serial and parallel execution are
bit-identical by construction (see the parallel module docstring).

Execution is *governed*: when a :class:`~repro.resilience.QueryContext`
is active, every plan node is a checkpoint — the deadline/cancellation
token is checked before the node runs, and the node's output bytes are
charged against the memory budget after.  The parallel module adds the
finer-grained morsel-boundary checkpoints between nodes.
"""

from __future__ import annotations

import numpy as np

from repro.engine import operators as ops
from repro.engine import parallel, scanopt, shards, zonemap
from repro.engine.expressions import truth_mask
from repro.engine.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    FusedAggregateNode,
    JoinNode,
    LimitNode,
    Plan,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
)
from repro.engine.table import Table
from repro.errors import ExecutionError
from repro.obs.metrics import get_registry
from repro.obs.profile import PlanProfiler, table_nbytes
from repro.resilience import current_context
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.catalog import Database


def execute_plan(
    plan: Plan, database: "Database", profiler: PlanProfiler | None = None
) -> Table:
    """Execute a logical plan and return the result table.

    Args:
        plan: the logical plan to run.
        database: catalog resolving table and index references.
        profiler: when given, every node's wall time, input/output row
            counts and bytes touched are recorded into it.
    """
    return _execute(plan.root, database, profiler)


def _execute(
    node: PlanNode, database: "Database", profiler: PlanProfiler | None = None
) -> Table:
    context = current_context()
    if context is not None:
        context.check()
    if profiler is None:
        result = _run_node(node, database, None)
    else:
        profiler.enter(node)
        result = _run_node(node, database, profiler)
        profiler.exit(node, result)
    if context is not None and context.memory_budget_bytes is not None:
        context.charge(table_nbytes(result), node.label())
    return result


def _note_fanout(profiler: PlanProfiler | None, num_rows: int) -> None:
    """Record the morsel fan-out of a parallel operator on the profiler."""
    if profiler is not None:
        profiler.annotate(
            f"parallel: {parallel.morsel_count(num_rows)} morsels "
            f"x {parallel.get_threads()} threads"
        )


def _run_node(
    node: PlanNode, database: "Database", profiler: PlanProfiler | None
) -> Table:
    if isinstance(node, ScanNode):
        return _execute_scan(node, database, profiler)
    if isinstance(node, JoinNode):
        left = _execute(node.child, database, profiler)
        right = database.get_table(node.clause.table)
        if profiler is not None:
            profiler.note_input(right.num_rows, table_nbytes(right))
        if node.right_predicate is not None:
            if parallel.should_parallelize(right.num_rows):
                _note_fanout(profiler, right.num_rows)
                right = right.filter(
                    parallel.parallel_truth_mask(node.right_predicate, right)
                )
            else:
                right = right.filter(truth_mask(node.right_predicate, right))
        if node.right_columns is not None:
            right = right.select(node.right_columns)
        return ops.hash_join(
            left,
            right,
            node.clause.left_column,
            node.clause.right_column,
            kind=node.clause.kind,
        )
    if isinstance(node, FilterNode):
        child = _execute(node.child, database, profiler)
        if parallel.should_parallelize(child.num_rows):
            _note_fanout(profiler, child.num_rows)
            return parallel.parallel_filter(child, node.predicate)
        return ops.filter_table(child, node.predicate)
    if isinstance(node, FusedAggregateNode):
        return _execute_fused_aggregate(node, database, profiler)
    if isinstance(node, AggregateNode):
        child = _execute(node.child, database, profiler)
        if parallel.should_parallelize(child.num_rows):
            _note_fanout(profiler, child.num_rows)
            return parallel.parallel_hash_aggregate(
                child, node.group_exprs, node.aggregates, node.group_names
            )
        return ops.hash_aggregate(
            child, node.group_exprs, node.aggregates, node.group_names
        )
    if isinstance(node, ProjectNode):
        return ops.project(_execute(node.child, database, profiler), node.items)
    if isinstance(node, DistinctNode):
        return ops.distinct(_execute(node.child, database, profiler))
    if isinstance(node, SortNode):
        child = _execute(node.child, database, profiler)
        scan = node.child
        if (
            isinstance(scan, ScanNode)
            and scan.predicate is None
            and scan.probe is None
            and not scan.empty
            and database.delta_store_if_dirty(scan.table) is None
        ):
            layout = database.shard_layout(scan.table)
            if layout is not None:
                scattered = shards.scatter_sort(
                    scan.table, child, node.order_by, layout, database, profiler
                )
                if scattered is not None:
                    return scattered
        if parallel.should_parallelize(child.num_rows):
            _note_fanout(profiler, child.num_rows)
            return parallel.parallel_sort(child, node.order_by)
        return ops.sort_table(child, node.order_by)
    if isinstance(node, TopNNode):
        # one kernel on the driver thread whatever route produced the child
        child = _execute(node.child, database, profiler)
        result, candidates = ops.top_n(child, node.order_by, node.count)
        if profiler is not None:
            profiler.annotate(
                f"topn: {candidates} candidates of {child.num_rows} rows"
            )
        return result
    if isinstance(node, LimitNode):
        return ops.limit(_execute(node.child, database, profiler), node.count)
    raise ExecutionError(f"unknown plan node {type(node).__name__}")


def _scan_predicate_mask(
    node: ScanNode, table: Table, database: "Database", profiler: PlanProfiler | None
) -> np.ndarray:
    """Truth mask of the scan predicate over ``table`` (the columnar main
    or a probe result), routed through the zone-map and parallel fast
    paths under the usual gating."""
    assert node.predicate is not None
    config = scanopt.get_config()
    if (
        node.probe is None  # index probes re-order rows; zones would misalign
        and config.zone_rows > 0
        and table.num_rows > config.zone_rows
    ):
        zones = database.zone_map(node.table)
        mask, pruned, passed, num_zones = zonemap.pruned_truth_mask(
            node.predicate, table, zones
        )
        registry = get_registry()
        registry.counter("scan.zones_pruned").inc(pruned)
        registry.counter("scan.zones_passed").inc(passed)
        if profiler is not None and num_zones:
            profiler.annotate(
                f"zones: {pruned} pruned, {passed} passed of {num_zones}"
            )
        return mask
    if parallel.should_parallelize(table.num_rows):
        _note_fanout(profiler, table.num_rows)
        return parallel.parallel_truth_mask(node.predicate, table)
    return truth_mask(node.predicate, table)


def _ranges_nbytes(table: Table, ranges) -> int:
    """Upper bound on bytes the streamed ranges can fault in from disk.

    Counts the per-row footprint of the *mapped* columns only (payload +
    validity + dictionary codes; the dictionary itself is RAM-resident)
    times the rows inside non-FAIL ranges — the pages a streamed scan
    may touch.  Skipped zones contribute nothing, which is the point.
    """
    rows = sum(stop - start for start, stop, _evaluate in ranges)
    per_row = 0
    for name in table.column_names:
        column = table.column(name)
        if not column.is_mapped:
            continue
        per_row += column.data.dtype.itemsize
        if column.validity is not None:
            per_row += column.validity.dtype.itemsize
        if column.dictionary() is not None:
            per_row += 4  # int32 codes
    return rows * per_row


def _streamed_scan(
    node: ScanNode,
    table: Table,
    database: "Database",
    profiler: PlanProfiler | None,
    live_mask: np.ndarray | None = None,
) -> Table | None:
    """I/O-level pruned scan over a memory-mapped table, or None.

    When the scan qualifies for zone pruning *and* the table is backed
    by mapped checkpoint files, the zone map is consulted before any
    morsel is sliced: FAIL zones are never read at all (their pages are
    never faulted in) and the surviving zone-aligned ranges stream
    through :func:`parallel.streamed_filter`.  Returns None when the
    usual mask path should run instead.
    """
    assert node.predicate is not None
    config = scanopt.get_config()
    if (
        node.probe is not None  # index probes re-order rows; zones would misalign
        or config.zone_rows <= 0
        or table.num_rows <= config.zone_rows
        or not table.is_mapped
    ):
        return None
    zones = database.zone_map(node.table)
    if zones.row_count != table.num_rows:
        return None
    # Type errors are dtype-dependent, not data-dependent: surface them
    # exactly as the unpruned path would even when every zone is skipped.
    truth_mask(node.predicate, table.slice(0, 0))
    ranges, pruned, passed, num_zones = zonemap.classify_ranges(node.predicate, zones)
    read = _ranges_nbytes(table, ranges)
    registry = get_registry()
    registry.counter("scan.zones_pruned").inc(pruned)
    registry.counter("scan.zones_passed").inc(passed)
    registry.counter("io.zones_skipped_io").inc(pruned)
    registry.counter("io.morsels_streamed").inc(len(ranges))
    registry.counter("io.bytes_read").inc(read)
    if profiler is not None and num_zones:
        profiler.annotate(
            f"zones: {pruned} pruned, {passed} passed of {num_zones}"
        )
        profiler.annotate(
            f"io: {read} bytes read, {pruned} zones skipped, "
            f"{len(ranges)} morsels streamed"
        )
    eval_rows = sum(stop - start for start, stop, evaluate in ranges if evaluate)
    if len(ranges) > 1 and parallel.should_parallelize(eval_rows):
        _note_fanout(profiler, eval_rows)
    return parallel.streamed_filter(
        table, node.predicate, ranges, extra_mask=live_mask
    )


def _execute_scan(
    node: ScanNode, database: "Database", profiler: PlanProfiler | None
) -> Table:
    store = database.delta_store_if_dirty(node.table)
    if store is not None:
        return _scan_with_delta(node, store, database, profiler)
    table = database.get_table(node.table)
    if profiler is not None:
        profiler.note_input(table.num_rows, table_nbytes(table))
    if node.columns is not None:
        table = table.select(node.columns)
    if node.empty:
        # provably contradictory predicate: no rows, but dtype errors the
        # unoptimized filter would raise must still surface
        if node.predicate is not None:
            truth_mask(node.predicate, table.slice(0, 0))
        return table.slice(0, 0)
    if node.probe is not None:
        index = database.index_for(node.table, node.probe.column)
        if index is None:
            raise ExecutionError(
                f"plan expected an index on {node.table}.{node.probe.column}"
            )
        positions = index.lookup_range(
            node.probe.low,
            node.probe.high,
            node.probe.low_inclusive,
            node.probe.high_inclusive,
        )
        table = table.take(np.asarray(positions, dtype=np.int64))
    if node.predicate is not None:
        if node.probe is None:
            layout = database.shard_layout(node.table)
            if layout is not None:
                scattered = shards.scatter_filter(
                    node.table, table, node.predicate, layout, database, profiler
                )
                if scattered is not None:
                    return scattered
        streamed = _streamed_scan(node, table, database, profiler)
        if streamed is not None:
            return streamed
        table = table.filter(_scan_predicate_mask(node, table, database, profiler))
    return table


def _scan_with_delta(
    node: ScanNode,
    store,
    database: "Database",
    profiler: PlanProfiler | None,
) -> Table:
    """Scan a table with pending writes: the columnar main keeps every
    fast path (zone maps over main positions, tombstones ANDed in after
    the predicate), and the live delta rows ride along as a trailing
    morsel evaluated directly — it is bounded by the merge threshold.
    """
    main = database.main_table(node.table)
    tail = database.delta_tail(node.table)
    if profiler is not None:
        profiler.note_input(
            main.num_rows + store.live_delta_count(),
            table_nbytes(main) + table_nbytes(tail),
        )
        profiler.annotate(
            f"delta: {store.live_delta_count()} pending rows, "
            f"{store.main_tombstones} tombstones"
        )
    if node.columns is not None:
        main = main.select(node.columns)
        tail = tail.select(node.columns)
    if node.empty:
        if node.predicate is not None:
            truth_mask(node.predicate, main.slice(0, 0))
        return main.slice(0, 0)
    live_main = store.live_main_mask()
    live_delta = store.live_delta_mask()
    if node.probe is not None:
        index = database.index_for(node.table, node.probe.column)
        if index is None:
            raise ExecutionError(
                f"plan expected an index on {node.table}.{node.probe.column}"
            )
        positions = np.asarray(
            index.lookup_range(
                node.probe.low,
                node.probe.high,
                node.probe.low_inclusive,
                node.probe.high_inclusive,
            ),
            dtype=np.int64,
        )
        # logical ids: [0, main rows) in the main, the rest in the delta
        n_main = main.num_rows
        in_main = positions < n_main
        main_positions = positions[in_main]
        tail_positions = positions[~in_main] - n_main
        tail_positions = tail_positions[tail_positions < tail.num_rows]
        if live_main is not None:
            main_positions = main_positions[live_main[main_positions]]
        if live_delta is not None:
            tail_positions = tail_positions[live_delta[tail_positions]]
        part = main.take(main_positions).concat(tail.take(tail_positions))
        if node.predicate is not None:
            if parallel.should_parallelize(part.num_rows):
                _note_fanout(profiler, part.num_rows)
                mask = parallel.parallel_truth_mask(node.predicate, part)
            else:
                mask = truth_mask(node.predicate, part)
            part = part.filter(mask)
        return part
    if node.predicate is not None:
        main_part = _streamed_scan(node, main, database, profiler, live_mask=live_main)
        if main_part is None:
            mask = _scan_predicate_mask(node, main, database, profiler)
            if live_main is not None:
                mask &= live_main
            main_part = main.filter(mask)
    else:
        main_part = main if live_main is None else main.filter(live_main)
    tail_part = tail if live_delta is None else tail.filter(live_delta)
    if node.predicate is not None and tail_part.num_rows:
        tail_part = tail_part.filter(truth_mask(node.predicate, tail_part))
    return main_part.concat(tail_part)


def _execute_fused_aggregate(
    node: FusedAggregateNode, database: "Database", profiler: PlanProfiler | None
) -> Table:
    """Run the fused filter+aggregate pipeline over the node's base scan.

    The scan predicate and the partial aggregation are evaluated morsel
    by morsel without materialising the filtered table in between; the
    zone map (same gating as the plain scan path) contributes the
    FAIL/PASS/MAYBE range classification.
    """
    scan = node.child
    assert isinstance(scan, ScanNode) and scan.predicate is not None
    store = database.delta_store_if_dirty(scan.table)
    if store is not None and store.main_tombstones > 0:
        # tombstones in the main would misalign the fused zone ranges;
        # fall back to scan-then-aggregate (still delta-aware)
        filtered = _scan_with_delta(scan, store, database, profiler)
        if parallel.should_parallelize(filtered.num_rows):
            _note_fanout(profiler, filtered.num_rows)
            return parallel.parallel_hash_aggregate(
                filtered, node.group_exprs, node.aggregates, node.group_names
            )
        return ops.hash_aggregate(
            filtered, node.group_exprs, node.aggregates, node.group_names
        )
    # with at most appended rows pending, the effective table is the raw
    # main plus the live tail — main zone ranges stay aligned and the
    # tail becomes one always-evaluate trailing range
    table = database.get_table(scan.table)
    main_rows = database.main_table(scan.table).num_rows if store is not None else table.num_rows
    if profiler is not None:
        profiler.note_input(table.num_rows, table_nbytes(table))
        if store is not None:
            profiler.annotate(f"delta: {table.num_rows - main_rows} pending rows")
    if scan.columns is not None:
        table = table.select(scan.columns)
    config = scanopt.get_config()
    ranges = None
    if config.zone_rows > 0 and main_rows > config.zone_rows:
        zones = database.zone_map(scan.table)
        ranges, pruned, passed, num_zones = zonemap.classify_ranges(
            scan.predicate, zones
        )
        if table.num_rows > main_rows:
            ranges.append((main_rows, table.num_rows, True))
        registry = get_registry()
        registry.counter("scan.zones_pruned").inc(pruned)
        registry.counter("scan.zones_passed").inc(passed)
        if table.is_mapped:
            # the fused kernel only slices the listed ranges, so on a
            # mapped table the pruning is an I/O-level skip too
            read = _ranges_nbytes(table, ranges)
            registry.counter("io.zones_skipped_io").inc(pruned)
            registry.counter("io.morsels_streamed").inc(len(ranges))
            registry.counter("io.bytes_read").inc(read)
            if profiler is not None and num_zones:
                profiler.annotate(
                    f"io: {read} bytes read, {pruned} zones skipped, "
                    f"{len(ranges)} morsels streamed"
                )
        if profiler is not None and num_zones:
            profiler.annotate(
                f"zones: {pruned} pruned, {passed} passed of {num_zones}"
            )
    if store is None and scan.probe is None:
        layout = database.shard_layout(scan.table)
        if layout is not None:
            scattered = shards.scatter_fused_aggregate(
                scan.table,
                table,
                scan.predicate,
                node.group_exprs,
                node.aggregates,
                node.group_names,
                ranges,
                layout,
                database,
                profiler,
            )
            if scattered is not None:
                # same kernel shape, scattered one task per shard
                if profiler is not None:
                    profiler.annotate(
                        "fused: filter + partial aggregate per morsel"
                    )
                return scattered
    if profiler is not None:
        profiler.annotate("fused: filter + partial aggregate per morsel")
    if parallel.should_parallelize(table.num_rows):
        _note_fanout(profiler, table.num_rows)
    return parallel.fused_filter_aggregate(
        table,
        scan.predicate,
        node.group_exprs,
        node.aggregates,
        node.group_names,
        ranges=ranges,
    )
