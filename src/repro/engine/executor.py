"""Plan execution: walks the logical plan bottom-up over in-memory tables.

Execution has two modes sharing one dispatch: the default mode runs the
plan with no measurement overhead at all, while passing a
:class:`~repro.obs.profile.PlanProfiler` brackets every node with
wall-time, row-count and byte accounting — the substrate of ``EXPLAIN
ANALYZE``.

Every base-table read is one selection step, :func:`_selection`,
whatever its sink: a query's scan (:func:`_execute_scan`; a join's
right input is a :class:`~repro.engine.planner.ScanNode` like the
driving one, renamed to its planned output names before
:func:`~repro.engine.operators.hash_join`) or a DML statement's WHERE
(:func:`select_rows`).  Every predicate selection takes the same steps:
**classify once** against the zone map (:func:`_classify_scan` — the
only site of the ``scan.*`` / ``io.*`` counters and the ``zones:`` /
``io:`` annotations) unless an index picks the rows
(:func:`_index_rows`), **run span kernels** over ``(source, spans, live
mask)`` tasks (:func:`repro.engine.parallel.select`: one task per span,
or per shard over a shard layout, each through one governed step on
this thread or the worker pool), then one sink: a query **gathers
once** the columns its consumer reads (filtered pieces concatenate
keeping their shared dictionary; a column only the predicate reads is
evaluated, never copied), a DML statement marks the positions.  Pending writes are a
trailing tail task plus a live mask over the main and one over the
tail, and a memory-mapped main differs only in that the bytes its
surviving spans cover are counted.  Above the scan each operator is one
serial kernel whatever produced its input: the pool runs only
base-table spans.  Every route is bit-identical to serial execution by
construction (see the parallel module docstring and DESIGN.md, "Scan
pipeline").

Execution is *governed*: when a :class:`~repro.resilience.QueryContext`
is active, every plan node is a checkpoint — the deadline/cancellation
token is checked before the node runs, and the node's output bytes are
charged against the memory budget after.  The parallel module adds the
finer-grained task-boundary checkpoints between nodes.
"""

from __future__ import annotations

import numpy as np

from repro import settings
from repro.engine import operators as ops
from repro.engine import parallel, planner, zonemap
from repro.engine.expressions import Expression
from repro.engine.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    Plan,
    PlanNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopNNode,
)
from repro.engine.table import Table, concat_tables
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


def _run_node(
    node: PlanNode, database: "Database", profiler: PlanProfiler | None
) -> Table:
    if isinstance(node, ScanNode):
        return _execute_scan(node, database, profiler)
    if isinstance(node, JoinNode):
        left = _execute(node.child, database, profiler)
        right = _execute(node.right, database, profiler)
        names = node.right_names  # planned unique: hash_join never renames
        if any(out != name for name, out in names.items()):
            right = right.rename(names)
        return ops.hash_join(
            left,
            right,
            node.clause.left_column,
            names[node.clause.right_column],
            kind=node.clause.kind,
        )
    if isinstance(node, FilterNode):
        return ops.filter_table(_execute(node.child, database, profiler), node.predicate)
    if isinstance(node, AggregateNode):
        return ops.hash_aggregate(
            _execute(node.child, database, profiler),
            node.group_exprs, node.aggregates, node.group_names,
        )
    if isinstance(node, ProjectNode):
        return ops.project(_execute(node.child, database, profiler), node.items)
    if isinstance(node, DistinctNode):
        return ops.distinct(_execute(node.child, database, profiler))
    if isinstance(node, SortNode):
        return ops.sort_table(_execute(node.child, database, profiler), node.order_by)
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


def _ranges_nbytes(table: Table, ranges) -> int:
    """Upper bound on bytes the streamed ranges can fault in from disk.

    Counts the per-row footprint of the *mapped* columns only (payload,
    which for a STRING column is its 4 code bytes, plus validity; the
    dictionary is RAM-resident) times the rows inside non-FAIL ranges —
    the pages a streamed scan may touch.  Skipped zones contribute
    nothing, which is the point.
    """
    rows = sum(stop - start for start, stop, _evaluate in ranges)
    per_row = 0
    for name in table.column_names:
        column = table.column(name)
        if not column.is_mapped:
            continue
        per_row += ops.key_array(column).dtype.itemsize
        if column.validity is not None:
            per_row += column.validity.dtype.itemsize
    return rows * per_row


def _classify_scan(
    node: ScanNode, main: Table, database: "Database", profiler: PlanProfiler | None
) -> list[tuple[int, int, bool]] | None:
    """Classify a predicate scan of the columnar main against its zone map.

    The one place a scan meets the zone map, whatever route runs it:
    returns the ``(start, stop, evaluate)`` spans that survive (FAIL
    zones absent, PASS zones ``evaluate=False``), or None when the scan
    is not zone-gated — a table at or under ``zone_rows`` is one
    evaluate-span nobody classifies or slices.  Records ``scan.*``, and
    on a memory-mapped main ``io.*``: the kernels only slice the listed
    spans, so there the pruning is an I/O-level skip too.
    """
    if not 0 < settings.current.zone_rows < main.num_rows:
        return None
    ranges, pruned, passed, num_zones = zonemap.classify_ranges(
        node.predicate, database.zone_map(node.table)
    )
    registry = get_registry()
    registry.counter("scan.zones_pruned").inc(pruned)
    registry.counter("scan.zones_passed").inc(passed)
    if profiler is not None:
        profiler.annotate(f"zones: {pruned} pruned, {passed} passed of {num_zones}")
    if main.is_mapped:
        read = _ranges_nbytes(main, ranges)
        registry.counter("io.zones_skipped_io").inc(pruned)
        registry.counter("io.morsels_streamed").inc(len(ranges))
        registry.counter("io.bytes_read").inc(read)
        if profiler is not None:
            profiler.annotate(
                f"io: {read} bytes read, {pruned} zones skipped, "
                f"{len(ranges)} morsels streamed"
            )
    return ranges


def _index_rows(node: ScanNode, database, num_rows, live_main, profiler) -> np.ndarray | None:
    """Ascending main positions an index picks for the scan, tombstones
    dropped; None when no range conjunct's column has one.  The range
    conjuncts on the first indexed column (read by ``extract_probe``, as
    zone maps read them) intersect into one lookup.  The scan evaluates
    its whole predicate over these rows, so an index may return a
    superset in any order — NULL and NaN slots, crack order and pending
    inserts' positions (the tail is scanned whole) change no answer."""
    indexes = database._state(node.table).indexes
    probe = None
    for conj in planner.split_conjuncts(node.predicate) if indexes else ():
        candidate = planner.extract_probe(conj)
        if candidate is None or candidate.column not in indexes:
            continue
        if probe is None:
            probe = candidate
        else:  # None on another column (the first indexed one wins) or unorderable bounds
            probe = planner.intersect_probes(probe, candidate) or probe
    if probe is None:
        return None
    positions = indexes[probe.column].lookup_range(
        probe.low, probe.high, probe.low_inclusive, probe.high_inclusive
    )
    rows = np.sort(np.asarray(positions, dtype=np.int64))
    rows = rows[: np.searchsorted(rows, num_rows)]
    if live_main is not None:
        rows = rows[live_main[rows]]
    if profiler is not None:
        profiler.annotate(f"index: {probe.describe()}: {len(rows)} of {num_rows} rows")
    return rows


def _selection(
    node: ScanNode, database: "Database", profiler: PlanProfiler | None, memo: bool
) -> tuple[dict, np.ndarray | None]:
    """The selection step of every scan, whatever its sink: the arguments
    of :func:`parallel.select`, and the main positions an index picked
    (or None).

    The sources are the columnar main and, while writes are pending, the
    delta tail — every pending row, dead ones included, so a tail
    position is a delta position — each with its live mask (a clean
    table has neither), so zone maps, index positions and shard extents
    stay aligned to main row positions.  A pruned scan's sources hold the
    columns it reads: its ``columns`` and those its predicate reads (the
    only columns an index pick copies or a mapped scan counts as read).
    A predicate scan's index pick
    (:func:`_index_rows`) makes those rows the source, as one
    unclassified span; otherwise the main is classified once
    (:func:`_classify_scan`) and a shard layout of the clean main makes
    one task per shard.  With ``memo`` a classified scan outside the
    reference configuration (``optimizer=0``) reads and fills the
    table's selection memo, so a WHERE an earlier scan evaluated in the
    same epoch is not evaluated again.
    """
    store = database.delta_store_if_dirty(node.table)
    main = database.main_table(node.table)
    tail = live_main = live_tail = None
    if store is not None:
        tail = database.delta_tail(node.table)
        live_main, live_tail = store.live_main_mask(), store.live_delta_mask()
    if node.columns is not None:
        read = set(node.columns)
        if node.predicate is not None and not node.empty:
            read |= node.predicate.referenced_columns()
        main = main.select([name for name in main.column_names if name in read])
        if tail is not None:
            tail = tail.select(main.column_names)
    if profiler is not None:
        if store is None:
            profiler.note_input(main.num_rows, table_nbytes(main))
        else:
            profiler.note_input(
                main.num_rows + store.live_delta_count(),
                table_nbytes(main) + table_nbytes(tail),
            )
            profiler.annotate(
                f"delta: {store.live_delta_count()} pending rows, "
                f"{store.main_tombstones} tombstones"
            )
    scan = dict(
        table=main, predicate=node.predicate, ranges=None, extra_mask=live_main,
        tail=tail, tail_live=live_tail, profiler=profiler, layout=None, memo=None,
    )
    if node.predicate is None or node.empty:
        return scan, None
    picked = _index_rows(node, database, main.num_rows, live_main, profiler)
    if picked is not None:
        scan.update(table=main.take(picked), extra_mask=None)
        return scan, picked
    scan["ranges"] = _classify_scan(node, main, database, profiler)
    layout = database.shard_layout(node.table) if store is None else None
    if layout is not None and layout.total_rows == main.num_rows:
        scan["layout"] = layout
    if memo and scan["ranges"] is not None and settings.current.optimizer:
        scan["memo"] = database.selection_memo(node.table, node.predicate)
    return scan, None


def _execute_scan(
    node: ScanNode, database: "Database", profiler: PlanProfiler | None
) -> Table:
    """Every base-table scan: its selection (:func:`_selection`), gathered
    once by :func:`parallel.streamed_filter` into the columns the scan's
    consumer reads.  One route, one task list: the span tasks run through
    one governed step, partly on the pool when there are two or more and
    ``threads >= 2``.
    """
    scan, _ = _selection(node, database, profiler, memo=True)
    if node.empty:
        return scan["table"].slice(0, 0)
    if node.predicate is None:  # every live row
        sources = [(scan["table"], scan["extra_mask"]), (scan["tail"], scan["tail_live"])]
        return concat_tables([
            source if live is None else source.filter(live)
            for source, live in sources if source is not None
        ])
    result = parallel.streamed_filter(columns=node.columns, **scan)
    memo = scan["memo"]
    if profiler is not None and memo is not None and memo.tally[1]:
        evaluated, reused = memo.tally
        profiler.annotate(f"selection: {reused} of {evaluated} spans reused")
    return result


def select_rows(
    database: "Database", name: str, predicate: Expression | None
) -> tuple[np.ndarray, np.ndarray]:
    """The rows a DML statement's WHERE selects (every live row without
    one): ascending live main positions and delta positions — the
    scan's selection, marked instead of gathered.  It neither reads nor
    fills the selection memo, whose epoch the statement's own write
    ends, and an index-picked selection maps back to main positions."""
    scan, picked = _selection(ScanNode(name, predicate), database, None, memo=False)
    selection = parallel.select(**scan)
    empty, tail = np.empty(0, dtype=np.int64), scan["tail"]
    main_rows = np.concatenate([empty] + [rows for source, rows in selection if source is not tail])
    tail_rows = np.concatenate([empty] + [rows for source, rows in selection if source is tail])
    return (main_rows if picked is None else picked[main_rows]), tail_rows
