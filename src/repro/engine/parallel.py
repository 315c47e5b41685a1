"""A scan's span tasks and the one loop that runs them.

A scan is a list of tasks, one per zone span it keeps (or, over a shard
layout, one per scheduled shard), built by :func:`_span_tasks` the same
way whoever runs them.  Its span kernel — predicate evaluation into a
row selection — runs each task through one governed step
(:func:`_run_tasks`), on the calling thread or, with ``threads >= 2``
and at least two tasks, partly on a shared ``concurrent.futures``
thread pool.  The pool runs only base-table spans: a residual filter, an
aggregation or a sort is one serial kernel on the calling thread
whatever produced its input.  The kernels are numpy-heavy and release
the GIL, so the pool is a thread pool and a task is an ordinary call
over the scan's own tables.

Correctness contract: **serial and pooled execution produce
bit-identical results.**  Every kernel is organised so that the final
combining step performs exactly the arithmetic the serial operator would
have performed:

- predicate scans run one *span kernel*, :func:`_filter_spans`, over
  ``(table, spans, live mask)`` tasks built by :func:`_span_tasks` —
  one per span, or over a shard layout one per scheduled shard, its
  global spans in one task.  It returns a *selection*: the ascending
  row positions of its source that survive, copying no column
  (:func:`select`; a DML statement marks them).  :func:`gather` then
  takes each sink column once per source (the main, and a delta tail),
  a contiguous run as a zero-copy slice: the spans partition the
  surviving rows in ascending order, so the take is the serial filter's
  output, and it keeps the base column's dictionary object.  One
  ``np.flatnonzero`` plus a ``take`` per column is the cheaper copy:
  numpy's boolean index re-scans the mask per column.  A zone-gated scan
  also hands every task its table's :class:`SelectionMemo`: within one
  table version, delta version and configuration a span's selection
  under a predicate is one fixed array, so linked views repeating a
  WHERE evaluate it once, and the filter kernel is the one place that
  reads and fills the memo on every route;
- a scan gathers only the columns its consumer reads (the columns only
  its predicate reads are evaluated, never copied), and the operator
  above it — a GROUP BY runs :func:`~repro.engine.operators.hash_aggregate`
  once — is the serial operator over the serial operator's input, so
  numpy's pairwise float summation rounds as it does serially and a
  DISTINCT aggregate sees all its group's rows.  The pool only selects.

A task is the unit of the query governor and of fault tolerance on
both runners: every task checks the active
:class:`~repro.resilience.QueryContext` before it runs and again once
it is collected, so a deadline or a cancellation surfaces within about
one span's work.  The ``slow_morsel`` / ``worker_crash`` fault sites of
:mod:`repro.resilience.faults` fire on a scan task's first run, and a
task that crashed (injected or real) is retried *serially* on the
calling thread with bounded backoff instead of poisoning the query.
Retries re-run exactly the kernel the first run ran, so results stay
bit-identical to serial execution.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro import settings
from repro.engine import operators as ops
from repro.engine import shards
from repro.engine.expressions import Expression, truth_mask
from repro.engine.sql.ast import OrderItem
from repro.engine.table import Table, concat_tables
from repro.errors import ExecutionError, ReproError
from repro.obs.metrics import get_registry
from repro.obs.profile import PlanProfiler
from repro.obs.tracing import trace
from repro.resilience import (
    QueryContext,
    current_context,
    get_injector,
)
from repro.resilience.faults import FaultInjector

_pool_lock = threading.Lock()
_pool: ThreadPoolExecutor | None = None
_pool_threads: int | None = None


def should_parallelize(tasks: int) -> bool:
    """True when a scan of ``tasks`` tasks hands some of them to the pool."""
    return settings.current.threads >= 2 and tasks >= 2


def shutdown_pool() -> None:
    """Tear down the shared worker pool (it is rebuilt lazily)."""
    global _pool, _pool_threads
    with _pool_lock:
        if _pool is not None:
            _pool.shutdown(wait=True)
        _pool = None
        _pool_threads = None


def _get_pool() -> ThreadPoolExecutor:
    """The shared thread pool, (re)built when ``threads`` changes."""
    global _pool, _pool_threads
    threads = settings.current.threads
    with _pool_lock:
        if _pool is None or _pool_threads != threads:
            if _pool is not None:
                _pool.shutdown(wait=True)
            _pool = ThreadPoolExecutor(max_workers=threads, thread_name_prefix="repro-morsel")
            _pool_threads = threads
        return _pool


def note_fanout(profiler: PlanProfiler | None, tasks: int) -> None:
    """Annotate the EXPLAIN ANALYZE node with the tasks a pooled batch ran."""
    if profiler is not None:
        profiler.annotate(f"parallel: {tasks} tasks x {settings.current.threads} threads")


_batch_counter = itertools.count()


def _run_tasks(
    fn: Callable[..., Any], arg_tuples: Sequence[tuple], profiler: PlanProfiler | None = None
) -> list[Any]:
    """Run ``fn(*args)`` for every tuple; results in order.

    The tasks run on the calling thread unless they are enough to pool
    (:func:`should_parallelize`); either way :func:`_collect` runs them.
    A pooled batch records the ``parallel.*`` metrics — task and batch
    counts, the configured worker gauge and the batch's wall time — and
    annotates ``profiler`` with its fan-out.
    """
    if not should_parallelize(len(arg_tuples)):
        return _collect(fn, arg_tuples, None)
    note_fanout(profiler, len(arg_tuples))
    registry = get_registry()
    registry.counter("parallel.morsels").inc(len(arg_tuples))
    registry.counter("parallel.batches").inc()
    registry.gauge("parallel.workers").set(settings.current.threads)
    with registry.timer("parallel.batch_time").time():
        return _collect(fn, arg_tuples, _get_pool())


def _collect(
    fn: Callable[..., Any], arg_tuples: Sequence[tuple], pool: ThreadPoolExecutor | None
) -> list[Any]:
    """Every task through one step (:func:`_step`), whoever runs it.

    Without a ``pool`` the calling thread runs the tasks in order.  A
    ``pool`` only decides who runs the first n−1: it is handed them, and
    the calling thread, which would otherwise only block, runs the last
    and then takes back, from the end, each one the pool has not
    started — a worker slow to wake delays the batch by no more than its
    own work.  A :class:`~repro.errors.ReproError` cancels what the pool
    still holds.
    """
    ctx, injector, batch = current_context(), get_injector(), next(_batch_counter)
    results: list[Any] = [None] * len(arg_tuples)
    futures: list[Future | None] = [None] * len(arg_tuples)
    collect = len(arg_tuples)  # the tasks before this one are collected in order
    try:
        if pool is not None:
            futures[:-1] = [
                pool.submit(_traced_task, fn, args, ctx, injector, (batch, i))
                for i, args in enumerate(arg_tuples[:-1])
            ]
            while collect and (futures[collect - 1] is None or futures[collect - 1].cancel()):
                collect -= 1
                results[collect] = _step(fn, arg_tuples[collect], ctx, injector, (batch, collect))
        for i in range(collect):
            results[i] = _step(fn, arg_tuples[i], ctx, injector, (batch, i), futures[i])
    except ReproError:
        for future in futures:
            if future is not None:
                future.cancel()
        raise
    return results


def _step(
    fn: Callable[..., Any],
    args: tuple,
    ctx: QueryContext | None,
    injector: FaultInjector | None,
    key: tuple[int, int],
    future: Future | None = None,
) -> Any:
    """A task's collection step: its result — from the worker's
    ``future``, else run here (:func:`_traced_task`) — then a governor
    check.  A :class:`~repro.errors.ReproError` is the statement's own
    error and is raised as it is; any other failure is a crash, and the
    task is retried serially (:func:`_retry_morsel_serially`)."""
    try:
        result = _traced_task(fn, args, ctx, injector, key) if future is None else future.result()
    except ReproError:
        raise
    except Exception as exc:
        result = _retry_morsel_serially(fn, args, key, exc)
    if ctx is not None:
        ctx.check()
    return result


#: serial retries of a task whose first run crashed
MAX_RETRIES = 2
#: base backoff before a crashed task's second serial retry (doubles per attempt)
_RETRY_BACKOFF_S = 0.001


def _retry_morsel_serially(
    fn: Callable[..., Any], args: tuple, key: tuple[int, int], exc: BaseException
) -> Any:
    """Re-run a crashed task on the calling thread with bounded backoff.

    Retries call the kernel directly — no pool, no fault injection — so
    an injected (or transient) crash recovers to the exact result the
    first run would have produced, and a
    :class:`~repro.errors.ReproError` a retry raises is the statement's
    own, raised as serial execution raises it.  Exhausted retries
    surface as :class:`~repro.errors.ExecutionError` chained to the last
    failure.
    """
    registry = get_registry()
    registry.counter("resilience.morsel_failures").inc()
    last: BaseException = exc
    for attempt in range(MAX_RETRIES):
        if attempt:
            time.sleep(_RETRY_BACKOFF_S * (2 ** (attempt - 1)))
        registry.counter("resilience.retries").inc()
        try:
            with trace(
                "resilience.retry",
                kernel=fn.__name__,
                morsel=f"{key[0]}:{key[1]}",
                attempt=attempt + 1,
            ):
                return fn(*args)
        except ReproError:
            raise
        except Exception as retry_exc:
            last = retry_exc
    raise ExecutionError(
        f"morsel {key[0]}:{key[1]} failed after {MAX_RETRIES} retries: {last}"
    ) from last


def _traced_task(
    fn: Callable[..., Any],
    args: tuple,
    ctx: QueryContext | None,
    injector: FaultInjector | None,
    key: tuple[int, int],
) -> Any:
    """One task's run, on a worker or the calling thread: governor
    checkpoint, fault sites, traced kernel."""
    if ctx is not None:
        ctx.check()
    if injector is not None:
        injector.maybe_slow(key)
        injector.maybe_crash(key)
    with trace(
        "parallel.morsel", kernel=fn.__name__, worker=threading.current_thread().name
    ):
        return fn(*args)


# -- predicate scans: span kernels ---------------------------------------------------
#
# Every predicate scan is a list of ``(table, spans, live, ...)`` tasks: a
# source table, the ``(start, stop, evaluate)`` row spans of it that survived
# zone classification (FAIL zones are absent, ``evaluate=False`` marks a PASS
# zone taken without evaluating the predicate) and an optional table-length
# mask of live (not tombstoned) rows.  A kernel slices *only* the listed
# spans, so on a memory-mapped source the rows between them are never read.

Span = tuple[int, int, bool]


def _filter_spans(
    table: Table,
    spans: Sequence[Span],
    live: np.ndarray | None,
    predicate: Expression | None,
    memo: "ScanMemo | None" = None,
) -> np.ndarray:
    """The filter-span kernel: the task's *selection* — the ascending
    positions of ``table`` whose rows survive its spans.

    A span covering the whole table is not sliced to evaluate.  Masks are
    row-local, so ``table.take(selection)`` is exactly
    ``table.filter(truth_mask & live)``; no column is copied here.  With
    a ``memo`` (a zone-gated scan's, see :class:`SelectionMemo`) an
    evaluated span's run is read from it when an earlier scan of the same
    predicate in the same epoch kept one, and kept in it otherwise — the
    one place every route, serial or pooled, main, shard or delta tail,
    reuses a selection.  Without a ``predicate`` only ``live`` selects.
    """
    runs = []
    for start, stop, evaluate in spans:
        run = memo.get(start, stop) if evaluate and memo is not None else None
        if run is None:
            whole = start == 0 and stop == table.num_rows
            mask = None
            if evaluate and predicate is not None:
                mask = truth_mask(predicate, table if whole else table.slice(start, stop))
            if live is not None:
                mask = live[start:stop] if mask is None else mask & live[start:stop]
            run = np.arange(start, stop) if mask is None else np.flatnonzero(mask) + start
            if evaluate and memo is not None:
                memo.keep(start, stop, run)
        runs.append(run)
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


# -- the selection memo --------------------------------------------------------------

#: predicates a table's :class:`SelectionMemo` keeps, least recently scanned
#: dropped first
MEMO_PREDICATES = 4


class SelectionMemo:
    """A table's evaluated span selections, kept for the next scan.

    Linked views fan one gesture out into scans that repeat a WHERE.
    Within one *epoch* — the table's data version, its delta version and
    the settings generation — a span's selection under a predicate is a
    fixed array, so it is computed once.  Per predicate key the memo
    holds *runs*: ``(source, start, stop)`` → the positions
    :func:`_filter_spans` kept of that evaluated span, the source being
    ``"main"`` or ``"tail"`` (the live delta tail).  A scan in any other
    epoch clears it whole.  It keeps :data:`MEMO_PREDICATES` predicates
    and never more positions than the epoch's ``capacity`` (the main's
    row count): a run that does not fit once every other predicate is
    gone is not kept.  Pooled tasks fill it, so it is locked.
    """

    __slots__ = ("_lock", "_epoch", "_capacity", "_entries", "_positions")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch: tuple | None = None
        self._capacity = 0
        self._entries: OrderedDict[tuple, dict[tuple, np.ndarray]] = OrderedDict()
        self._positions = 0

    def scan(self, epoch: tuple, key: tuple, capacity: int) -> "ScanMemo":
        """The handle one scan of the predicate ``key`` reads and fills."""
        with self._lock:
            if epoch != self._epoch:
                self._epoch, self._capacity = epoch, capacity
                self._entries.clear()
                self._positions = 0
            runs = self._entries.pop(key, {})
            self._entries[key] = runs
            while len(self._entries) > MEMO_PREDICATES:
                self._drop(next(iter(self._entries)))
        return ScanMemo(self, key, runs)

    def _drop(self, key: tuple) -> None:
        self._positions -= sum(len(run) for run in self._entries.pop(key).values())

    def _reuse(self, scan: "ScanMemo", span: tuple) -> np.ndarray | None:
        with self._lock:
            scan.tally[0] += 1
            run = scan.runs.get(span)
            if run is not None:
                scan.tally[1] += 1
                get_registry().counter("scan.spans_reused").inc()
        return run

    def _keep(self, scan: "ScanMemo", span: tuple, run: np.ndarray) -> None:
        with self._lock:
            if self._entries.get(scan.key) is not scan.runs or span in scan.runs:
                return  # another thread's scan dropped the entry or kept the span
            for other in [key for key in self._entries if key != scan.key]:
                if self._positions + len(run) <= self._capacity:
                    break
                self._drop(other)
            if self._positions + len(run) <= self._capacity:
                run.flags.writeable = False  # handed to every later scan as is
                scan.runs[span] = run
                self._positions += len(run)


class ScanMemo:
    """One scan's handle on its predicate's runs in a :class:`SelectionMemo`,
    for one source (:meth:`on` is the same scan's handle for another)."""

    __slots__ = ("memo", "key", "runs", "source", "tally")

    def __init__(
        self,
        memo: SelectionMemo,
        key: tuple,
        runs: dict[tuple, np.ndarray],
        source: str = "main",
        tally: list[int] | None = None,
    ) -> None:
        self.memo, self.key, self.runs, self.source = memo, key, runs, source
        #: the scan's ``[evaluated spans, reused spans]``, over all its sources
        self.tally = [0, 0] if tally is None else tally

    def on(self, source: str) -> "ScanMemo":
        """The same scan's handle for ``source``."""
        return ScanMemo(self.memo, self.key, self.runs, source, self.tally)

    def get(self, start: int, stop: int) -> np.ndarray | None:
        """The kept run of span ``[start, stop)``, or None."""
        return self.memo._reuse(self, (self.source, start, stop))

    def keep(self, start: int, stop: int, run: np.ndarray) -> None:
        """Offer the evaluated run of span ``[start, stop)`` to the memo."""
        self.memo._keep(self, (self.source, start, stop), run)


def gather(
    selections: Iterable[tuple[Table, np.ndarray]], columns: Sequence[str] | None = None
) -> Table:
    """A scan's one gather: ``(source, selection)`` pairs in ascending row
    order.  Consecutive selections of one source join, and each source
    takes its ``columns`` (the sink's; all when None) once — a selection
    that is one contiguous run as a zero-copy slice.  The pieces, at most
    a main and a delta tail, concatenate through :func:`concat_tables`.
    """
    pieces = []
    for _, run in itertools.groupby(selections, key=lambda pair: id(pair[0])):
        sources, parts = zip(*run)
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        names = sources[0].column_names if columns is None else columns
        pieces.append(Table([(name, sources[0].column(name).take(rows)) for name in names]))
    return concat_tables(pieces)


def _span_tasks(
    table: Table,
    ranges: Sequence[Span] | None,
    extra_mask: np.ndarray | None,
    tail: Table | None,
    tail_live: np.ndarray | None = None,
    profiler: PlanProfiler | None = None,
    layout: shards.ShardLayout | None = None,
    memo: ScanMemo | None = None,
) -> list[tuple]:
    """A scan's ``(source, spans, live, memo)`` tasks, the same list
    whoever runs them: one per span, or per scheduled shard.

    ``ranges`` of None is an unclassified scan — one evaluate-span over
    the whole table, none over an empty one.  Over a ``layout`` the
    spans split at shard extents and each scheduled shard is one task of
    its own spans (:func:`~repro.engine.shards.schedule`).  ``tail`` — a
    delta store's pending rows, dead ones included — rides along as a
    trailing always-evaluate task over its own small table,
    ``tail_live`` its live mask as ``extra_mask`` is the main's.  A scan
    nothing survives keeps one empty span, so the kernels still produce
    the empty result (and a global aggregate its one row) without
    evaluating the predicate.  A zone-gated scan's ``memo`` goes into
    every task, bound to the task's source.
    """
    if layout is not None:
        groups = shards.schedule(layout, ranges, profiler)
    elif ranges is not None:
        groups = [[span] for span in ranges]
    else:
        groups = [[(0, table.num_rows, True)]] if table.num_rows else []
    tasks: list[tuple] = [(table, group, extra_mask, memo) for group in groups]
    if tail is not None and tail.num_rows:
        tasks.append((tail, [(0, tail.num_rows, True)], tail_live, memo and memo.on("tail")))
    return tasks or [(table, [(0, 0, False)], None, None)]


def select(
    table: Table,
    predicate: Expression | None,
    ranges: Sequence[Span] | None,
    extra_mask: np.ndarray | None = None,
    tail: Table | None = None,
    tail_live: np.ndarray | None = None,
    profiler: PlanProfiler | None = None,
    layout: shards.ShardLayout | None = None,
    memo: ScanMemo | None = None,
) -> list[tuple[Table, np.ndarray]]:
    """A scan's selection: ``(source, positions)`` per task, in ascending
    row order — the surviving live positions of ``table``, then of
    ``tail`` (delta positions).  ``ranges`` is a zone-map classification
    (:func:`repro.engine.zonemap.classify_ranges`), or None for an
    unclassified scan; ``extra_mask`` and ``tail_live`` are the sources'
    live masks; a ``layout`` of ``table`` makes one task per scheduled
    shard; a ``memo`` serves and keeps the evaluated spans' selections.
    """
    tasks = _span_tasks(table, ranges, extra_mask, tail, tail_live, profiler, layout, memo)
    positions = _run_tasks(
        _filter_spans,
        [(source, spans, live, predicate, memo) for source, spans, live, memo in tasks],
        profiler,
    )
    return list(zip([task[0] for task in tasks], positions))


def streamed_filter(
    table: Table,
    predicate: Expression,
    ranges: Sequence[Span] | None,
    columns: Sequence[str] | None = None,
    **scan: Any,
) -> Table:
    """Filter by streaming classified spans — skipped rows are never read:
    the :func:`select` selection (``scan`` is the rest of its arguments),
    gathered once into ``columns`` (all of ``table``'s when None).

    Bit-identical to filtering ``table ++ tail`` by ``truth_mask`` and
    the live masks, then selecting ``columns``: the spans partition the
    surviving rows in ascending order and every mask comes from the same
    row-local kernel (serially or on the pool).
    """
    return gather(select(table, predicate, ranges, **scan), columns)


# -- names the perf ledger's tracer binds --------------------------------------------
#
# No engine code calls these; each hands its arguments to the kernel it names,
# and they go when the ledger reads its layers from engine spans (ROADMAP 4(b)).


def parallel_truth_mask(predicate: Expression, table: Table) -> np.ndarray:
    """:func:`truth_mask`; goes with ROADMAP 4(b)."""
    return truth_mask(predicate, table)


def parallel_filter(table: Table, predicate: Expression) -> Table:
    """:func:`~repro.engine.operators.filter_table`; goes with ROADMAP 4(b)."""
    return ops.filter_table(table, predicate)


def parallel_hash_aggregate(table, group_exprs, aggregates, group_names=None) -> Table:
    """:func:`~repro.engine.operators.hash_aggregate`; goes with ROADMAP 4(b)."""
    return ops.hash_aggregate(table, group_exprs, aggregates, group_names)


def fused_filter_aggregate(table, predicate, group_exprs, aggregates, group_names=None) -> Table:
    """:func:`~repro.engine.operators.filter_table` then ``hash_aggregate``;
    goes with ROADMAP 4(b)."""
    return ops.hash_aggregate(
        ops.filter_table(table, predicate), group_exprs, aggregates, group_names
    )


def parallel_sort(table: Table, order_by: Sequence[OrderItem]) -> Table:
    """:func:`~repro.engine.operators.sort_table`; goes with ROADMAP 4(b)."""
    return ops.sort_table(table, order_by)
