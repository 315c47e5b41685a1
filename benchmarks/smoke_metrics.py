"""Smoke benchmark: run a tiny cross-layer workload and assert that the
metrics-registry JSON snapshot is well-formed.

Exercises every observability surface in one pass — SQL execution
counters/timers, EXPLAIN ANALYZE profiling, a cracker index, the tile
and semantic caches, the adaptive store, and a recorded benchmark table
— then round-trips the snapshot through JSON and checks its shape.
CI runs this after the test suite (``python benchmarks/smoke_metrics.py``).
"""

from __future__ import annotations

import collections
import contextlib
import json
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import numpy as np
from common import metrics_snapshot, print_table

from repro import settings
from repro.engine import expressions, parallel, planner, statistics
from repro.engine import operators as ops
from repro.engine.catalog import Database
from repro.engine.column import Column
from repro.engine.expressions import col
from repro.engine.sql import parser, tokenize
from repro.engine.statistics import ColumnStatistics
from repro.engine.table import Table
from repro.engine.types import DataType, coerce_array, infer_type
from repro.errors import TypeMismatchError
from repro.explore import CubeExplorer, FacetRecommender, SeeDB, VizDeck
from repro.indexing import CrackerIndex
from repro.obs import get_registry
from repro.prefetch import SemanticRangeCache, TileCache
from repro.sampling import ApproximateQueryEngine, SampleCatalog
from repro.storage import AdaptiveStore, QueryProfile
from repro.workloads import sales_table


def run_workload() -> tuple:
    """Touch every instrumented subsystem at least once.

    Returns the instrumented objects so the caller can keep them alive
    until the snapshot is taken (stat sources are weakly referenced).
    """
    db = Database()
    rng = np.random.default_rng(0)
    db.create_table(
        "sales",
        {
            "region": [f"r{i % 5}" for i in range(1000)],
            "amount": rng.uniform(0, 100, 1000).tolist(),
        },
    )
    db.sql("SELECT region, SUM(amount) AS total FROM sales GROUP BY region")
    report = db.explain_analyze(
        "SELECT DISTINCT region FROM sales WHERE amount > 50 ORDER BY region LIMIT 3"
    )
    assert report.total_s >= 0 and report.root.rows_out <= 3

    values = rng.uniform(0, 1000, 10_000)
    index = CrackerIndex(values)
    for low in (100, 400, 700):
        index.lookup_range(low, low + 50, True, False)

    tiles = TileCache(capacity=4)
    for key in (1, 2, 1, 3):
        if tiles.get(key) is None:
            tiles.put(key, f"tile-{key}")

    cache = SemanticRangeCache(
        fetch=lambda low, high: np.flatnonzero((values >= low) & (values < high))
    )
    cache.query(0, 100)
    cache.query(50, 150)

    store = AdaptiveStore(columns=["a", "b", "c"], num_rows=1000)
    for _ in range(20):
        store.execute(QueryProfile.make(filters=["a"], projects=["a", "b"]))

    print_table("smoke: row counts", ["step", "rows"], [["sales", 1000]])
    return index, tiles, cache, store


def check_column_fast_path(n: int = 200_000, repeats: int = 3) -> float:
    """Guard the vectorised ``Column.__init__`` fast path for plain number
    lists: it must stay well ahead of the per-element scan it replaced
    (reproduced inline below) while building the identical payload."""
    values = list(range(n))

    def slow_reference():
        # the pre-fast-path construction: a per-element null scan, a
        # per-element type inference pass, then list coercion
        assert not any(v is None for v in values)
        dtype = infer_type(values)
        return coerce_array(values, dtype), dtype

    fast_s, slow_s = float("inf"), float("inf")
    column = None
    for _ in range(repeats):
        start = time.perf_counter()
        column = Column(values)
        fast_s = min(fast_s, time.perf_counter() - start)
        start = time.perf_counter()
        slow_data, slow_dtype = slow_reference()
        slow_s = min(slow_s, time.perf_counter() - start)

    assert column.dtype is slow_dtype
    assert column.validity is None
    assert np.array_equal(column.data, slow_data)
    speedup = slow_s / fast_s
    # the honest ratio is ~2x (two python passes + asarray vs one asarray);
    # 1.4x leaves noise headroom while still catching a lost fast path
    assert speedup >= 1.4, (
        f"Column fast path regressed: only {speedup:.1f}x over the element scan"
    )
    return speedup


def check_strings_encode_without_sorting_rows(
    n: int = 200_000, distinct: int = 500, repeats: int = 3
) -> float:
    """Guard building an object STRING column, which encodes it: a hash
    factorize plus a sort of the distinct values only must build exactly
    the sorted codes and dictionary ``np.unique`` builds (reproduced
    inline below), well ahead of that sort over every row."""
    rng = np.random.default_rng(0)
    labels = np.array([f"product-{i:04d}" for i in range(distinct)], dtype=object)
    values = labels[rng.integers(0, distinct, n)]

    fast_s, slow_s = float("inf"), float("inf")
    codes = dictionary = reference = None
    for _ in range(repeats):
        start = time.perf_counter()
        column = Column(values, dtype=DataType.STRING)
        fast_s = min(fast_s, time.perf_counter() - start)
        codes, dictionary = column.dictionary()
        start = time.perf_counter()
        reference = np.unique(values, return_inverse=True)
        slow_s = min(slow_s, time.perf_counter() - start)

    assert dictionary.dtype == object and dictionary.tolist() == reference[0].tolist()
    assert codes.dtype == np.int32 and np.array_equal(codes, reference[1])
    speedup = slow_s / fast_s
    # ~6x measured (200k rows, 500 values); 2x still catches a row sort
    assert speedup >= 2.0, (
        f"string encoding regressed: only {speedup:.1f}x over np.unique"
    )
    return speedup


def check_sort_is_one_kernel(n: int = 300_000) -> int:
    """Guard the full ``ORDER BY`` (no LIMIT) with counts, not a clock: at
    threads=2, over a plain table and over 4 shards, it runs no pool
    batch and no shard task — a sort is one kernel on the calling thread whatever
    produced its input — and answers what threads=0 answers, bit for bit.
    Returns the rows sorted per statement."""
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table(
        "big", {"a": rng.integers(0, 1000, n).tolist(), "s": rng.normal(size=n).tolist()}
    )
    sql = "SELECT a, s FROM big ORDER BY a DESC, s"
    counters = [get_registry().counter(name) for name in ("parallel.batches", "shard.tasks")]
    saved = settings.snapshot()
    try:
        for shards in (0, 4):
            db.apply_sharding("big", shards, shard_by="hash(a)")
            settings.configure(threads=0)
            want = db.sql(sql)
            settings.configure(threads=2)
            before = [counter.value for counter in counters]
            got = db.sql(sql)
            batches, tasks = (counter.value - b for counter, b in zip(counters, before))
            assert (batches, tasks) == (0, 0), (
                f"ORDER BY over {shards} shards ran {batches} batches and {tasks} shard tasks"
            )
            for name in ("a", "s"):
                assert got.column(name).data.tobytes() == want.column(name).data.tobytes(), (
                    f"ORDER BY over {shards} shards differs from threads=0 in {name!r}"
                )
    finally:
        settings.restore(saved)
        parallel.shutdown_pool()
    return n


def check_straddling_group_by_ratio(zone_rows: int = 32_768, repeats: int = 5) -> float:
    """Guard the scan gather's dictionary: a GROUP BY on an encoded STRING
    key over a brush that straddles a zone boundary (two spans, gathered)
    must stay within 1.8x of the same-width brush inside one zone (one
    span, nothing to gather).  A gather that drops the shared dictionary
    sends the grouping through its per-row string fallback — 3-4x."""
    n, width = 2 * zone_rows, 30_000
    db = Database()
    db.create_table(
        "brushed",
        {"k": list(range(n)), "g": [f"group{i % 12:02d}" for i in range(n)]},
    )
    saved = settings.snapshot()
    walls = {}
    try:
        settings.configure(threads=0, zone_rows=zone_rows)
        for label, low in (("inside", 1_000), ("straddling", zone_rows - width // 2)):
            sql = (
                "SELECT g, COUNT(*) AS n FROM brushed "
                f"WHERE k >= {low} AND k < {low + width} GROUP BY g"
            )
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                groups = db.sql(sql).num_rows
                best = min(best, time.perf_counter() - start)
                assert groups == 12
            walls[label] = best
    finally:
        settings.restore(saved)
    ratio = walls["straddling"] / walls["inside"]
    assert ratio <= 1.8, (
        f"GROUP BY over a zone-straddling brush is {ratio:.1f}x the in-zone one "
        f"({walls['straddling'] * 1e3:.1f} ms vs {walls['inside'] * 1e3:.1f} ms)"
    )
    return ratio


@contextlib.contextmanager
def per_group_slices():
    """Count the ``Column.slice`` calls made inside
    ``operators.aggregate_groups``, which every grouped aggregation reaches
    (``hash_aggregate`` and the recommenders alike): slicing the argument
    once per group is what a per-group aggregation does.  Yields a
    one-item list holding the count."""
    slices, inside = [0], []
    real_slice, real_aggregate = Column.slice, ops.aggregate_groups

    def slice_spy(self, start, stop):
        slices[0] += bool(inside)
        return real_slice(self, start, stop)

    def aggregate_spy(*args):
        inside.append(1)
        try:
            return real_aggregate(*args)
        finally:
            inside.pop()

    Column.slice, ops.aggregate_groups = slice_spy, aggregate_spy
    try:
        yield slices
    finally:
        Column.slice, ops.aggregate_groups = real_slice, real_aggregate


def check_no_group_gathers(n: int = 200_000) -> int:
    """Guard the group kernel with a count, not a clock: the five
    aggregate views of a dashboard-shaped table (dictionary keys, a 1-10
    int key, float SUM/AVG, a global MIN/MAX) must take no per-group
    gather — no column is sliced per group (:func:`per_group_slices`) —
    and find the right groups; so must a COUNT(DISTINCT) and a STRING MIN,
    which must also equal the brushed rows' distinct pairs.
    Returns the rows the views aggregated."""
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table(
        "sales",
        {
            "ts": np.cumsum(rng.integers(1, 5, n)).tolist(),
            "price": np.round(rng.gamma(2.0, 20.0, n), 4).tolist(),
            "qty": rng.integers(1, 11, n).tolist(),
            "region": [f"region_{i:02d}" for i in rng.integers(0, 12, n)],
            "channel": [("partner", "phone", "store", "web")[i] for i in rng.integers(0, 4, n)],
            "product": [f"product_{i:03d}" for i in rng.integers(0, 500, n)],
        },
    )
    ts = db.get_table("sales").column("ts").data
    where = f"WHERE ts >= {ts[n // 10]} AND ts < {ts[n // 2]}"
    brushed = n // 2 - n // 10
    views = {
        f"SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM sales {where} "
        "GROUP BY region ORDER BY region": 12,
        f"SELECT channel, COUNT(*) AS n, SUM(price) AS revenue FROM sales {where} "
        "GROUP BY channel ORDER BY channel": 4,
        f"SELECT qty, COUNT(*) AS n, AVG(price) AS avg_price FROM sales {where} "
        "GROUP BY qty ORDER BY qty": 10,
        f"SELECT product, COUNT(*) AS n, SUM(price) AS revenue FROM sales {where} "
        "GROUP BY product": 500,
        "SELECT COUNT(*) AS n, SUM(price) AS revenue, AVG(price) AS avg_price, "
        f"MIN(price) AS min_price, MAX(price) AS max_price FROM sales {where}": 1,
    }
    with per_group_slices() as slices:
        for sql, groups in views.items():
            result = db.sql(sql)
            assert result.num_rows == groups, f"{groups} groups expected: {sql}"
            assert int(result.column("n").data.sum()) == brushed, sql
        # DISTINCT aggregates and STRING MIN/MAX run the same kernel
        distinct = db.sql(
            f"SELECT region, COUNT(DISTINCT product) AS n, MIN(product) AS lo FROM sales "
            f"{where} GROUP BY region ORDER BY region"
        )
    assert slices == [0], f"{slices[0]} columns sliced per group"
    rows = db.sql(f"SELECT region, product FROM sales {where}")
    pairs = set(zip(rows.column("region").to_list(), rows.column("product").to_list()))
    assert distinct.num_rows == 12 and list(distinct.rows()) == [
        (region, sum(r == region for r, _ in pairs), min(p for r, p in pairs if r == region))
        for region in sorted({r for r, _ in pairs})
    ], "COUNT(DISTINCT) / MIN of a STRING differ from the brushed rows'"
    return brushed * len(views)


def check_scan_gathers_once(zone_rows: int = 4_096) -> int:
    """Guard the selection-vector gather with counts, not a clock: over a
    brush that straddles 4 zones, the scan under a GROUP BY takes each
    column the aggregate reads (``region``, ``price``) once per task
    source, serially and on the pool alike — the pool's tasks only
    select — and a plain filter takes each column it outputs once per
    scan, serially and at threads=2; ``ts`` and ``qty``, read only by the
    predicate, and ``product``, read by nothing, are never taken.  The same holds again over 4 ``range(ts)`` shards,
    where the tasks are the scheduled shards.  Both answer what
    ``optimizer=0, zone_rows=0`` answers.  Returns the columns taken."""
    n = 8 * zone_rows
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("t", {
        "ts": list(range(n)),
        "qty": rng.integers(1, 11, n).tolist(),
        "region": [f"region_{i}" for i in rng.integers(0, 12, n)],
        "price": np.round(rng.gamma(2.0, 20.0, n), 4).tolist(),
        "product": [f"product_{i}" for i in rng.integers(0, 50, n)],
    })
    where = f"WHERE ts >= {zone_rows // 2} AND ts < {3 * zone_rows + zone_rows // 2} AND qty > 2"
    statements = {  # SQL -> the main columns its scan gathers
        f"SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM t {where} GROUP BY region":
            ["price", "region"],
        f"SELECT region, COUNT(*) AS n, MAX(price) AS top FROM t {where} GROUP BY region":
            ["price", "region"],
        f"SELECT region, price FROM t {where}": ["price", "region"],
    }
    main: list[tuple[str, np.ndarray]] = []
    local = threading.local()  # takes outside the gather do not count
    taken: list[str] = []
    real_take, real_gather = Column.take, parallel.gather

    def take_spy(self, indices):
        if getattr(local, "gathering", False):
            payload = ops.key_array(self)  # a STRING column's codes
            taken.extend(name for name, data in main if np.may_share_memory(payload, data))
        return real_take(self, indices)

    def gather_spy(*args, **kwargs):
        local.gathering = True
        try:
            return real_gather(*args, **kwargs)
        finally:
            local.gathering = False

    total = 0
    saved = settings.snapshot()
    try:
        for shards in (0, 4):
            if shards:  # ts ascends, so the range layout keeps the main's rows
                db.apply_sharding("t", shards, shard_by="range(ts)")
            base = db.main_table("t")
            main[:] = [(name, ops.key_array(base.column(name))) for name in base.column_names]
            for threads in (0, 2):
                for sql, gathered in statements.items():
                    settings.configure(threads=threads, zone_rows=zone_rows, optimizer=True)
                    plan = db.explain_analyze(sql).render()
                    assert "zones: 4 pruned, 0 passed of 8" in plan, sql
                    assert ("shards: 2 of 4 scheduled" in plan) == bool(shards), sql
                    taken.clear()
                    Column.take, parallel.gather = take_spy, gather_spy
                    try:
                        got = db.sql(sql)
                    finally:
                        Column.take, parallel.gather = real_take, real_gather
                    assert sorted(taken) == sorted(gathered), (
                        f"shards={shards} threads={threads}: {len(taken)} column takes, "
                        f"{sorted(set(taken))}: {sql}"
                    )
                    total += len(taken)
                    settings.configure(optimizer=False, zone_rows=0)
                    want = db.sql(sql)
                    assert got.schema == want.schema and list(got.rows()) == list(want.rows()), sql
    finally:
        settings.restore(saved)
        parallel.shutdown_pool()
    return total


def check_join_right_scan_prunes(n: int = 200_000) -> int:
    """Guard the join's right input with a count: a dimension clustered on
    ``day`` joined under a pushed ``day`` range is a zone-gated scan —
    ``scan.zones_pruned`` moves — and answers what the unoptimized plan
    (filter above the join) answers.  Returns the zones pruned."""
    rng = np.random.default_rng(0)
    db = Database()
    db.create_table("days", {"day": list(range(n)), "w": rng.integers(0, 100, n).tolist()})
    db.create_table(
        "facts", {"id": list(range(20_000)), "day_id": rng.integers(0, n, 20_000).tolist()}
    )
    join = "SELECT id, day, w FROM facts JOIN days ON day_id = day"
    brushed = f"{join} WHERE day >= {n // 10} AND day < {n // 4}"
    pruned = get_registry().counter("scan.zones_pruned")
    saved = settings.snapshot()
    try:
        settings.configure(optimizer=False)
        reference = db.sql(brushed)
        settings.configure(optimizer=True)
        before = pruned.value
        db.sql(join)
        # the counter is live: with no right predicate nothing is classified
        assert pruned.value == before
        result = db.sql(brushed)
    finally:
        settings.restore(saved)
    assert pruned.value > before, "the pushed range pruned no zone of the right table"
    assert result.schema == reference.schema and 0 < result.num_rows < 20_000
    for name in result.column_names:
        assert result.column(name).validity is None and np.array_equal(
            result.column(name).data, reference.column(name).data
        ), name
    return pruned.value - before


def check_index_scans_share_the_pipeline(
    n: int = 1_000_000, warmup: int = 100, repeats: int = 5
) -> float:
    """Guard "an index picks rows, the scan pipeline reads them" with a
    ratio, an answer and a route: once ``warmup`` range queries have
    cracked a ``CrackerIndex`` on an unclustered column, a 1 % GROUP BY
    must run at least 3x faster than with the index unregistered (each
    repeat a first evaluation, not a selection-memo reuse), return
    the same table bit for bit, and go through the scan pipeline's
    ``parallel.streamed_filter`` like any other filtered aggregate.
    Returns the speedup."""
    rng = np.random.default_rng(0)
    domain = 100_000
    width = domain // 100
    db = Database()
    db.create_table(
        "t",
        {
            "x": rng.integers(0, domain, n).tolist(),
            "g": rng.integers(0, 16, n).tolist(),
            "v": rng.normal(100.0, 10.0, n).tolist(),
        },
    )
    db.register_index("t", "x", CrackerIndex(np.asarray(db.get_table("t").column("x").data)))
    for low in rng.integers(0, domain - width, warmup):
        db.sql(f"SELECT COUNT(*) AS n FROM t WHERE x >= {low} AND x < {low + width}")
    low = int(rng.integers(0, domain - width))
    sql = (
        "SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t "
        f"WHERE x >= {low} AND x < {low + width} GROUP BY g"
    )
    streamed = parallel.streamed_filter
    calls = []

    def spy(*args, **kwargs):
        calls.append(1)
        return streamed(*args, **kwargs)

    def best() -> tuple[float, Table]:
        times = []
        for _ in range(repeats):
            # a new settings generation: the unindexed scan evaluates its
            # WHERE every time instead of reusing its selection memo
            settings.configure(threads=0)
            started = time.perf_counter()
            result = db.sql(sql)
            times.append(time.perf_counter() - started)
        return min(times), result

    saved = settings.snapshot()
    try:
        settings.configure(threads=0, optimizer=True)
        assert f"index: x in [{low}, {low + width}): " in db.explain_analyze(sql).render()
        parallel.streamed_filter = spy
        indexed_s, indexed = best()
        assert len(calls) == repeats, "the indexed GROUP BY left the scan pipeline"
        db.unregister_index("t", "x")
        plain_s, plain = best()
    finally:
        parallel.streamed_filter = streamed
        settings.restore(saved)
    assert indexed.schema == plain.schema and indexed.num_rows == plain.num_rows == 16
    for name in plain.column_names:
        assert indexed.column(name).validity is None and np.array_equal(
            indexed.column(name).data, plain.column(name).data
        ), name
    speedup = plain_s / indexed_s
    assert speedup >= 3.0, (
        f"the indexed 1 % GROUP BY is only {speedup:.1f}x the unindexed scan "
        f"({indexed_s * 1e3:.2f} ms vs {plain_s * 1e3:.2f} ms)"
    )
    return speedup


def check_sampled_intervals_cover(n: int = 200_000, seeds: int = 20) -> float:
    """Guard the bound, not only the point estimate: grouped COUNT and SUM
    from a 2 % uniform sample, over fixed seeds — every interval must be
    non-degenerate (a sampled group's size is an estimate, never ``± 0``)
    and at least 90 % of the (seed, group, aggregate) cells must contain
    the exact value: a share, not one lucky seed.  Returns that share."""
    rng = np.random.default_rng(0)
    codes = rng.integers(0, 8, n)
    price = rng.normal(100.0, 10.0, n)
    table = Table([
        ("region", Column(np.array([f"region_{i}" for i in range(8)], dtype=object)[codes])),
        ("price", Column(price)),
    ])
    exact = {
        "count": np.bincount(codes, minlength=8).astype(float),
        "sum": np.bincount(codes, weights=price, minlength=8),
    }
    hits = cells = 0
    for seed in range(seeds):
        catalog = SampleCatalog(table)
        catalog.add_uniform(0.02, seed=seed)
        engine = ApproximateQueryEngine(table, catalog)
        for aggregate, truth in exact.items():
            answer = engine.query(
                aggregate, None if aggregate == "count" else "price", group_by=["region"]
            )
            assert len(answer.group_estimates) == 8
            for (region,), estimate in answer.group_estimates.items():
                assert estimate.half_width > 0, f"{aggregate} of {region}: ± 0 from a sample"
                hits += estimate.contains(truth[int(region[-1])])
                cells += 1
    share = hits / cells
    assert share >= 0.90, f"only {hits} of {cells} sampled intervals contain the exact value"
    return share


def check_views_run_on_group_kernel(n: int = 200_000, repeats: int = 3) -> float:
    """Guard "a recommended view is a GROUP BY" with a ratio and a count:
    SeeDB's exact pass over 2 dimensions x 4 measures must stay within 4x
    of the two ``GROUP BY dim, (region = 'north')`` statements that
    compute the same SUMs and COUNTs through ``Database.sql`` (192x when
    every view ran a private per-group loop), and SeeDB, facets, the cube
    and VizDeck must slice no column per group (:func:`per_group_slices`).
    Returns the ratio."""
    db = Database()
    db.create_table("sales", sales_table(n, seed=0))
    table = db.get_table("sales")
    dimensions = ["region", "category"]
    measures = ["price", "quantity", "revenue", "discount"]
    target = col("region") == "north"
    partials = ", ".join(f"SUM({m}) AS s_{m}, COUNT({m}) AS c_{m}" for m in measures)
    statements = [
        f"SELECT {d}, region = 'north' AS is_target, {partials} FROM sales "
        f"GROUP BY {d}, region = 'north'"
        for d in dimensions
    ]

    def best(run) -> float:
        times = []
        for _ in range(repeats):
            started = time.perf_counter()
            run()
            times.append(time.perf_counter() - started)
        return min(times)

    with per_group_slices() as slices:
        sql_s = best(lambda: [db.sql(statement) for statement in statements])
        seedb_s = best(lambda: SeeDB(table, dimensions, measures).recommend(target, prune=False))
        SeeDB(table, dimensions, measures).recommend(target, prune=True)
        FacetRecommender(table).interesting_facets(target)
        CubeExplorer(table, "region", "category", "revenue")
        VizDeck(table).candidates()
    assert slices == [0], f"a recommended view sliced {slices[0]} columns per group"
    ratio = seedb_s / sql_s
    assert ratio <= 4.0, (
        f"SeeDB's shared pass is {ratio:.1f}x the equivalent GROUP BYs "
        f"({seedb_s * 1e3:.1f} ms vs {sql_s * 1e3:.1f} ms)"
    )
    return ratio


def check_update_resummarises_assigned_columns(
    n: int = 200_000, repeats: int = 5, zone_rows: int = 4_096
) -> tuple[float, int, int]:
    """Guard on-write zone maps and on-read column statistics with counts,
    a ratio and answers: over ``n`` rows x 5 columns in ``zone_rows``-row
    zones, each ``UPDATE … SET qty = …`` of 100 consecutive ids must
    re-summarise (``statistics.summarise_zone`` calls) exactly the one
    or two zones of ``qty`` they hit and none of any other column, and the scan after it must
    re-summarise no zone and build no ``ColumnStatistics``; reading
    ``qty`` from the next ``Database.statistics`` must build exactly one
    entry and run at least 5x faster than building every column's; the
    scan must answer as it does over the same rows in a fresh database,
    and the ``qty`` entry must equal the rebuilt one.  Returns the
    speedup, the most ``qty`` zones one UPDATE re-summarised and the
    zone count."""
    saved = settings.snapshot()
    settings.configure(threads=0, zone_rows=zone_rows)
    rng = np.random.default_rng(0)
    kinds = np.array([f"kind_{i}" for i in range(8)], dtype=object)
    ts = np.cumsum(rng.integers(1, 5, n))
    db = Database()
    db.create_table("readings", Table([
        ("id", Column(np.arange(n, dtype=np.int64))),
        ("ts", Column(ts)),
        ("val", Column(np.round(rng.gamma(2.0, 20.0, n), 4))),
        ("qty", Column(rng.integers(1, 11, n))),
        ("kind", Column(kinds[rng.integers(0, 8, n)])),
    ]))
    read = (
        "SELECT COUNT(*) AS n, AVG(val) AS mean_val, MAX(qty) AS top FROM readings "
        f"WHERE ts >= {int(ts[n - 10_000])}"
    )
    db.sql(read)
    db.statistics("readings").column("qty")
    num_zones = db.zone_map("readings").num_zones
    original = ColumnStatistics.__dict__["from_column"]
    kernel = statistics.summarise_zone
    built, summarised = [], []

    def spy(column):
        built.append(column)
        return original.__func__(ColumnStatistics, column)

    def kernel_spy(data, validity, start, stop):
        summarised.append(data)
        return kernel(data, validity, start, stop)

    def timed(read_columns) -> tuple[float, dict]:
        started = time.perf_counter()
        entries = read_columns()
        return time.perf_counter() - started, entries

    completed_s = rebuilt_s = float("inf")
    most = 0
    try:
        ColumnStatistics.from_column = staticmethod(spy)
        statistics.summarise_zone = kernel_spy
        for attempt in range(repeats):  # the first straddles the boundary of zones 0 and 1
            lo = zone_rows - 50 if attempt == 0 else int(rng.integers(0, n - 100))
            summarised.clear()
            db.execute(f"UPDATE readings SET qty = qty + 1 WHERE id >= {lo} AND id < {lo + 100}")
            main = db.main_table("readings")
            names = {id(main.column(name).data): name for name in main.column_names}
            per_column = collections.Counter(names.get(id(data)) for data in summarised)
            hit = (lo + 99) // zone_rows - lo // zone_rows + 1  # ids are row positions
            assert per_column == {"qty": hit}, (
                f"a 100-id UPDATE over {hit} zones re-summarised {dict(per_column)} "
                f"of {num_zones} zones"
            )
            most = max(most, per_column["qty"])
            built.clear()
            summarised.clear()
            patched = db.sql(read)
            assert not built, f"a scan after an UPDATE built {len(built)} column statistics"
            assert not summarised, (
                f"a scan after an UPDATE re-summarised {len(summarised)} of {num_zones} zones"
            )
            seconds, completed = timed(lambda: {"qty": db.statistics("readings").column("qty")})
            completed_s = min(completed_s, seconds)
            assert len(built) == 1, (
                f"the first read of qty's statistics after an UPDATE built {len(built)} entries"
            )
            fresh = Database()
            fresh.create_table("readings", db.get_table("readings"))
            rebuilt = fresh.sql(read)
            assert len(built) == 1, "a scan of the rebuilt table built column statistics"
            table = fresh.get_table("readings")
            seconds, every = timed(lambda: {
                name: ColumnStatistics.from_column(table.column(name))
                for name in table.column_names
            })
            rebuilt_s = min(rebuilt_s, seconds)
            assert len(built) == 1 + 5  # the spy is live: a rebuild builds all five
            assert completed["qty"] == every["qty"]
            assert patched.num_rows == rebuilt.num_rows == 1
            for name in rebuilt.column_names:
                assert np.array_equal(patched.column(name).data, rebuilt.column(name).data), name
    finally:
        ColumnStatistics.from_column = original
        statistics.summarise_zone = kernel
        settings.restore(saved)
    speedup = rebuilt_s / completed_s
    assert speedup >= 5.0, (
        f"reading qty's statistics after an UPDATE is only {speedup:.1f}x building "
        f"every column's ({completed_s * 1e3:.2f} ms vs {rebuilt_s * 1e3:.2f} ms)"
    )
    return speedup, most, num_zones


@contextlib.contextmanager
def truth_mask_calls():
    """A list that gains one entry per ``expressions.truth_mask`` call —
    the row count it evaluates — on every module that imported it by
    name, while the block runs."""
    original = expressions.truth_mask
    calls: list[int] = []

    def spy(predicate, table):
        calls.append(table.num_rows)
        return original(predicate, table)

    holders = [
        module for name, module in list(sys.modules.items())
        if name.startswith("repro") and getattr(module, "truth_mask", None) is original
    ]
    try:
        for module in holders:
            module.truth_mask = spy
        yield calls
    finally:
        for module in holders:
            module.truth_mask = original


def check_dml_selects_through_zones(n: int = 200_000, zone_rows: int = 4_096) -> int:
    """Guard "a DML WHERE is a scan" with counts, not a clock: over ``n``
    rows clustered on ``id`` with writes pending, an UPDATE and a DELETE
    on a 100-row ``id`` range must each prune all but at most 2 zones,
    and evaluate their WHERE (``truth_mask``) and their SET over fewer
    than 2 zones' rows plus the delta tail; both must answer what a
    NumPy mirror of the writes answers.  Returns the zones pruned."""
    rng = np.random.default_rng(0)
    qty = rng.integers(1, 11, n)
    db = Database()
    db.create_table("t", Table([
        ("id", Column(np.arange(n, dtype=np.int64))), ("qty", Column(qty.copy())),
    ]))
    pending = 50
    pruned = get_registry().counter("scan.zones_pruned")
    num_zones = -(-n // zone_rows)
    budget = 2 * zone_rows + pending
    evaluate = expressions.Arithmetic.evaluate
    set_rows: list[int] = []

    def spy(self, table):
        set_rows.append(table.num_rows)
        return evaluate(self, table)

    saved = settings.snapshot()
    try:
        settings.configure(threads=0, zone_rows=zone_rows, delta_rows=1_000_000, optimizer=True)
        db.execute("INSERT INTO t VALUES " + ", ".join(f"({n + i}, 1)" for i in range(pending)))
        lo = int(rng.integers(0, n - 100))
        with truth_mask_calls() as where_rows:
            expressions.Arithmetic.evaluate = spy
            try:
                before = pruned.value
                updated = db.execute(f"UPDATE t SET qty = qty + 1 WHERE id >= {lo} AND id < {lo + 100}")
                update_pruned = pruned.value - before
                update_where, update_set = sum(where_rows), sum(set_rows)
                where_rows.clear()
                before = pruned.value
                deleted = db.execute(f"DELETE FROM t WHERE id >= {lo + 50} AND id < {lo + 150}")
                delete_pruned = pruned.value - before
                delete_where = sum(where_rows)
            finally:
                expressions.Arithmetic.evaluate = evaluate
        got = db.sql("SELECT id, qty FROM t ORDER BY id")
    finally:
        settings.restore(saved)
    assert updated == 100 and deleted == 100, (updated, deleted)
    for what, zones in (("UPDATE", update_pruned), ("DELETE", delete_pruned)):
        assert zones >= num_zones - 2, f"the {what} pruned {zones} of {num_zones} zones"
    for what, rows in (
        ("UPDATE's WHERE", update_where), ("UPDATE's SET", update_set),
        ("DELETE's WHERE", delete_where),
    ):
        assert 0 < rows < budget, f"the {what} was evaluated over {rows} rows (budget {budget})"
    qty[lo : lo + 100] += 1
    keep = np.ones(n, dtype=bool)
    keep[lo + 50 : lo + 150] = False
    assert np.array_equal(got.column("id").data[: n - 100], np.flatnonzero(keep))
    assert np.array_equal(got.column("qty").data[: n - 100], qty[keep])
    assert got.num_rows == n - 100 + pending
    return update_pruned + delete_pruned


def check_type_errors_raise_at_bind(n: int = 200_000) -> int:
    """Guard "types are decided at bind" with counts: over ``n`` rows at
    the default ``zone_rows``, a scan whose every zone FAILs calls
    ``expressions.truth_mask`` 0 times, serially and at threads=2 (no
    predicate is evaluated over an empty slice to find its type), and a
    mistyped predicate raises ``TypeMismatchError`` after 0 calls.
    Returns the calls one live brush makes — the spy sees evaluations."""
    db = Database()
    db.create_table("t", {"k": list(range(n)), "s": [f"s{i % 7}" for i in range(n)]})
    saved = settings.snapshot()
    try:
        with truth_mask_calls() as calls:
            for threads in (0, 2):
                settings.configure(threads=threads, zone_rows=settings.ROWS["zone_rows"].default)
                calls.clear()
                assert db.sql(f"SELECT k FROM t WHERE k >= {n}").num_rows == 0
                assert not calls, (
                    f"an all-FAIL scan called truth_mask {len(calls)}x, threads={threads}"
                )
                try:
                    db.sql(f"SELECT COUNT(*) AS c FROM t WHERE k >= {n} AND s > 5")
                except TypeMismatchError:
                    pass
                else:
                    raise AssertionError("a STRING > INT64 predicate did not raise")
                assert not calls, (
                    f"a mistyped scan called truth_mask {len(calls)}x, threads={threads}"
                )
            db.sql(f"SELECT k FROM t WHERE k >= {n - 10}")
            live = len(calls)
    finally:
        settings.restore(saved)
    assert live > 0, "the spy saw no predicate evaluation"
    return live


def check_plan_templates(statements: int = 500, rows: int = 20_000) -> int:
    """Guard the plan cache's template level with counts: ``statements``
    drill-down statements in five shapes (a point lookup, a range GROUP BY,
    an IN list under ORDER BY … LIMIT, a join GROUP BY, a CASE projection),
    each with fresh literals, must call ``parse`` and
    ``planner.plan_statement`` at most once per shape, re-bind a template
    (``plan_cache.template_hits``) for every other statement, and answer
    what a fresh plan — a fresh database's — answers.  Returns the
    template hits."""
    rng = np.random.default_rng(0)
    kinds = np.array([f"kind_{i}" for i in range(8)], dtype=object)
    tables = {
        "events": Table([
            ("id", Column(np.arange(rows, dtype=np.int64))),
            ("day", Column(rng.integers(0, 365, rows))),
            ("user_id", Column(rng.integers(0, 1_000, rows))),
            ("kind", Column(kinds[rng.integers(0, 8, rows)])),
            ("amount", Column(np.round(rng.gamma(2.0, 50.0, rows), 2))),
            ("qty", Column(rng.integers(1, 10, rows))),
        ]),
        "users": Table.from_dict({
            "user_id": list(range(1_000)), "segment": [f"seg_{i % 5}" for i in range(1_000)],
        }),
    }

    def fresh() -> Database:
        db = Database()
        for name, table in tables.items():
            db.create_table(name, table)
        return db

    db = fresh()

    shapes = 5

    def statement(i: int) -> str:
        """The ``i``-th statement: shape ``i % shapes``, literals no other has."""
        day, key, cut = i // 5, i * 31 % (rows - 50), round(20 + i * 0.17, 2)
        first, second = kinds[rng.integers(0, 8, 2)]
        return [
            f"SELECT id, day, user_id, kind, amount FROM events WHERE id = {key}",
            "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
            f"WHERE day >= {day} AND day < {day + 5} GROUP BY kind ORDER BY kind",
            f"SELECT id, amount FROM events WHERE kind IN ('{first}', '{second}') "
            f"AND amount > {cut!r} ORDER BY amount DESC, id LIMIT 10",
            "SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM events "
            "JOIN users ON events.user_id = users.user_id "
            f"WHERE day >= {day} AND day < {day + 5} GROUP BY segment ORDER BY segment",
            f"SELECT id, amount * qty AS gross, CASE WHEN amount > {cut!r} THEN 'high' "
            f"ELSE 'low' END AS band FROM events WHERE id >= {key} AND id < {key + 50}",
        ][i % shapes]

    originals = {"parse": parser.parse, "plan_statement": planner.plan_statement}
    calls = dict.fromkeys(originals, 0)

    def spy(name):
        def counted(*args, **kwargs):
            calls[name] += 1
            return originals[name](*args, **kwargs)
        return counted

    holders = [
        (module, name) for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro") for name, fn in originals.items()
        if getattr(module, name, None) is fn
    ]
    hits = get_registry().counter("plan_cache.template_hits")
    before = hits.value
    answered = []
    try:
        for module, name in holders:
            setattr(module, name, spy(name))
        for i in range(statements):
            sql = statement(i)
            answered.append((sql, db.sql(sql)))
        counted, template_hits = dict(calls), hits.value - before
    finally:
        for module, name in holders:
            setattr(module, name, originals[name])
    for sql, result in answered[:: statements // 50]:
        assert list(result.rows()) == list(fresh().sql(sql).rows()), sql
    assert counted["parse"] <= shapes and counted["plan_statement"] <= shapes, (
        f"{statements} statements of {shapes} shapes were parsed {counted['parse']}x "
        f"and planned {counted['plan_statement']}x"
    )
    assert template_hits >= statements - shapes, (
        f"only {template_hits} of {statements} statements re-bound a template"
    )
    return template_hits


def check_values_skip_the_grammar(rows: int = 250) -> tuple[int, int, int]:
    """Guard the VALUES reader with counts, not times: a ``rows``-row ×
    5-column INSERT of plain literals (NULL, TRUE/FALSE and ``''``-escaped
    quotes included) tokenizes to one ``ROWS`` token (6 tokens in all:
    INSERT, INTO, the name, VALUES, ROWS, EOF), builds no ``Literal`` and
    calls ``_Parser._or_expr`` 0 times — a ``-1`` or ``1 + 1`` item still
    calls it once — and the delta tail's numeric columns are views of
    the store's column buffers (``np.shares_memory``): reading pending
    rows copies none of them, and an append that fits the buffers leaves
    an earlier tail's memory shared with the next.  Returns the calls
    the two grammar items made, the batch's token count and the
    literals it built."""
    db = Database()
    db.create_table("readings", {
        "id": [0], "ts": [0], "val": [0.5], "ok": [True], "kind": ["a"],
    })
    batch = "INSERT INTO readings VALUES " + ", ".join(
        f"({i}, {2 * i}, {'NULL' if i % 9 == 0 else repr(i / 8)}, "
        f"{'TRUE' if i % 2 else 'FALSE'}, 'k''{i % 8}')"
        for i in range(1, rows + 1)
    )
    token_count = len(tokenize(batch))
    original = parser._Parser._or_expr
    original_literal = expressions.Literal.__init__
    calls, literals = [], []

    def spy(self, *args, **kwargs):
        calls.append(1)
        return original(self, *args, **kwargs)

    def literal_spy(self, *args, **kwargs):
        literals.append(1)
        original_literal(self, *args, **kwargs)

    saved = settings.snapshot()
    try:
        settings.configure(delta_rows=settings.ROWS["delta_rows"].default)
        parser._Parser._or_expr = spy
        expressions.Literal.__init__ = literal_spy
        assert db.execute(batch) == rows
        plain, built = len(calls), len(literals)
        assert db.execute("INSERT INTO readings VALUES (-1, 1 + 1, NULL, TRUE, 'x')") == 1
        grammar = len(calls) - plain
        store = db.delta_store_if_dirty("readings")
        first = db.delta_tail("readings")
        db.execute("INSERT INTO readings VALUES (9999, 1, 2.5, FALSE, 'y')")
        second = db.delta_tail("readings")
    finally:
        parser._Parser._or_expr = original
        expressions.Literal.__init__ = original_literal
        settings.restore(saved)
    assert token_count == 6, f"a {rows}-row plain-literal INSERT lexed to {token_count} tokens"
    assert built == 0, f"a {rows}-row plain-literal INSERT built {built} Literals"
    assert plain == 0, f"a {rows}-row plain-literal INSERT called _or_expr {plain}x"
    assert grammar == 2, f"two expression items called _or_expr {grammar}x"
    assert store is not None and first.num_rows == rows + 1 and second.num_rows == rows + 2
    for index, name in enumerate(store.schema.names[:3]):
        buffer = store.column(index, store.length).data
        assert np.shares_memory(second.column(name).data, buffer), f"tail {name!r} was copied"
        assert np.shares_memory(first.column(name).data, buffer), (
            f"an append that fit moved tail {name!r}"
        )
    assert first.column("kind").to_list()[0] == "k'1"
    return grammar, token_count, built


def check_linked_views_share_selections(zone_rows: int = 4_096) -> int:
    """Guard the selection memo with counts, not a clock: six linked views
    with one WHERE over an 8-zone table, serially and at threads=2, call
    ``expressions.truth_mask`` once per MAYBE span for the first view and
    0 times for the other five; an INSERT between two gestures makes the
    next first view evaluate again (its MAYBE spans and the pending tail)
    and the rest reuse that.  Every view still classifies its own zones,
    as before the memo: 2 ``scan.zones_pruned`` and 0
    ``scan.zones_passed`` per statement.  Returns the first view's
    evaluations after the INSERT."""
    n = 8 * zone_rows
    rng = np.random.default_rng(1)
    db = Database()
    db.create_table("t", {
        "ts": list(range(n)),
        "qty": rng.integers(1, 11, n).tolist(),
        "region": [f"region_{i}" for i in rng.integers(0, 12, n)],
        "price": np.round(rng.gamma(2.0, 20.0, n), 4).tolist(),
    })
    where = f"WHERE ts >= {zone_rows // 2} AND ts < {5 * zone_rows + 7} AND qty > 2"
    views = [
        f"SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM t {where} GROUP BY region",
        f"SELECT qty, COUNT(*) AS n FROM t {where} GROUP BY qty",
        f"SELECT region, SUM(price) AS revenue FROM t {where} "
        "GROUP BY region ORDER BY revenue DESC LIMIT 3",
        f"SELECT COUNT(*) AS n, SUM(price) AS revenue, AVG(qty) AS q FROM t {where}",
        f"SELECT qty, MAX(price) AS top FROM t {where} GROUP BY qty",
        f"SELECT ts, region, price FROM t {where} ORDER BY price DESC LIMIT 20",
    ]
    registry = get_registry()
    zone_counters = [registry.counter("scan.zones_pruned"), registry.counter("scan.zones_passed")]
    saved = settings.snapshot()
    try:
        with truth_mask_calls() as calls:
            for threads in (0, 2):
                settings.configure(
                    threads=threads, zone_rows=zone_rows, optimizer=True,
                    delta_rows=settings.ROWS["delta_rows"].default,
                )
                for gesture in range(2):
                    if gesture:
                        db.execute(f"INSERT INTO t VALUES ({n + threads}, 5, 'region_0', 1.0)")
                    # the MAYBE zones 0..5; a pending tail is one more span
                    maybe = 6 + (db.delta_store_if_dirty("t") is not None)
                    for i, sql in enumerate(views):
                        calls.clear()
                        before = [counter.value for counter in zone_counters]
                        db.sql(sql)
                        zones = [counter.value - b for counter, b in zip(zone_counters, before)]
                        assert zones == [2, 0], f"view {i} classified {zones}, threads={threads}"
                        want = maybe if i == 0 else 0
                        assert len(calls) == want, (
                            f"view {i} of gesture {gesture} evaluated {len(calls)} spans, "
                            f"want {want}, threads={threads}"
                        )
    finally:
        settings.restore(saved)
    return maybe


def check_pooled_float_aggregate_groups_once(n: int = 200_000) -> int:
    """Guard the pooled aggregate route with counts, not a clock: over 2
    ``range(ts)`` shards at threads=2, with a brush over both, a ``COUNT(*)
    + SUM(price)`` GROUP BY runs one batch of the 2 shard tasks' filters
    and groups once on the calling thread — 1 ``operators.group_rows``
    and 1 ``group_ids`` call — and so does a ``COUNT(*) + MIN(price)``
    GROUP BY.  Both answer what threads=0 answers (no NaN, no zero sum:
    equal floats are equal bits).  Returns the float aggregate's
    ``group_rows`` calls."""
    rng = np.random.default_rng(2)
    db = Database()
    db.create_table("t", {
        "ts": list(range(n)),
        "region": [f"region_{i:02d}" for i in rng.integers(0, 12, n)],
        "price": np.round(rng.gamma(2.0, 20.0, n), 4).tolist(),
    })
    where = f"WHERE ts >= {n // 10} AND ts < {9 * n // 10}"
    statements = {  # SQL -> (group_rows, group_ids) calls on the pool
        f"SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM t {where} GROUP BY region":
            (1, 1),
        f"SELECT region, COUNT(*) AS n, MIN(price) AS low FROM t {where} GROUP BY region":
            (1, 1),
    }
    calls = {"group_rows": [], "group_ids": []}
    groupings = []  # group_rows calls per statement
    real = {name: getattr(ops, name) for name in calls}
    lock = threading.Lock()

    def spy(name):
        def counted(*args):
            with lock:
                calls[name].append(None)
            return real[name](*args)
        return counted

    registry = get_registry()
    fanout = [registry.counter("parallel.batches"), registry.counter("parallel.morsels")]
    saved = settings.snapshot()
    try:
        settings.configure(faults="off")
        db.apply_sharding("t", 2, shard_by="range(ts)")
        for sql, want in statements.items():
            settings.configure(threads=0)
            serial = db.sql(sql)
            settings.configure(threads=2)
            for lists in calls.values():
                lists.clear()
            before = [counter.value for counter in fanout]
            for name in calls:
                setattr(ops, name, spy(name))
            try:
                pooled = db.sql(sql)
            finally:
                for name in calls:
                    setattr(ops, name, real[name])
            got = (len(calls["group_rows"]), len(calls["group_ids"]))
            groupings.append(got[0])
            assert got == want, f"{got} (group_rows, group_ids) calls, want {want}: {sql}"
            ran = [counter.value - b for counter, b in zip(fanout, before)]
            assert ran == [1, 2], f"{ran} (batches, tasks), want one batch of 2: {sql}"
            assert pooled.schema == serial.schema, sql
            assert list(pooled.rows()) == list(serial.rows()), f"differs from threads=0: {sql}"
    finally:
        settings.restore(saved)
        parallel.shutdown_pool()
    return groupings[0]


def check_shard_key_brushes_prune_zones(n: int = 100_000, zone_rows: int = 4_096) -> int:
    """Guard the sharded scan's one route with counts, not a clock: over
    2 ``range(ts)`` and 2 ``hash(ts)`` in-memory shards, three rotating
    ``ts`` brushes with ``GROUP BY region`` each prune zones
    (``scan.zones_pruned`` moves), print a ``zones:`` and a ``shards:``
    line and no ``index:`` line under EXPLAIN ANALYZE, and answer what
    the unsharded table answers bit for bit (integer sums, so a hash
    layout's row order changes no bit).  Returns the zones pruned."""
    rng = np.random.default_rng(3)
    data = {
        "ts": list(range(n)),
        "region": [f"region_{i:02d}" for i in rng.integers(0, 12, n)],
        "qty": rng.integers(1, 11, n).tolist(),
        "price": np.round(rng.gamma(2.0, 20.0, n), 4).tolist(),
    }
    brushes = [
        "SELECT region, COUNT(*) AS n, SUM(qty) AS q, MAX(price) AS top FROM t "
        f"WHERE ts >= {low} AND ts < {low + n // 10} GROUP BY region ORDER BY region"
        for low in (n // 10, n // 2, 3 * n // 4)
    ]
    pruned = get_registry().counter("scan.zones_pruned")
    total = 0
    saved = settings.snapshot()
    try:
        settings.configure(zone_rows=zone_rows, shards=0, threads=0, faults="off")
        plain = Database()
        plain.create_table("t", data)
        want = [plain.sql(sql) for sql in brushes]
        for spec in ("range(ts)", "hash(ts)"):
            db = Database()
            db.create_table("t", data)
            db.apply_sharding("t", 2, shard_by=spec)
            for sql, expected in zip(brushes, want):
                before = pruned.value
                got = db.sql(sql)
                assert pruned.value > before, f"{spec}: the brush pruned no zone: {sql}"
                total += pruned.value - before
                report = db.explain_analyze(sql).render()
                assert "zones:" in report and "shards:" in report, f"{spec}: {report}"
                assert "index:" not in report, f"{spec}: an index served the brush: {report}"
                assert got.schema == expected.schema, sql
                for name in got.column_names:
                    assert got.column(name).validity is None and np.array_equal(
                        got.column(name).data, expected.column(name).data
                    ), f"{spec}: {name} differs from the unsharded table: {sql}"
    finally:
        settings.restore(saved)
    return total


def main() -> int:
    keepalive = run_workload()
    views_ratio = check_views_run_on_group_kernel()
    gather_free_rows = check_no_group_gathers()
    columns_taken = check_scan_gathers_once()
    join_zones_pruned = check_join_right_scan_prunes()
    index_speedup = check_index_scans_share_the_pipeline()
    update_speedup, update_zones, update_of = check_update_resummarises_assigned_columns()
    interval_coverage = check_sampled_intervals_cover()
    fast_path_speedup = check_column_fast_path()
    encode_speedup = check_strings_encode_without_sorting_rows()
    sorted_rows = check_sort_is_one_kernel()
    straddle_ratio = check_straddling_group_by_ratio()
    live_calls = check_type_errors_raise_at_bind()
    template_hits = check_plan_templates()
    grammar_calls, batch_tokens, batch_literals = check_values_skip_the_grammar()
    linked_calls = check_linked_views_share_selections()
    float_groupings = check_pooled_float_aggregate_groups_once()
    shard_zones_pruned = check_shard_key_brushes_prune_zones()
    dml_zones_pruned = check_dml_selects_through_zones()
    snapshot = json.loads(metrics_snapshot())
    assert keepalive is not None

    for section in ("counters", "gauges", "timers", "sources", "benchmarks"):
        assert section in snapshot, f"snapshot is missing section {section!r}"
    assert snapshot["counters"].get("engine.queries", 0) >= 1
    assert snapshot["counters"].get("engine.queries_profiled", 0) >= 1
    assert snapshot["timers"]["engine.query_time"]["count"] >= 2
    sources = snapshot["sources"]
    for prefix in (
        "indexing.cracker",
        "prefetch.tile_cache",
        "prefetch.semantic_cache",
        "storage.adaptive_store",
    ):
        assert any(
            name == prefix or name.startswith(prefix + "#") for name in sources
        ), f"no stat source matching {prefix!r}: {sorted(sources)}"
    assert "smoke: row counts" in snapshot["benchmarks"]

    get_registry().reset()
    print("metrics smoke ok:", len(sources), "stat sources,",
          len(snapshot["benchmarks"]), "benchmark tables,",
          f"column fast path {fast_path_speedup:.1f}x,",
          f"string encoding {encode_speedup:.1f}x over np.unique,",
          f"{sorted_rows}-row ORDER BY at threads=2 ran 0 batches and 0 shard tasks,",
          f"straddling/in-zone group-by {straddle_ratio:.2f}x,",
          f"{gather_free_rows} rows grouped with no column sliced per group,",
          f"{columns_taken} column takes over 12 straddling-brush scans, 6 sharded "
          "(one per sink column per task source),",
          f"{join_zones_pruned} zones of a join's right table pruned,",
          f"indexed / unindexed 1 % GROUP BY {index_speedup:.1f}x faster,",
          f"sampled-interval coverage {interval_coverage:.2f},",
          f"SeeDB / equivalent GROUP BYs {views_ratio:.2f}x,",
          f"a 100-id UPDATE re-summarised at most {update_zones} of {update_of} zones of qty "
          f"and 0 of other columns, the scan after it 0 zones and 0 column statistics, "
          f"the first statistics read {update_speedup:.1f}x faster than a rebuild,",
          f"0 predicate evaluations before a type error ({live_calls} for a live brush),",
          f"{template_hits} of 500 fresh-literal statements re-bound a plan template,",
          f"a 250-row VALUES batch lexed to {batch_tokens} tokens with {batch_literals} "
          f"Literals and 0 expression-grammar calls ({grammar_calls} for two expression "
          "items) into shared tail buffers,",
          f"the first of six linked views evaluated {linked_calls} spans, the other five 0,",
          f"{float_groupings} group_rows call for a pooled float SUM over 2 shard tasks,",
          f"{shard_zones_pruned} zones pruned by 6 shard-key brushes with no index,",
          f"{dml_zones_pruned} zones pruned by a 100-row UPDATE and DELETE, whose WHERE "
          "and SET read under 2 zones plus the tail")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
