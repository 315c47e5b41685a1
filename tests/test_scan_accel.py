"""Tests for scan-path acceleration (dictionary encoding, zone maps, plan cache).

Covers the three techniques of PR 5 — dictionary-encoded STRING columns,
zone-map data skipping, and the catalog-versioned plan cache — plus the
supporting plumbing: the Column fast-path constructor, the monotonic
catalog version, and statistics-staleness regressions.  Encoding and the
cache have no switch: every STRING column has its dictionary (a
``Database`` builds it at registration, any other column on first use),
and uncached planning is what a fresh ``Database`` runs.  The corpus
property test at the bottom replays the SQL differential-test corpus with
every accelerator on (under threads and fault injection) against the
reference interpreter and against the serial, unzoned engine reading the
rows from a delta tail, each query planned afresh.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import catalog, zonemap
from repro.engine.column import Column
from repro.engine.expressions import col, lit, truth_mask
from repro.engine.planner import extract_probe
from repro.engine.statistics import ZoneMap
from repro.engine.types import DataType
from repro.errors import CatalogError, TypeMismatchError
from repro.indexing import CrackerIndex
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.engine.sql.parser import parse
from tests.conftest import pin_defaults
from tests.reference_interpreter import run_reference
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import _sort_key, normalise, random_query, random_table


@pytest.fixture(autouse=True)
def _reset_accel():
    """Pin zone maps and the delta threshold, regardless of REPRO_* env overrides."""
    pin_defaults("zone_rows", "delta_rows")


@pytest.fixture()
def registry():
    """A fresh metrics registry installed for the test."""
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


def _strings(n: int, distinct: int = 7, null_every: int = 0) -> list:
    values = [f"v{i % distinct:03d}" for i in range(n)]
    if null_every:
        for i in range(0, n, null_every):
            values[i] = None
    return values


# -- dictionary encoding --------------------------------------------------------------


class TestDictionaryEncoding:
    def test_built_at_create_table(self):
        db = Database()
        db.create_table("t", {"s": _strings(50), "x": list(range(50))})
        column = db.get_table("t").column("s")
        codes, values = column.dictionary()
        assert codes is column.dictionary()[0]  # the column's own codes, not rebuilt
        assert codes.dtype == np.int32
        assert list(values) == sorted(set(values))
        assert [values[c] for c in codes] == _strings(50)

    def test_nulls_get_sentinel_code(self):
        column = Column(_strings(20, null_every=5), dtype=DataType.STRING)
        codes, values = column.dictionary()
        assert (codes[::5] == -1).all()
        assert values.tolist() == sorted({v for v in _strings(20, null_every=5) if v is not None})
        assert column.null_count() == 4

    def test_disabled_by_config(self):
        """No setting turns encoding off: a column the catalog never
        registered is encoded when it is built."""
        with pytest.raises(CatalogError, match="^unknown pragma 'dict_encode'"):
            Database().execute("PRAGMA dict_encode=0")
        column = Table.from_dict({"s": _strings(10)}).column("s")
        codes, values = column.dictionary()
        assert values.tolist() == sorted(set(_strings(10)))
        assert [values[c] for c in codes] == _strings(10)

    def test_codes_survive_take_filter_slice(self):
        column = Column(_strings(40, null_every=9), dtype=DataType.STRING)
        base = column.dictionary()
        taken = column.take(np.array([3, 1, 4, 15, 9, 2]))
        filtered = column.filter(np.arange(40) % 2 == 0)
        sliced = column.slice(5, 20)
        for derived in (taken, filtered, sliced):
            codes, values = derived.dictionary()
            assert values is base[1]
            decoded = [None if c < 0 else values[c] for c in codes]
            expected = [derived[i] for i in range(len(derived))]
            assert decoded == expected

    @pytest.mark.parametrize("op", ["=", "<>", "<", "<=", ">", ">="])
    @pytest.mark.parametrize("needle", ["v002", "v0025", "aaaa", "zzzz"])
    def test_comparisons_bit_identical_on_off(self, op, needle):
        """Code-domain comparisons must equal Python's string comparisons
        for every operator, for present, absent, below-range and
        above-range needles, NULL rows never TRUE."""
        strings = _strings(60, null_every=7)
        table = Table.from_dict({"s": strings})
        predicate = {
            "=": col("s") == lit(needle),
            "<>": col("s") != lit(needle),
            "<": col("s") < lit(needle),
            "<=": col("s") <= lit(needle),
            ">": col("s") > lit(needle),
            ">=": col("s") >= lit(needle),
        }[op]
        python = {
            "=": str.__eq__, "<>": str.__ne__, "<": str.__lt__,
            "<=": str.__le__, ">": str.__gt__, ">=": str.__ge__,
        }[op]
        want = [v is not None and python(v, needle) for v in strings]
        assert truth_mask(predicate, table).tolist() == want

    def test_dict_filter_metric_increments(self, registry):
        db = Database()
        db.create_table("t", {"s": _strings(100)})
        db.sql("SELECT COUNT(*) AS n FROM t WHERE s = 'v001'")
        assert registry.counter("scan.dict_filters").value >= 1

    def test_distinct_group_order_identical_on_off(self):
        rng = np.random.default_rng(3)
        values = [f"g{int(v):02d}" for v in rng.integers(0, 25, 300)]
        for i in range(0, 300, 31):
            values[i] = None
        queries = [
            "SELECT DISTINCT s FROM t ORDER BY s",
            "SELECT s, COUNT(*) AS n, SUM(x) AS sx FROM t GROUP BY s ORDER BY s",
            "SELECT x, s FROM t ORDER BY s, x LIMIT 40",
        ]
        encoded = Database()
        encoded.create_table("t", {"s": list(values), "x": list(range(300))})
        # the same rows all pending over an empty main: the delta tail
        # encodes them when a scan reads it in place
        pending = Database()
        pending.create_table("t", encoded.get_table("t").slice(0, 0))
        pending.execute(
            "INSERT INTO t VALUES "
            + ", ".join(f"({'NULL' if s is None else repr(s)}, {x})" for x, s in enumerate(values))
        )
        rows = [{"s": s, "x": x} for x, s in enumerate(values)]
        for q in queries:
            got = encoded.sql(q)
            tables_bit_identical(got, pending.sql(q))
            assert normalise(got.rows()) == normalise(run_reference(parse(q), rows)), q

    def test_pragma_reencodes_existing_tables(self):
        """Registering a table encodes its STRING columns, whichever way
        it was built."""
        table = Table.from_dict({"s": _strings(10)})
        db = Database()
        db.create_table("t", table)
        codes, values = db.get_table("t").column("s").dictionary()
        assert [values[c] for c in codes] == _strings(10)
        db.replace_table("t", Table.from_dict({"s": _strings(12)}))
        assert db.get_table("t").column("s").dictionary()[1].tolist() == sorted(set(_strings(12)))


# -- Column fast-path constructor -----------------------------------------------------


class TestColumnFastPath:
    def test_int_list_types_and_values(self):
        column = Column([1, 2, 3, -4])
        assert column.dtype is DataType.INT64
        assert column.data.dtype == np.int64
        assert column.validity is None
        assert list(column.data) == [1, 2, 3, -4]

    def test_float_list(self):
        column = Column([1.5, -2.25, 0.0])
        assert column.dtype is DataType.FLOAT64
        assert list(column.data) == [1.5, -2.25, 0.0]

    def test_bool_list(self):
        column = Column([True, False, True])
        assert column.dtype is DataType.BOOL
        assert list(column.data) == [True, False, True]

    def test_none_falls_back_to_slow_path(self):
        column = Column([1, None, 3])
        assert column.dtype is DataType.INT64
        assert column.validity is not None
        assert list(column.validity) == [True, False, True]

    def test_mixed_int_float_promotes(self):
        column = Column([1, 2.5])
        assert column.dtype is DataType.FLOAT64
        assert list(column.data) == [1.0, 2.5]

    def test_explicit_string_dtype_not_hijacked(self):
        column = Column(["1", "2"], dtype=DataType.STRING)
        assert column.dtype is DataType.STRING
        assert list(column.data) == ["1", "2"]


# -- zone maps ------------------------------------------------------------------------


def _clustered_table(n: int = 1000) -> Table:
    return Table.from_dict(
        {
            "x": list(range(n)),  # perfectly clustered
            "f": [float(i) / 2 for i in range(n)],
        }
    )


class TestZoneMapPruning:
    def _check(self, table: Table, predicate, zone_rows: int = 64):
        zones = ZoneMap.from_table(table, zone_rows)
        mask, pruned, passed, total = zonemap.pruned_truth_mask(
            predicate, table, zones
        )
        assert np.array_equal(mask, truth_mask(predicate, table))
        return pruned, passed, total

    def test_clustered_range_prunes_and_passes(self):
        table = _clustered_table()
        pruned, passed, total = self._check(
            table, (col("x") >= lit(128)) & (col("x") < lit(192))
        )
        assert total == 16
        assert pruned == 15  # all but the one zone containing [128, 192)
        assert passed == 1  # zones 2..2 lie fully inside the range

    def test_open_vs_closed_bounds_at_zone_edges(self):
        """Zone 1 of 64-row zones spans values [64, 127]; probes landing
        exactly on those endpoints must respect bound inclusivity."""
        table = _clustered_table(256)
        for predicate in (
            col("x") < lit(64),   # zone 1 FAILs (min 64 not < 64)
            col("x") <= lit(63),
            col("x") > lit(127),  # zone 1 FAILs (max 127 not > 127)
            col("x") >= lit(128),
        ):
            pruned, passed, total = self._check(table, predicate)
            assert pruned >= 1 and passed >= 1
        # flipping to inclusive keeps zone 1 alive: strictly fewer prunes
        lt_pruned, _, _ = self._check(table, col("x") < lit(64))
        le_pruned, _, _ = self._check(table, col("x") <= lit(64))
        assert le_pruned == lt_pruned - 1

    def test_all_null_zones_fail_range_probes(self):
        values = [None] * 64 + list(range(64, 128)) + [None] * 64
        table = Table.from_dict({"x": values})
        pruned, passed, total = self._check(table, col("x") >= lit(0))
        assert total == 3
        assert pruned == 2  # both all-NULL zones skipped
        assert passed == 1

    def test_nan_rows_block_pass_but_not_fail(self):
        values = [float(i) for i in range(128)]
        values[10] = float("nan")
        table = Table.from_dict({"f": values})
        # zone 0 contains a NaN: it may not PASS wholesale even though
        # its real min/max lie inside the range
        pruned, passed, total = self._check(table, col("f") >= lit(0.0))
        assert total == 2
        assert passed == 1  # only the NaN-free zone
        assert pruned == 0

    def test_all_nan_zone_fails(self):
        values = [float("nan")] * 64 + [1.0] * 64
        table = Table.from_dict({"f": values})
        pruned, passed, total = self._check(table, col("f") > lit(0.0))
        assert pruned == 1 and passed == 1

    def test_int64_bounds_stay_exact(self):
        """2**53 + 1 is not representable in float64; a float-cast zone
        bound would collapse it onto 2**53 and mis-prune."""
        big = 2**53
        table = Table.from_dict({"x": [big, big + 1] * 64})
        pruned, passed, total = self._check(
            table, col("x") > lit(big), zone_rows=16
        )
        assert pruned == 0
        mask = truth_mask(col("x") > lit(big), table)
        assert int(mask.sum()) == 64

    def test_unprovable_conjunct_downgrades_pass(self):
        table = _clustered_table(256)
        predicate = (col("x") >= lit(0)) & (col("f") == col("f"))
        pruned, passed, total = self._check(table, predicate)
        assert passed == 0  # the non-probe conjunct blocks wholesale accept
        assert pruned == 0

    def test_type_errors_surface_even_when_all_zones_pruned(self):
        table = _clustered_table(256)
        predicate = (col("x") > lit(10**9)) & (col("f") == lit("oops"))
        zones = ZoneMap.from_table(table, 64)
        with pytest.raises(TypeMismatchError):
            zonemap.pruned_truth_mask(predicate, table, zones)

    def test_string_probes_not_extracted_by_default(self):
        assert extract_probe(col("s") > lit("m")) is None
        probe = extract_probe(col("s") > lit("m"), allow_strings=True)
        assert probe is not None and probe.low == "m"

    def test_scan_uses_zones_and_counts_metric(self, registry):
        settings.configure(zone_rows=64)
        db = Database()
        db.create_table("t", _clustered_table(1000))
        result = db.sql("SELECT COUNT(*) AS n FROM t WHERE x >= 900")
        assert result.column("n")[0] == 100
        assert registry.counter("scan.zones_pruned").value >= 10

    def test_explain_analyze_annotates_zones(self):
        settings.configure(zone_rows=64)
        db = Database()
        db.create_table("t", _clustered_table(1000))
        report = db.explain_analyze("SELECT * FROM t WHERE x < 10")
        assert "pruned" in report.render()

    def test_zone_rows_zero_disables(self, registry):
        settings.configure(zone_rows=0)
        db = Database()
        db.create_table("t", _clustered_table(1000))
        db.sql("SELECT COUNT(*) AS n FROM t WHERE x >= 900")
        assert registry.counter("scan.zones_pruned").value == 0

    def test_index_probe_path_skips_zone_maps(self, registry):
        """A scan whose rows a registered cracker index picks reads those
        rows, not zones: the zone map is not consulted, and the answer is
        the unindexed scan's, row order included."""
        settings.configure(zone_rows=64)
        n = 1000
        rng = np.random.default_rng(7)
        values = rng.integers(0, 10_000, n)
        plain = Database()
        plain.create_table("t", {"x": values.tolist(), "id": list(range(n))})
        indexed = Database()
        indexed.create_table("t", {"x": values.tolist(), "id": list(range(n))})
        # built over the main as registered (auto-sharding re-clusters it)
        main = indexed.main_table("t").column("x").data
        indexed.register_index("t", "x", CrackerIndex(main.astype(np.float64)))
        sql = "SELECT id, x FROM t WHERE x >= 2000 AND x < 2500"
        want = plain.sql(sql)
        report = indexed.explain_analyze(sql).render()
        assert f"index: x in [2000, 2500): {want.num_rows} of {n} rows" in report
        assert "zones:" not in report
        before = registry.counter("scan.zones_pruned").value
        via_index = indexed.sql(sql)
        assert registry.counter("scan.zones_pruned").value == before
        tables_bit_identical(via_index, want)


# -- plan cache & catalog versioning --------------------------------------------------


class TestPlanCache:
    def test_repeat_query_hits(self, registry):
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        sql = "SELECT x FROM t WHERE x > 1"
        first = db.plan(sql)
        second = db.plan(sql)
        assert first is second
        assert registry.counter("plan_cache.hits").value == 1
        assert registry.counter("plan_cache.misses").value == 1

    def test_disabled_by_config(self, registry):
        """No setting turns the cache off; a fresh database misses."""
        for pragma in ("plan_cache=0", "plan_cache_size=8"):
            with pytest.raises(CatalogError, match="^unknown pragma 'plan_cache"):
                Database().execute(f"PRAGMA {pragma}")
        sql = "SELECT x FROM t"
        plans = []
        for _ in range(2):
            db = Database()
            db.create_table("t", {"x": [1, 2, 3]})
            plans.append(db.plan(sql))
        assert plans[0] is not plans[1]
        assert registry.counter("plan_cache.hits").value == 0
        assert registry.counter("plan_cache.misses").value == 2

    @pytest.mark.parametrize(
        "ddl",
        [
            lambda db: db.create_table("u", {"y": [1]}),
            lambda db: db.drop_table("t"),
            lambda db: db.replace_table("t", Table.from_dict({"x": [9]})),
            lambda db: db.register_index(
                "t", "x", CrackerIndex(np.array([1.0, 2.0, 3.0]))
            ),
        ],
    )
    def test_invalidated_by_catalog_changes(self, ddl):
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        sql = "SELECT COUNT(*) AS n FROM t WHERE x > 1"
        cached = db.plan(sql)
        version = db.catalog_version
        ddl(db)
        if db.has_table("t") and db.index_for("t", "x") is not None:
            # registering an index is not DDL: an index picks rows at run
            # time, so the cached plan is kept and the answer follows it
            assert db.catalog_version == version
            assert db.plan(sql) is cached
            report = db.explain_analyze(sql).render()
            assert "index: x in (1, +inf): 2 of 3 rows" in report
            assert db.sql(sql).to_dicts() == [{"n": 2}]
            return
        assert db.catalog_version > version  # monotonic bump
        if db.has_table("t"):
            assert db.plan(sql) is not cached

    def test_survives_delta_append(self):
        # an INSERT is not a structural change: it appends to the delta
        # store (or merges it, with REPRO_DELTA_ROWS=0/1), and the cached
        # plan keeps describing the table correctly either way
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        sql = "SELECT COUNT(*) AS n FROM t"
        cached = db.plan(sql)
        version = db.catalog_version
        db.execute("INSERT INTO t (x) VALUES (4)")
        assert db.catalog_version == version
        assert db.plan(sql) is cached
        assert db.sql(sql).to_dicts() == [{"n": 4}]

    def test_unregister_index_invalidates(self):
        # dropping an index changes no plan: the cached plan is kept, and
        # it answers through whichever indexes exist when it runs
        db = Database()
        db.create_table("t", {"x": [1.0, 2.0, 3.0]})
        db.register_index("t", "x", CrackerIndex(np.array([1.0, 2.0, 3.0])))
        sql = "SELECT x FROM t WHERE x > 1.5"
        cached = db.plan(sql)
        assert "index: x in (1.5, +inf): 2 of 3 rows" in (
            db.explain_analyze(sql).render()
        )
        version = db.catalog_version
        db.unregister_index("t", "x")
        assert db.catalog_version == version
        assert db.plan(sql) is cached
        assert "index: x in" not in db.explain_analyze(sql).render()
        assert db.sql(sql).column("x").to_list() == [2.0, 3.0]

    def test_lru_eviction(self, registry, monkeypatch):
        monkeypatch.setattr(catalog, "PLAN_CACHE_SIZE", 2)
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        a, b, c = (f"SELECT x FROM t LIMIT {i}" for i in (1, 2, 3))
        plan_a = db.plan(a)
        db.plan(b)
        db.plan(c)  # evicts a (capacity 2)
        assert db.plan(c) is not None
        assert db.plan(a) is not plan_a  # re-planned after eviction
        assert registry.counter("plan_cache.misses").value == 4

    def test_explain_analyze_notes_hit(self):
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        sql = "SELECT x FROM t"
        db.sql(sql)
        report = db.explain_analyze(sql)
        assert "plan cache: hit" in report.render()


class TestStatisticsFreshness:
    def test_insert_reflected_immediately(self):
        db = Database()
        db.create_table("t", {"x": [1, 2, 3]})
        assert db.statistics("t").row_count == 3
        db.execute("INSERT INTO t (x) VALUES (4), (5)")
        assert db.statistics("t").row_count == 5
        assert db.statistics("t").column("x").max_value == 5

    def test_replace_refreshes_zone_map(self):
        settings.configure(zone_rows=4)
        db = Database()
        db.create_table("t", {"x": list(range(16))})
        old = db.zone_map("t")
        assert old.num_zones == 4
        db.replace_table("t", Table.from_dict({"x": list(range(100, 108))}))
        fresh = db.zone_map("t")
        assert fresh.num_zones == 2
        assert int(fresh.columns["x"].mins[0]) == 100

    def test_version_monotonic_across_ddl(self):
        db = Database()
        seen = [db.catalog_version]
        db.create_table("a", {"x": [1]})
        seen.append(db.catalog_version)
        db.create_table("b", {"x": [1]})
        seen.append(db.catalog_version)
        db.drop_table("a")
        seen.append(db.catalog_version)
        db.replace_table("b", Table.from_dict({"x": [2]}))
        seen.append(db.catalog_version)
        assert seen == sorted(set(seen))  # strictly increasing


# -- PRAGMA surface -------------------------------------------------------------------


class TestScanAccelPragmas:
    def test_roundtrip(self):
        db = Database()
        db.execute("PRAGMA zone_rows=128")
        assert settings.current.zone_rows == 128
        assert db.execute("PRAGMA zone_rows").column("value")[0] == 128

    def test_rejects_bad_values(self):
        db = Database()
        with pytest.raises(Exception):
            db.execute("PRAGMA zone_rows=-1")
        with pytest.raises(CatalogError):
            db.execute("PRAGMA zone_rows=abc")


# -- corpus property test: accelerated == unaccelerated, bit for bit ------------------


@pytest.mark.parametrize("seed", range(12))
def test_corpus_bit_identity_under_threads_and_faults(seed: int) -> None:
    """Replay the differential-test corpus with dictionary codes, zone maps
    (tiny zones) and the plan cache — executed on the worker pool with
    worker-crash injection — against the reference interpreter over the
    same rows, and against the serial, unzoned engine reading them from a
    delta tail (codes built on first use), each query planned by a fresh
    database.  Payloads must match the latter byte for byte."""
    rng = np.random.default_rng(1000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(20, 90)))
    queries = [random_query(rng) for _ in range(10)]

    def literal(value) -> str:
        if value is None:
            return "NULL"
        return f"'{value}'" if isinstance(value, str) else repr(value)

    def pending_db() -> Database:
        # every row pending over an empty main: the delta tail encodes
        # the strings when the first scan builds it
        db = Database()
        db.create_table("t", table.slice(0, 0))
        db.execute(
            "INSERT INTO t VALUES "
            + ", ".join(
                "(" + ", ".join(literal(r[name]) for name in ("id", "a", "b", "s")) + ")"
                for r in rows
            )
        )
        assert db.delta_tail("t").num_rows == len(rows)
        return db

    settings.configure(zone_rows=0, threads=0, faults="off", delta_rows=len(rows) + 1)
    baseline = [pending_db().sql(sql) for sql in queries]

    settings.configure(zone_rows=8, threads=4, faults="worker_crash:0.1", fault_seed=seed)
    accel_db = Database()
    accel_db.create_table("t", table)
    # run each query twice so the second execution exercises the
    # plan-cache hit path under the same fault schedule
    accelerated = [accel_db.sql(sql) for sql in queries]
    repeated = [accel_db.sql(sql) for sql in queries]

    for sql, expected, got, again in zip(queries, baseline, accelerated, repeated):
        statement = parse(sql)
        reference = normalise(run_reference(statement, [dict(r) for r in rows]))
        answer = normalise([tuple(r) for r in got.rows()])
        if not statement.order_by:
            reference, answer = sorted(reference, key=_sort_key), sorted(answer, key=_sort_key)
        assert answer == reference, f"accelerated engine disagrees with the reference on: {sql}"
        try:
            tables_bit_identical(got, expected)
            tables_bit_identical(again, expected)
        except AssertionError as exc:
            raise AssertionError(f"accelerated engine diverged on: {sql}") from exc
