"""Sharded execution tests: partitioning, scatter-gather, durability.

Covers the PR 10 surface: deterministic hash/range partitioning (NaN
and NULL keys route to shard 0, identity layouts skip the re-cluster),
`PRAGMA shards` / `shard_by` / `shard_min_rows` wiring and the settings
listing, scatter-gather execution that stays bit-identical to the
unsharded path over the same re-clustered main (filter, filtered aggregate;
serial and threaded) while a sort and every scan's pooling decision take
one route each, shard-local pruning through the zone map
(`shard.shards_pruned` = N−1 on a one-shard predicate, in memory and
mapped; `io.bytes_read` bounded by one shard in mmap mode), a caller's
index over a sharded main, layout persistence through checkpoints and
WAL-only replay, the delta write path re-applying the layout at merge,
the shell `\\shards` command, and the differential corpus: sharded must
be bit-identical to unsharded under threads, worker-crash fault
injection, mmap storage, and a kill–recover cycle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import shards as shardsmod
from repro.engine import wal as walmod
from repro.engine.column import Column
from repro.errors import CatalogError
from repro.indexing import UpdatableCrackerIndex
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.conftest import pin_defaults
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_query, random_table


@pytest.fixture(autouse=True)
def _pin_shard_config():
    """Deterministic shard/storage/write-path config and a fresh metrics registry."""
    pin_defaults("shards", "shard_by", "storage", "delta_rows", "faults", "fault_seed")
    settings.configure(shard_min_rows=64)
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def _filled_db(rows: int = 2000, modulus: int = 13) -> Database:
    """An in-memory db with one merged table t(k INT, v FLOAT, s TEXT)."""
    db = Database()
    db.create_table(
        "t",
        Table.from_dict(
            {
                "k": [i % modulus for i in range(rows)],
                "v": [float((i * 7) % 101) - 50.0 for i in range(rows)],
                "s": [("ant", "bee", "cat", "dog")[i % 4] for i in range(rows)],
            }
        ),
    )
    return db


# -- partitioning ---------------------------------------------------------------------


class TestPartitioning:
    def test_hash_ids_deterministic(self):
        column = Column(list(range(100)))
        first = shardsmod._hash_ids(column, 4)
        second = shardsmod._hash_ids(column, 4)
        assert np.array_equal(first, second)
        assert set(np.unique(first)) <= {0, 1, 2, 3}

    def test_hash_null_and_nan_route_to_shard_zero(self):
        ints = Column([1, None, 3])
        assert shardsmod._hash_ids(ints, 4)[1] == 0
        floats = Column([1.0, float("nan"), 3.0])
        assert shardsmod._hash_ids(floats, 4)[1] == 0

    def test_hash_strings_per_value(self):
        plain = Column(["ant", "bee", "ant", None])
        ids = shardsmod._hash_ids(plain, 8)
        assert ids[0] == ids[2]  # equal values land together
        assert ids[3] == 0
        passed_on = Column(["cat", "ant", "bee", "ant", None])
        passed_on.dictionary()  # a dictionary holding a value the slice lacks
        assert np.array_equal(shardsmod._hash_ids(passed_on.slice(1, 5), 8), ids)

    def test_range_bounds_and_ids(self):
        column = Column([float(i) for i in range(100)])
        bounds = shardsmod.compute_bounds(column, 4)
        assert len(bounds) == 3 and bounds == sorted(bounds)
        ids = shardsmod._range_ids(column, bounds)
        counts = np.bincount(ids, minlength=4)
        assert counts.sum() == 100
        assert all(count > 0 for count in counts)
        # boundary values go left (shard s takes (bounds[s-1], bounds[s]])
        assert shardsmod._range_ids(Column([bounds[0]]), bounds)[0] == 0

    def test_range_rejects_non_numeric(self):
        table = Table.from_dict({"s": ["a", "b"]})
        with pytest.raises(ValueError):
            shardsmod.apply_layout(table, "range", "s", 2)

    def test_identity_layout_skips_recluster(self):
        table = Table.from_dict({"k": [0.0, 1.0, 2.0, 3.0]})
        new, layout, identity = shardsmod.apply_layout(table, "range", "k", 2)
        assert identity
        assert new is table  # monotone key: rows already in shard order
        assert layout.total_rows == 4

    def test_recluster_is_stable(self):
        table = Table.from_dict({"k": [1, 0, 1, 0], "pos": [0, 1, 2, 3]})
        new, layout, identity = shardsmod.apply_layout(table, "range", "k", 2)
        assert not identity
        by_shard = new.column("pos").to_list()
        assert by_shard == [1, 3, 0, 2]  # original order kept within shards

    def test_parse_shard_by(self):
        assert settings.parse_shard_by("hash") == ("hash", None)
        assert settings.parse_shard_by("hash(k)") == ("hash", "k")
        assert settings.parse_shard_by("'range( v )'") == ("range", "v")
        for bad in ("turbo", "range(", "range)x("):
            with pytest.raises(ValueError):
                settings.parse_shard_by(bad)


# -- configuration wiring -------------------------------------------------------------


class TestShardConfig:
    def test_pragma_set_and_read(self):
        db = _filled_db()
        db.execute("PRAGMA shard_min_rows=100")
        db.execute("PRAGMA shard_by='range(k)'")
        db.execute("PRAGMA shards=4")
        assert settings.current.shards == 4
        assert db.execute("PRAGMA shards").column("value")[0] == 4
        assert db.execute("PRAGMA shard_by").column("value")[0] == "range(k)"
        layout = db.shard_layout("t")
        assert layout is not None and layout.mode == "range" and layout.key == "k"
        db.execute("PRAGMA shards=0")
        assert db.shard_layout("t") is None

    def test_pragma_rejects_bad_spec(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.execute("PRAGMA shard_by='turbo(k)'")
        with pytest.raises(CatalogError):
            db.execute("PRAGMA shards=-1")

    def test_reshard_preserves_table_spec(self):
        db = _filled_db()
        db.apply_sharding("t", 2, shard_by="range(v)")
        db.execute("PRAGMA shards=4")  # config default is hash
        layout = db.shard_layout("t")
        assert layout.num_shards == 4
        assert (layout.mode, layout.key) == ("range", "v")

    def test_small_tables_not_auto_sharded(self):
        settings.configure(shards=4, shard_min_rows=10_000)
        db = _filled_db(rows=100)
        assert db.shard_layout("t") is None

    def test_auto_shard_on_create(self):
        settings.configure(shards=4, shard_by="hash(k)", shard_min_rows=64)
        db = _filled_db()
        layout = db.shard_layout("t")
        assert layout is not None and layout.num_shards == 4

    def test_settings_listing_includes_shards(self):
        db = Database()
        rows = {row[0]: (row[1], row[2]) for row in db.execute("PRAGMA").rows()}
        for name in ("shards", "shard_by", "shard_min_rows"):
            assert name in rows
        db.execute("PRAGMA shards=2")
        rows = {row[0]: (row[1], row[2]) for row in db.execute("PRAGMA").rows()}
        assert rows["shards"] == ("2", "pragma")

    def test_unknown_pragma_lists_shard_knobs(self):
        db = Database()
        with pytest.raises(CatalogError, match="shard_by"):
            db.execute("PRAGMA shard_bee=1")


# -- apply_sharding -------------------------------------------------------------------


class TestApplySharding:
    def test_layout_covers_every_row(self):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        layout = db.shard_layout("t")
        assert layout.offsets[0] == 0 and layout.offsets[-1] == 2000
        assert list(layout.offsets) == sorted(layout.offsets)

    def test_unknown_table_and_column_rejected(self):
        db = _filled_db()
        with pytest.raises(CatalogError):
            db.apply_sharding("nope", 2)
        with pytest.raises(CatalogError):
            db.apply_sharding("t", 2, shard_by="hash(zz)")

    def test_range_on_text_rejected(self):
        db = _filled_db()
        with pytest.raises(CatalogError):
            db.apply_sharding("t", 2, shard_by="range(s)")

    def test_unshard_keeps_rows(self):
        db = _filled_db()
        before = db.sql("SELECT SUM(v) AS s, COUNT(*) AS c FROM t").rows()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        db.apply_sharding("t", 0)
        assert db.shard_layout("t") is None
        assert list(db.sql("SELECT SUM(v) AS s, COUNT(*) AS c FROM t").rows()) == list(
            before
        )

    def test_pending_delta_merged_before_sharding(self):
        db = _filled_db()
        db.execute("INSERT INTO t VALUES (99, 1.5, 'elk')")
        assert db.delta_store_if_dirty("t") is not None
        db.apply_sharding("t", 4, shard_by="hash(k)")
        assert db.delta_store_if_dirty("t") is None
        assert db.shard_layout("t").total_rows == 2001

    def test_merge_reapplies_layout(self):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        db.execute("INSERT INTO t VALUES (5, 1.0, 'elk'), (6, 2.0, 'fox')")
        db.flush_deltas("t")
        layout = db.shard_layout("t")
        assert layout.total_rows == 2002
        # every row sits in the shard its key hashes to
        ids = shardsmod.route_ids(layout, db.main_table("t").column("k"))
        for shard in range(layout.num_shards):
            start, stop = layout.offsets[shard], layout.offsets[shard + 1]
            assert np.all(ids[start:stop] == shard)

    def test_merge_recomputes_range_bounds(self):
        db = Database()
        db.create_table("t", Table.from_dict({"k": list(range(100))}))
        db.apply_sharding("t", 2, shard_by="range(k)")
        old_bounds = db.shard_layout("t").bounds
        rows = ", ".join(f"({i})" for i in range(1000, 1100))
        db.execute(f"INSERT INTO t VALUES {rows}")
        db.flush_deltas("t")
        new_bounds = db.shard_layout("t").bounds
        assert new_bounds != old_bounds
        assert db.shard_layout("t").total_rows == 200

    def test_update_and_delete_survive_sharding(self):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        db.execute("UPDATE t SET v = 0.0 WHERE k = 3")
        db.execute("DELETE FROM t WHERE k = 5")
        got = db.sql("SELECT COUNT(*) AS c FROM t WHERE k = 3 AND v = 0.0")
        assert got.column("c")[0] > 0
        assert db.sql("SELECT COUNT(*) AS c FROM t WHERE k = 5").column("c")[0] == 0

    def test_drop_table_forgets_layout(self):
        db = _filled_db()
        db.apply_sharding("t", 2)
        db.execute("DROP TABLE t")
        assert "t" not in db.table_names()


# -- scatter-gather execution ---------------------------------------------------------


SCATTER_QUERIES = [
    "SELECT k, COUNT(*) AS c, SUM(v) AS s, AVG(v) AS a FROM t WHERE v > 0 GROUP BY k",
    "SELECT s, MIN(v) AS lo, MAX(v) AS hi FROM t WHERE k < 7 GROUP BY s",
    "SELECT * FROM t WHERE k = 3",
    "SELECT k, v FROM t WHERE v > 25.0 AND k < 5",
    "SELECT * FROM t ORDER BY v",
    "SELECT COUNT(*) AS c FROM t WHERE s = 'bee'",
    "SELECT k FROM t WHERE k = 999",
]


class TestScatterExecution:
    @pytest.mark.parametrize("spec", ["hash(k)", "range(v)", "hash(s)"])
    @pytest.mark.parametrize("threads", [0, 4])
    def test_bit_identical_to_unsharded(self, spec, threads):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by=spec)
        # baseline: the same re-clustered rows with scatter disabled
        db.apply_sharding("t", 0)
        settings.configure(threads=0)
        expected = [db.sql(sql) for sql in SCATTER_QUERIES]
        db.apply_sharding("t", 4, shard_by=spec)  # identity: row order kept
        settings.configure(threads=threads)
        for sql, want in zip(SCATTER_QUERIES, expected):
            try:
                tables_bit_identical(db.sql(sql), want)
            except AssertionError as exc:
                raise AssertionError(f"sharded engine diverged on: {sql}") from exc

    def test_scatter_skipped_while_delta_dirty(self):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        db.execute("INSERT INTO t VALUES (3, 1.0, 'elk')")
        got = db.sql("SELECT COUNT(*) AS c FROM t WHERE k = 3")
        want = 1 + sum(1 for i in range(2000) if i % 13 == 3)
        assert got.column("c")[0] == want

    def test_fanout_metrics_and_annotations(self, _pin_shard_config):
        registry = _pin_shard_config
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        settings.configure(threads=4)
        report = db.explain_analyze("SELECT COUNT(*) AS c FROM t WHERE v > 0").render()
        assert "shards:" in report
        assert registry.counter("shard.tasks").value > 0
        assert registry.gauge("shard.count").value == 4
        assert registry.gauge("shard.skew_ratio").value >= 1.0

    def test_hash_on_skewed_key_reports_skew(self, _pin_shard_config):
        """70% of the rows share one key: hash(k) sends them all to one
        shard and says so; range on a balanced key splits them evenly."""
        gauge = _pin_shard_config.gauge("shard.skew_ratio")
        db = Database()
        db.create_table(
            "t",
            {"k": [0 if i % 10 < 7 else i % 64 for i in range(4000)], "id": list(range(4000))},
        )
        db.apply_sharding("t", 4, shard_by="hash(k)")
        assert gauge.value > 2.0
        db.apply_sharding("t", 4, shard_by="range(id)")
        assert gauge.value < 1.1

    def test_worker_crash_fault_injection(self):
        db = _filled_db()
        # cluster first, then unshard: the baseline must see the same row
        # order the sharded run does (hash re-clustering permutes rows)
        db.apply_sharding("t", 4, shard_by="hash(k)")
        db.apply_sharding("t", 0)
        settings.configure(threads=0)
        expected = [db.sql(sql) for sql in SCATTER_QUERIES]
        db.apply_sharding("t", 4, shard_by="hash(k)")
        settings.configure(threads=4, faults="worker_crash:0.2", fault_seed=11)
        for sql, want in zip(SCATTER_QUERIES, expected):
            tables_bit_identical(db.sql(sql), want)


class TestOneRoutePerOperator:
    """A sort is one kernel on the calling thread, and every scan — sharded or not
    — pools by one rule: two tasks or more."""

    @pytest.mark.parametrize("spec", [None, "range(v)", "hash(k)"])
    def test_order_by_runs_no_task(self, _pin_shard_config, spec):
        registry = _pin_shard_config
        sql = "SELECT k, v, s FROM t ORDER BY v DESC, s, k"
        db = _filled_db()
        if spec is not None:
            # the unsharded answer over the same re-clustered rows
            db.apply_sharding("t", 4, shard_by=spec)
            db.apply_sharding("t", 0)
        settings.configure(threads=0)
        want = db.sql(sql)
        if spec is not None:
            db.apply_sharding("t", 4, shard_by=spec)  # identity: row order kept
        settings.configure(threads=2)
        counters = [registry.counter(name) for name in ("shard.tasks", "parallel.batches")]
        before = [counter.value for counter in counters]
        got = db.sql(sql)
        assert [counter.value for counter in counters] == before
        tables_bit_identical(got, want)

    @pytest.mark.parametrize("sharded", [False, True])
    @pytest.mark.parametrize("sql", [
        "SELECT x FROM t WHERE x >= 0 AND x < 301",
        "SELECT g, COUNT(*) AS n FROM t WHERE x >= 0 AND x < 301 GROUP BY g",
    ])
    @pytest.mark.parametrize("zone_rows, batches", [(301, 0), (300, 1)])
    def test_covered_rows_decide_pooling(
        self, _pin_shard_config, sharded, sql, zone_rows, batches
    ):
        """Tasks decide pooling, not the rows they cover: the brush covers
        the same 301 rows of 1,000 at both zone sizes.  Unsharded, 301-row
        zones make it one PASS zone — one task, run on the calling thread
        — and 300-row zones a PASS and a MAYBE zone: two tasks, one pooled
        batch.  On 4 range shards of 250 rows its spans reach two shards
        or more, so it pools at both zone sizes."""
        registry = _pin_shard_config
        pin_defaults("optimizer")
        settings.configure(zone_rows=zone_rows)
        db = Database()
        db.create_table("t", {"x": list(range(1000)), "g": ["a", "b"] * 500})
        if sharded:
            db.apply_sharding("t", 4, shard_by="range(x)")
        settings.configure(threads=2)
        counter = registry.counter("parallel.batches")
        before = counter.value
        db.sql(sql)
        assert counter.value - before == (1 if sharded else batches)
        assert (registry.counter("shard.tasks").value >= 2) == sharded


# -- shard pruning --------------------------------------------------------------------


class TestShardPruning:
    def _clustered(self, root, rows=8192, zone_rows=256) -> Database:
        settings.configure(zone_rows=zone_rows)
        with Database(path=root) as db:
            db.create_table(
                "t",
                Table.from_dict(
                    {
                        "k": list(range(rows)),
                        "v": [float(i % 97) for i in range(rows)],
                    }
                ),
            )
            db.apply_sharding("t", 4, shard_by="range(k)")
            db.checkpoint()
        settings.configure(storage="mmap")
        return Database(path=root)

    def test_one_shard_predicate_prunes_rest(self, tmp_path, _pin_shard_config):
        registry = _pin_shard_config
        db = self._clustered(tmp_path / "db")
        try:
            layout = db.shard_layout("t")
            got = db.sql("SELECT COUNT(*) AS c FROM t WHERE k >= 4200 AND k < 4400")
            assert got.column("c")[0] == 200
            assert registry.counter("shard.shards_pruned").value == 3
            read = registry.counter("io.bytes_read").value
            shard_bytes = 16 * max(
                layout.shard_rows(s) for s in range(layout.num_shards)
            )
            assert 0 < read <= shard_bytes, (read, shard_bytes)
        finally:
            db.close()

    def test_index_probe_prunes_shards(self, _pin_shard_config):
        """In memory, a shard-key brush takes the route every scan takes:
        the zone map's probe classifies, the classification is split at
        shard extents, and ``shards.schedule`` prunes the three shards
        the brush misses."""
        registry = _pin_shard_config
        settings.configure(zone_rows=256)
        data = {"k": list(range(8192)), "v": [float(i % 97) for i in range(8192)]}
        plain, db = Database(), Database()
        plain.create_table("t", Table.from_dict(data))
        db.create_table("t", Table.from_dict(data))
        db.apply_sharding("t", 4, shard_by="range(k)")
        assert db.index_for("t", "k") is None
        sql = "SELECT COUNT(*) AS c, SUM(v) AS s FROM t WHERE k >= 4200 AND k < 4400"
        want = plain.sql(sql)
        pruned = registry.counter("shard.shards_pruned")
        before = pruned.value
        got = db.sql(sql)
        assert pruned.value - before == 3
        tables_bit_identical(got, want)
        assert got.column("c")[0] == 200
        report = db.explain_analyze(sql).render()
        assert "zones:" in report and "index:" not in report
        assert "shards: 1 of 4 scheduled, 3 pruned" in report

    def test_all_fail_schedules_nothing(self, tmp_path, _pin_shard_config):
        registry = _pin_shard_config
        db = self._clustered(tmp_path / "db")
        try:
            got = db.sql("SELECT k FROM t WHERE k = 99999")
            assert got.num_rows == 0
            assert registry.counter("io.bytes_read").value == 0
        finally:
            db.close()


# -- a caller's index -----------------------------------------------------------------


class TestRegisteredIndex:
    def test_stored_unchanged_over_the_sharded_main(self):
        db = _filled_db()
        db.apply_sharding("t", 4, shard_by="hash(k)")
        sql = "SELECT k, v FROM t WHERE v >= -10.0 AND v < 5.0"
        want = db.sql(sql)
        index = UpdatableCrackerIndex(np.asarray(db.get_table("t").column("v").data))
        db.register_index("t", "v", index)
        assert db.index_for("t", "v") is index
        assert "index: v in" in db.explain_analyze(sql).render()
        tables_bit_identical(db.sql(sql), want)

    @pytest.mark.parametrize("spec, registered", [("range(k)", True), ("hash(k)", False)])
    def test_registration_over_pending_rows(self, spec, registered):
        """The index describes the effective table: a merge that keeps
        its row order registers it, one that re-clusters the pending rows
        into their shards registers nothing."""
        db = Database()
        db.create_table("t", Table.from_dict({"k": list(range(200))}))
        db.apply_sharding("t", 4, shard_by=spec)
        db.execute(f"INSERT INTO t VALUES {', '.join(f'({i})' for i in range(200, 213))}")
        values = np.asarray(db.get_table("t").column("k").data)
        db.register_index("t", "k", UpdatableCrackerIndex(values))
        assert db.delta_store_if_dirty("t") is None
        assert (db.index_for("t", "k") is not None) == registered
        got = db.sql("SELECT k FROM t WHERE k >= 190 AND k < 205").column("k").to_list()
        assert sorted(got) == list(range(190, 205))


# -- durability -----------------------------------------------------------------------


class TestShardDurability:
    def test_checkpoint_roundtrip(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.create_table("t", Table.from_dict({"k": list(range(500))}))
            db.apply_sharding("t", 4, shard_by="range(k)")
            saved = db.shard_layout("t")
            db.checkpoint()
        with Database(path=root) as db:
            layout = db.shard_layout("t")
            assert layout is not None
            assert (layout.mode, layout.key) == ("range", "k")
            assert list(layout.offsets) == list(saved.offsets)
            assert layout.bounds == saved.bounds

    def test_manifest_format_is_one_whether_sharded_or_not(self, tmp_path):
        import json

        root = tmp_path / "db"
        with Database(path=root) as db:
            db.create_table("plain", Table.from_dict({"k": [1, 2]}))
            db.checkpoint()
            manifest = json.loads(
                (root / walmod.checkpoint_dir_name(1) / "MANIFEST.json").read_text()
            )
            assert manifest["format"] == 4
            db.apply_sharding("plain", 2, shard_by="hash(k)")
            db.checkpoint()
            manifest = json.loads(
                (root / walmod.checkpoint_dir_name(2) / "MANIFEST.json").read_text()
            )
            assert manifest["format"] == 4 and manifest["tables"][0]["sharding"] is not None

    def test_wal_only_replay(self, tmp_path):
        root = tmp_path / "db"
        db = Database(path=root)
        db.create_table("t", Table.from_dict({"k": list(range(500))}))
        db.checkpoint()
        db.apply_sharding("t", 2, shard_by="hash(k)")
        saved = db.shard_layout("t")
        del db  # kill without close: the shard record lives in the WAL only
        with Database(path=root) as db:
            layout = db.shard_layout("t")
            assert layout is not None and layout.num_shards == 2
            assert list(layout.offsets) == list(saved.offsets)

    def test_unshard_replays(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.create_table("t", Table.from_dict({"k": list(range(500))}))
            db.apply_sharding("t", 2, shard_by="hash(k)")
            db.checkpoint()
            db.apply_sharding("t", 0)
        with Database(path=root) as db:
            assert db.shard_layout("t") is None

    def test_replay_ignores_live_config(self, tmp_path):
        """Recovery must reproduce the logged layout, not the current env."""
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.create_table("t", Table.from_dict({"k": list(range(500))}))
            db.apply_sharding("t", 2, shard_by="range(k)")
            saved = db.shard_layout("t")
        settings.configure(shards=8, shard_by="hash", shard_min_rows=1)
        with Database(path=root) as db:
            layout = db.shard_layout("t")
            assert layout.num_shards == 2
            assert (layout.mode, layout.key) == ("range", "k")
            assert list(layout.offsets) == list(saved.offsets)

    def test_mmap_recovery_scatter(self, tmp_path):
        root = tmp_path / "db"
        settings.configure(zone_rows=64)
        with Database(path=root) as db:
            db.create_table(
                "t",
                Table.from_dict(
                    {"k": list(range(2000)), "v": [float(i % 7) for i in range(2000)]}
                ),
            )
            db.apply_sharding("t", 4, shard_by="range(k)")
            db.checkpoint()
            expected = db.sql("SELECT k, v FROM t WHERE k >= 600 AND k < 700")
        settings.configure(storage="mmap")
        settings.configure(threads=4)
        with Database(path=root) as db:
            assert db.main_table("t").is_mapped
            tables_bit_identical(
                db.sql("SELECT k, v FROM t WHERE k >= 600 AND k < 700"), expected
            )


# -- the shell ------------------------------------------------------------------------


class TestShell:
    def test_shards_command(self):
        from repro.__main__ import Shell

        shell = Shell()
        shell.execute("CREATE TABLE t (k INT, v FLOAT)")
        rows = ", ".join(f"({i % 5}, {float(i)})" for i in range(500))
        shell.execute(f"INSERT INTO t VALUES {rows}")
        out = shell.execute("\\shards")
        assert "t: unsharded" in out
        shell.execute("PRAGMA shard_min_rows=100")
        shell.execute("PRAGMA shards=3")
        out = shell.execute("\\shards")
        assert "3 shards by hash(k)" in out and "skew" in out

    def test_help_mentions_shards(self):
        from repro import __main__ as shell_module

        assert "\\shards" in (shell_module.__doc__ or "")


# -- the differential corpus ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_corpus_bit_identity_sharded_vs_unsharded(seed: int, tmp_path) -> None:
    """Replay the differential corpus against a durable sharded database —
    serial/unsharded as the baseline, then sharded under the worker pool
    with worker-crash injection, mmap storage, and a kill–recover cycle
    in between.  Payloads must match byte for byte."""
    rng = np.random.default_rng(7000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(60, 160)))
    queries = [random_query(rng) for _ in range(10)]
    root = tmp_path / "db"

    with Database(path=root) as db:
        db.create_table(
            "t",
            Table.from_dict(
                {name: [r[name] for r in rows] for name in ("id", "a", "b", "s")}
            ),
        )
        db.apply_sharding("t", 4, shard_by=("hash(id)" if seed % 2 else "range(id)"))
        db.checkpoint()
        # a WAL tail past the checkpoint, so recovery replays DML over the
        # sharded table (inserts re-route at the next merge)
        db.execute("INSERT INTO t VALUES (900, 1, 1.0, 'elk')")
        db.execute("DELETE FROM t WHERE id = 0")

    settings.configure(zone_rows=8, delta_rows=1)  # replay merges the tail immediately
    baseline_db = Database(path=root)
    assert baseline_db.shard_layout("t") is not None
    # scatter off for the baseline only; the data keeps its shard order
    baseline_db.apply_sharding("t", 0, log=False)
    settings.configure(threads=0)
    baseline = [baseline_db.sql(sql) for sql in queries]
    baseline_db.close()

    settings.configure(storage="mmap", threads=4, faults="worker_crash:0.1", fault_seed=seed)
    sharded_db = Database(path=root)
    assert sharded_db.shard_layout("t") is not None
    sharded = [sharded_db.sql(sql) for sql in queries]
    # kill (no close) and recover mid-session: the layout replays
    del sharded_db
    recovered_db = Database(path=root)
    assert recovered_db.shard_layout("t") is not None
    recovered = [recovered_db.sql(sql) for sql in queries]
    recovered_db.close()

    for sql, expected, got, again in zip(queries, baseline, sharded, recovered):
        try:
            tables_bit_identical(got, expected)
            tables_bit_identical(again, expected)
        except AssertionError as exc:
            raise AssertionError(f"sharded engine diverged on: {sql}") from exc
