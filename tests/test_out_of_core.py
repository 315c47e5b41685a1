"""Out-of-core storage tier tests: mmap-backed columns + I/O-level pruning.

Covers the PR 9 surface: per-part column file round trips (memory and
mmap modes, all dtypes, nulls, dictionary codes), `PRAGMA storage` /
`REPRO_STORAGE` wiring and the settings listing, recovery that reopens
checkpoint columns as read-only maps, copy-on-write against mapped
mains (UPDATE must never touch the checkpoint bytes until the next
checkpoint), the streamed scan path (`io.bytes_read` /
`io.zones_skipped_io` / `io.morsels_streamed` metrics and EXPLAIN
ANALYZE annotations, all-FAIL predicates, sub-zone tables), merge
spill-and-remap of mapped mains, `close()` releasing every map so the
durable root is deletable, and the differential corpus: storage=mmap
must be bit-identical to storage=memory under threads, worker-crash
fault injection, and a kill–recover cycle.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import wal as walmod
from repro.engine.column import Column
from repro.engine.types import DataType
from repro.errors import CatalogError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.storage import layouts
from tests.conftest import pin_defaults
from tests.fixtures import make_checkpoints
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_query, random_table

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def _pin_storage_config():
    """Deterministic storage/durability config and a fresh metrics registry."""
    pin_defaults(
        "storage", "wal", "wal_sync", "wal_batch", "delta_rows", "faults", "fault_seed"
    )
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


def _sample_table() -> Table:
    return Table.from_dict(
        {
            "i": [1, 2, None, 4, 5],
            "f": [0.5, None, 2.5, 3.5, float("nan")],
            "s": ["ant", None, "cat", "ant", ""],
            "b": [True, False, True, None, False],
        }
    )


def _values_equal(a, b) -> bool:
    """Element-wise equality where None==None and NaN==NaN."""
    import math

    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x is None or y is None:
            if x is not y:
                return False
        elif isinstance(x, float) and isinstance(y, float) and math.isnan(x):
            if not math.isnan(y):
                return False
        elif x != y:
            return False
    return True


def _dir_digest(directory) -> dict[str, str]:
    """Content hash of every file under a directory tree."""
    digests = {}
    for root, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(root, name)
            rel = os.path.relpath(path, directory)
            digests[rel] = hashlib.sha256(open(path, "rb").read()).hexdigest()
    return digests


# -- column file round trips ----------------------------------------------------------


class TestColumnFiles:
    @pytest.mark.parametrize("mode", ["memory", "mmap"])
    def test_roundtrip_all_dtypes(self, tmp_path, mode):
        table = _sample_table()
        for ci, name in enumerate(table.column_names):
            column = table.column(name)
            files = layouts.save_column_files(tmp_path, f"c{ci}", column)
            reopened = layouts.open_column_files(tmp_path, files, column.dtype, mode)
            assert reopened.dtype is column.dtype
            assert _values_equal(list(reopened), list(column))
            assert reopened.is_mapped is (mode == "mmap")

    def test_dictionary_codes_roundtrip(self, tmp_path):
        column = Column(["bee", "ant", None, "bee"])
        files = layouts.save_column_files(tmp_path, "c0", column)
        assert set(files) == {"validity", "codes", "dictionary"}
        reopened = layouts.open_column_files(tmp_path, files, DataType.STRING, "mmap")
        codes, values = reopened.dictionary()
        want_codes, want_values = column.dictionary()
        assert np.array_equal(codes, want_codes)
        assert list(values) == list(want_values)

    def test_empty_column_mmap(self, tmp_path):
        column = Column.empty(DataType.INT64)
        files = layouts.save_column_files(tmp_path, "c0", column)
        reopened = layouts.open_column_files(tmp_path, files, DataType.INT64, "mmap")
        assert len(reopened) == 0 and reopened.is_mapped

    def test_mapped_data_is_readonly(self, tmp_path):
        column = Column([1, 2, 3])
        files = layouts.save_column_files(tmp_path, "c0", column)
        reopened = layouts.open_column_files(tmp_path, files, DataType.INT64, "mmap")
        with pytest.raises(ValueError):
            reopened.data[0] = 99

    def test_backing_paths_and_release(self, tmp_path):
        column = Column([1.5, None, 3.0])
        files = layouts.save_column_files(tmp_path, "c0", column)
        reopened = layouts.open_column_files(tmp_path, files, DataType.FLOAT64, "mmap")
        backing = reopened.backing
        assert all(path.exists() for path in backing.paths().values())
        assert backing.mmap_handles()
        backing.release()
        assert backing.mmap_handles() == []

    def test_derived_columns_drop_backing(self, tmp_path):
        column = Column([1, 2, 3, 4])
        files = layouts.save_column_files(tmp_path, "c0", column)
        reopened = layouts.open_column_files(tmp_path, files, DataType.INT64, "mmap")
        assert reopened.is_mapped
        assert not reopened.slice(0, 2).is_mapped
        assert not reopened.filter(np.array([True, False, True, False])).is_mapped
        assert not reopened.take(np.array([0, 2])).is_mapped

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            layouts.open_column_files(tmp_path, {}, DataType.INT64, "turbo")


# -- configuration wiring -------------------------------------------------------------


class TestStorageConfig:
    def test_pragma_set_and_read(self):
        db = Database()
        db.execute("PRAGMA storage=mmap")
        assert settings.current.storage == "mmap"
        assert db.execute("PRAGMA storage").column("value")[0] == "mmap"
        db.execute("PRAGMA storage=memory")
        assert settings.current.storage == "memory"

    def test_pragma_rejects_bad_mode(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.execute("PRAGMA storage=turbo")

    def test_settings_listing_includes_storage(self):
        db = Database()

        def listed() -> tuple[str, str]:
            rows = {row[0]: (row[1], row[2]) for row in db.execute("PRAGMA").rows()}
            return rows["storage"]

        # the source follows the value: the mode start-up seeded (mmap on
        # the mmap leg) reads as the environment's or the default, the
        # other one as set this session — the fixture's pin included
        seeded = settings.Settings(os.environ)
        source = {
            mode: seeded.source("storage") if mode == seeded.storage else "pragma"
            for mode in ("memory", "mmap")
        }
        assert listed() == ("memory", source["memory"])
        db.execute("PRAGMA storage=mmap")
        assert listed() == ("mmap", source["mmap"])

    def test_configure_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            settings.configure(storage="ram")


# -- recovery opens columns as maps ---------------------------------------------------


class TestMappedRecovery:
    def _seed(self, root) -> None:
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT, b DOUBLE, s TEXT)")
            db.execute(
                "INSERT INTO t VALUES (1, 1.5, 'x'), (2, 2.5, 'y'), (3, NULL, NULL)"
            )
            db.checkpoint()

    def test_recovery_maps_cold_tables(self, tmp_path):
        root = tmp_path / "db"
        self._seed(root)
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            assert db.get_table("t").is_mapped
            assert db.sql("SELECT a FROM t WHERE a >= 2").column("a").to_list() == [2, 3]

    def test_memory_mode_unchanged(self, tmp_path):
        root = tmp_path / "db"
        self._seed(root)
        with Database(path=root) as db:
            assert not db.get_table("t").is_mapped

    def test_mapped_vs_memory_recovery_identical(self, tmp_path):
        root = tmp_path / "db"
        self._seed(root)
        with Database(path=root) as db:
            expected = db.sql("SELECT * FROM t ORDER BY a")
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            tables_bit_identical(db.sql("SELECT * FROM t ORDER BY a"), expected)

    def test_wal_tail_replays_over_mapped_main(self, tmp_path):
        root = tmp_path / "db"
        self._seed(root)
        with Database(path=root) as db:  # tail beyond the checkpoint
            db.execute("INSERT INTO t VALUES (4, 4.5, 'z')")
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            got = db.sql("SELECT a FROM t ORDER BY a").column("a").to_list()
            assert got == [1, 2, 3, 4]
            # delta tail stays in RAM; the cold main is the mapped part
            assert db.main_table("t").is_mapped

    def test_delta_stays_in_ram_after_recovery(self, tmp_path):
        root = tmp_path / "db"
        self._seed(root)
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            db.execute("INSERT INTO t VALUES (9, 9.5, 'q')")
            store = db.delta_store_if_dirty("t")
            assert store is not None and store.pending_inserts == 1
            assert db.main_table("t").is_mapped
            got = db.sql("SELECT a FROM t ORDER BY a").column("a").to_list()
            assert got == [1, 2, 3, 9]

    def test_checkpoint_adopts_new_files_mid_session(self, tmp_path):
        """`PRAGMA storage=mmap` + checkpoint takes a live session out of core."""
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT, s TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
            assert not db.get_table("t").is_mapped
            db.execute("PRAGMA storage=mmap")
            db.checkpoint()
            assert db.get_table("t").is_mapped
            assert db.sql("SELECT a FROM t ORDER BY a").column("a").to_list() == [1, 2]
            # and a second checkpoint re-homes the maps onto its own files
            first = db.get_table("t").column("a").backing.directory
            db.execute("INSERT INTO t VALUES (3, 'z')")
            db.checkpoint()
            second = db.get_table("t").column("a").backing.directory
            assert first != second
            assert db.sql("SELECT a FROM t ORDER BY a").column("a").to_list() == [1, 2, 3]

    def test_v1_checkpoints_still_load(self, tmp_path):
        """A v1 (one-.npz-per-column) checkpoint remains a valid source."""
        root = tmp_path / "db"
        shutil.copytree(FIXTURES / "checkpoint_v1", root)
        settings.configure(storage="mmap")
        with Database(path=root) as db:  # v1 columns load materialised
            assert db.durability.last_recovery["checkpoint"] == 1
            for name in ("full", "partial"):
                assert not db.get_table(name).is_mapped
            got = db.sql("SELECT k FROM full ORDER BY k").column("k").to_list()
            assert got == list(range(make_checkpoints.ROWS))


# -- copy-on-write against mapped mains ----------------------------------------------


class TestMappedCopyOnWrite:
    def test_update_never_touches_checkpoint_bytes(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT, s TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, 'z')")
            db.checkpoint()
        settings.configure(storage="mmap")
        db = Database(path=root)
        try:
            directory = db.get_table("t").column("a").backing.directory
            before = _dir_digest(directory)
            db.execute("UPDATE t SET a = a + 100, s = 'w' WHERE a >= 2")
            assert db.sql("SELECT a FROM t ORDER BY a").column("a").to_list() == [
                1, 102, 103,
            ]
            assert _dir_digest(directory) == before, (
                "UPDATE against a mapped table mutated checkpoint bytes"
            )
            # the next checkpoint is where the new image lands on disk
            db.checkpoint()
            new_dir = db.get_table("t").column("a").backing.directory
            assert new_dir != directory
            assert _dir_digest(new_dir) != before
        finally:
            db.close()

    def test_delete_and_insert_leave_checkpoint_bytes(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1), (2), (3), (4)")
            db.checkpoint()
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            directory = db.get_table("t").column("a").backing.directory
            before = _dir_digest(directory)
            db.execute("DELETE FROM t WHERE a = 2")
            db.execute("INSERT INTO t VALUES (9)")
            assert db.sql("SELECT a FROM t ORDER BY a").column("a").to_list() == [
                1, 3, 4, 9,
            ]
            assert _dir_digest(directory) == before

    def test_dictionary_extension_copies(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (s TEXT)")
            db.execute("INSERT INTO t VALUES ('ant'), ('bee')")
            db.checkpoint()
        settings.configure(storage="mmap")
        settings.configure(delta_rows=1)  # merge (and dict extension) per write
        with Database(path=root) as db:
            directory = db.get_table("t").column("s").backing.directory
            before = _dir_digest(directory)
            db.execute("INSERT INTO t VALUES ('cat')")
            got = db.sql("SELECT s FROM t ORDER BY s").column("s").to_list()
            assert got == ["ant", "bee", "cat"]
            assert _dir_digest(directory) == before


# -- merge spill-and-remap ------------------------------------------------------------


class TestMappedMerge:
    def test_merge_spills_to_live_dir_and_remaps(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.checkpoint()
        settings.configure(storage="mmap")
        settings.configure(delta_rows=1)
        with Database(path=root) as db:
            db.execute("INSERT INTO t VALUES (3)")  # threshold merge
            main = db.main_table("t")
            assert main.is_mapped  # remapped onto the spilled image
            assert main.column("a").backing.directory.name.startswith("live-")
            assert db.sql("SELECT a FROM t ORDER BY a").column("a").to_list() == [1, 2, 3]
            # checkpoint re-homes the data and retires the scratch dir
            db.checkpoint()
            assert not any(p.name.startswith("live-") for p in root.iterdir())
            assert db.get_table("t").column("a").backing.directory.name.startswith(
                "checkpoint-"
            )

    def test_kill_after_merge_recovers_by_replay(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1), (2)")
            db.checkpoint()
        settings.configure(storage="mmap")
        settings.configure(delta_rows=1)
        db = Database(path=root)
        db.execute("INSERT INTO t VALUES (3)")
        db.execute("INSERT INTO t VALUES (4)")
        # abandon without close: the WAL (synced per commit) is the truth
        del db
        with Database(path=root) as db2:
            got = db2.sql("SELECT a FROM t ORDER BY a").column("a").to_list()
            assert got == [1, 2, 3, 4]
            assert db2.main_table("t").is_mapped


# -- the streamed scan path and io.* metrics ------------------------------------------


def _clustered_db(root, rows: int = 4096, zone_rows: int = 256) -> Database:
    """A durable db whose `k` column is zone-clustered (equal to zone index)."""
    settings.configure(zone_rows=zone_rows)
    with Database(path=root) as db:
        db.create_table(
            "t",
            Table.from_dict(
                {
                    "k": [i // zone_rows for i in range(rows)],
                    "v": [float(i % 97) for i in range(rows)],
                }
            ),
        )
        db.checkpoint()
    settings.configure(storage="mmap")
    return Database(path=root)


class TestStreamedScan:
    def test_selective_scan_reads_under_ten_percent(self, tmp_path, _pin_storage_config):
        registry = _pin_storage_config
        db = _clustered_db(tmp_path / "db")
        try:
            table = db.get_table("t")
            total = sum(table.column(n).data.nbytes for n in table.column_names)
            result = db.sql("SELECT v FROM t WHERE k = 3")
            assert result.num_rows == 256
            read = registry.counter("io.bytes_read").value
            assert 0 < read < total * 0.10, (read, total)
            assert registry.counter("io.zones_skipped_io").value == 15
            assert registry.counter("io.morsels_streamed").value == 1
        finally:
            db.close()

    def test_streamed_equals_mask_path(self, tmp_path):
        db = _clustered_db(tmp_path / "db")
        try:
            streamed = db.sql("SELECT * FROM t WHERE k >= 14 AND v < 50")
        finally:
            db.close()
        settings.configure(storage="memory")
        db = Database(path=tmp_path / "db")
        try:
            tables_bit_identical(
                streamed, db.sql("SELECT * FROM t WHERE k >= 14 AND v < 50")
            )
        finally:
            db.close()

    def test_all_fail_predicate_reads_nothing(self, tmp_path, _pin_storage_config):
        registry = _pin_storage_config
        db = _clustered_db(tmp_path / "db")
        try:
            result = db.sql("SELECT * FROM t WHERE k = 999")
            assert result.num_rows == 0
            assert registry.counter("io.bytes_read").value == 0
            assert registry.counter("io.zones_skipped_io").value == 16
            assert registry.counter("io.morsels_streamed").value == 0
        finally:
            db.close()

    def test_explain_analyze_annotates_io(self, tmp_path):
        db = _clustered_db(tmp_path / "db")
        try:
            report = db.explain_analyze("SELECT v FROM t WHERE k = 3").render()
            assert "io:" in report
            assert "zones skipped" in report and "morsels streamed" in report
        finally:
            db.close()

    def test_fused_aggregate_streams_mapped_ranges(self, tmp_path, _pin_storage_config):
        """The scan under a filtered aggregate streams the surviving zone of
        the mapped main, reading there the predicate's and the aggregate's
        columns (8 bytes a row each), and annotates its own line."""
        registry = _pin_storage_config
        pin_defaults("optimizer")
        db = _clustered_db(tmp_path / "db")
        try:
            read = registry.counter("io.bytes_read")
            got = db.sql("SELECT COUNT(*) AS n FROM t WHERE k = 5")
            assert got.column("n")[0] == 256
            assert registry.counter("io.zones_skipped_io").value >= 15
            assert read.value == 256 * 8  # ``k`` alone
            got = db.sql("SELECT SUM(v) AS s FROM t WHERE k = 5")
            assert got.column("s")[0] == sum(float(i % 97) for i in range(1280, 1536))
            assert read.value == 256 * 8 + 256 * 16  # ``k`` and ``v``
            lines = db.explain_analyze(
                "SELECT COUNT(*) AS n FROM t WHERE k = 5"
            ).render().splitlines()
            (scan,) = [line for line in lines if line.strip().startswith("Scan(t")]
            assert "io: 2048 bytes read" in scan
            assert not any("io:" in line for line in lines if line is not scan)
        finally:
            db.close()

    def test_table_smaller_than_one_zone(self, tmp_path):
        root = tmp_path / "db"
        settings.configure(zone_rows=1024)
        with Database(path=root) as db:
            db.execute("CREATE TABLE small (a INT)")
            db.execute("INSERT INTO small VALUES (1), (2), (3)")
            db.checkpoint()
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            assert db.get_table("small").is_mapped
            got = db.sql("SELECT a FROM small WHERE a > 1 ORDER BY a")
            assert got.column("a").to_list() == [2, 3]

    def test_empty_table_mapped_scan(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE e (a INT)")
            db.checkpoint()
        settings.configure(storage="mmap")
        with Database(path=root) as db:
            assert db.sql("SELECT a FROM e WHERE a = 1").num_rows == 0

    def test_streamed_scan_with_tombstones(self, tmp_path):
        """The live-main mask is ANDed into the streamed ranges."""
        db = _clustered_db(tmp_path / "db")
        try:
            db.execute("DELETE FROM t WHERE v = 3.0 AND k = 3")
            got = db.sql("SELECT v FROM t WHERE k = 3")
            # zone 3 holds rows 768..1024, v cycles mod 97: count removed rows
            removed = sum(1 for i in range(768, 1024) if i % 97 == 3)
            assert removed > 0
            assert got.num_rows == 256 - removed
        finally:
            db.close()


# -- close() releases the maps --------------------------------------------------------


class TestCloseReleasesMaps:
    def test_root_deletable_after_close(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.execute("INSERT INTO t VALUES (1)")
            db.checkpoint()
        settings.configure(storage="mmap")
        db = Database(path=root)
        assert db.get_table("t").is_mapped
        db.close()
        shutil.rmtree(root)  # must not raise, even with strict semantics
        assert not root.exists()

    def test_close_idempotent_with_maps(self, tmp_path):
        root = tmp_path / "db"
        with Database(path=root) as db:
            db.execute("CREATE TABLE t (a INT)")
            db.checkpoint()
        settings.configure(storage="mmap")
        db = Database(path=root)
        db.close()
        db.close()


# -- the differential corpus ----------------------------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_corpus_bit_identity_mmap_vs_memory(seed: int, tmp_path) -> None:
    """Replay the differential corpus against a durable database twice —
    recovered with storage=memory and storage=mmap — under the worker
    pool with worker-crash injection and tiny zones, with a kill–recover
    cycle in between.  Payloads must match byte for byte."""
    rng = np.random.default_rng(3000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(30, 120)))
    queries = [random_query(rng) for _ in range(10)]
    root = tmp_path / "db"

    with Database(path=root) as db:
        db.create_table(
            "t",
            Table.from_dict(
                {name: [r[name] for r in rows] for name in ("id", "a", "b", "s")}
            ),
        )
        db.checkpoint()
        # a WAL tail past the checkpoint, so recovery replays too
        db.execute("INSERT INTO t VALUES (900, 1, 1.0, 'elk')")
        db.execute("DELETE FROM t WHERE id = 0")

    settings.configure(zone_rows=8, storage="memory")
    baseline_db = Database(path=root)
    baseline = [baseline_db.sql(sql) for sql in queries]
    baseline_db.close()

    settings.configure(storage="mmap", threads=4, faults="worker_crash:0.1", fault_seed=seed)
    mapped_db = Database(path=root)
    assert mapped_db.main_table("t").is_mapped
    mapped = [mapped_db.sql(sql) for sql in queries]
    # kill (no close) and recover mid-session: maps reopen, results hold
    del mapped_db
    recovered_db = Database(path=root)
    recovered = [recovered_db.sql(sql) for sql in queries]
    recovered_db.close()

    for sql, expected, got, again in zip(queries, baseline, mapped, recovered):
        try:
            tables_bit_identical(got, expected)
            tables_bit_identical(again, expected)
        except AssertionError as exc:
            raise AssertionError(f"mmap engine diverged on: {sql}") from exc
