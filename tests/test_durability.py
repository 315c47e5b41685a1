"""Durability tests: WAL framing, checkpoints, crash recovery.

Covers the PR 8 surface: record encode/decode round trips, the
torn-tail vs mid-log-corruption distinction (a byte-offset truncation
sweep over the final record must never raise; a corrupt record with
bytes after it must), sync policies and their fsync counts, atomic
checkpoints (including recovery from an orphan directory left by a
crash mid-checkpoint), recovery edge cases (empty WAL, checkpoint-only,
WAL-only, double recovery, merge-on-every-write), `close()` semantics,
the PRAGMA settings listing, and the kill–replay property test: a
randomized DML workload crashed at a random injection point must
recover exactly the durable prefix, bit-identical to a Python-mirror
oracle.
"""

from __future__ import annotations

import shutil
import struct
from pathlib import Path

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import wal as walmod
from repro.errors import CatalogError, RecoveryError, WalError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience import SimulatedCrashError
from repro.storage import layouts
from tests.conftest import pin_defaults
from tests.fixtures import make_checkpoints
from tests.test_dml import _apply_dml, _python_matches, _random_dml, _rebuild_oracle
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import random_table


WAL_V1 = Path(__file__).parent / "fixtures" / "wal_v1"


@pytest.fixture(autouse=True)
def _pin_durability_config():
    """Deterministic durability/write-path config and a fresh metrics registry."""
    pin_defaults("wal", "wal_sync", "wal_batch", "delta_rows", "faults", "fault_seed")
    registry = MetricsRegistry()
    set_registry(registry)
    return registry


# -- record framing -------------------------------------------------------------------


class TestRecordFraming:
    def test_json_roundtrip(self):
        meta = {"op": "sql", "stmt": "INSERT INTO t VALUES (1, 'déjà')"}
        frame = walmod.encode_record(meta)
        length, crc = struct.unpack_from("<II", frame)
        assert length == len(frame) - 8
        decoded, blob = walmod.decode_payload(frame[8:])
        assert decoded == meta and blob is None

    def test_blob_roundtrip(self):
        """Kind 2 (JSON + blob) is read only: a frame built byte for byte
        as older writers built it decodes to its JSON and its blob."""
        blob = bytes(range(256)) * 3
        body = b'{"op":"create","table":"t"}'
        payload = bytes([2]) + struct.pack("<I", len(body)) + body + blob
        decoded, got = walmod.decode_payload(payload)
        assert decoded == {"op": "create", "table": "t"}
        assert got == blob

    def test_reader_roundtrip_and_valid_bytes(self, tmp_path):
        path = tmp_path / "wal.log"
        frames = [walmod.encode_record({"i": i}) for i in range(5)]
        path.write_bytes(walmod.MAGIC + b"".join(frames))
        records, valid = walmod.read_wal(path)
        assert [m["i"] for m, _ in records] == list(range(5))
        assert valid == path.stat().st_size
        # an older writer's log, kind-2 frames among kind 1
        path = WAL_V1 / walmod.wal_file_name(0)
        records, valid = walmod.read_wal(path)
        assert valid == path.stat().st_size
        blobs = [(meta, blob) for meta, blob in records if blob is not None]
        assert [(m["op"], m["table"]) for m, _ in blobs] == [
            ("create", "loaded"), ("create", "made"), ("create", "swapped"),
            ("replace", "swapped"), ("replace", "made"), ("create", "gone"),
        ]
        loaded = layouts.table_from_bytes(blobs[0][1])
        assert loaded.column("s").to_list() == make_checkpoints.wal_table(40).column("s").to_list()
        assert all(isinstance(meta, dict) and blob is None for meta, blob in records
                   if meta["op"] not in ("create", "replace"))

    def test_missing_and_short_files(self, tmp_path):
        assert walmod.read_wal(tmp_path / "absent.log") == ([], 0)
        short = tmp_path / "short.log"
        short.write_bytes(walmod.MAGIC[:3])
        assert walmod.read_wal(short) == ([], 0)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "wal.log"
        path.write_bytes(b"NOTAWAL!" + walmod.encode_record({"i": 0}))
        with pytest.raises(RecoveryError, match="magic"):
            walmod.read_wal(path)

    def test_torn_tail_discarded_midlog_raises(self, tmp_path):
        first = walmod.encode_record({"i": 0})
        second = walmod.encode_record({"i": 1})
        path = tmp_path / "wal.log"
        # CRC-bad *final* record: torn tail, cleanly discarded
        broken = bytearray(second)
        broken[-1] ^= 0xFF
        path.write_bytes(walmod.MAGIC + first + bytes(broken))
        records, valid = walmod.read_wal(path)
        assert [m["i"] for m, _ in records] == [0]
        assert valid == len(walmod.MAGIC) + len(first)
        # the same bad record with bytes after it: mid-log corruption
        path.write_bytes(walmod.MAGIC + bytes(broken) + first)
        with pytest.raises(RecoveryError, match="mid-log"):
            walmod.read_wal(path)


# -- persist / reopen -----------------------------------------------------------------


class TestPersistReopen:
    def test_wal_only_open(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.execute("CREATE TABLE t (a INT, s TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'x'), (2, NULL)")
            db.execute("UPDATE t SET a = a + 10 WHERE s = 'x'")
            expected = list(db.sql("SELECT * FROM t ORDER BY a").rows())
        assert not (tmp_path / "CURRENT").exists()  # no checkpoint was taken
        with Database(path=tmp_path) as db2:
            assert list(db2.sql("SELECT * FROM t ORDER BY a").rows()) == expected
            # one record each for CREATE, the (multi-row) INSERT, and UPDATE
            assert db2.durability.last_recovery["records_replayed"] == 3
            assert db2.durability.last_recovery["checkpoint"] is None

    def test_empty_wal_open(self, tmp_path):
        with Database(path=tmp_path) as db:
            assert db.table_names() == []
        with Database(path=tmp_path) as db2:
            assert db2.table_names() == []
            assert db2.durability.last_recovery["records_replayed"] == 0

    def test_programmatic_ddl_snapshots(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2, None], "s": ["x", None, "y"]})
            db.create_table("gone", {"z": [1]})
            db.drop_table("gone")
            db.replace_table("t", Table.from_dict({"a": [7], "s": [None]}))
        with Database(path=tmp_path) as db2:
            assert db2.table_names() == ["t"]
            assert list(db2.get_table("t").rows()) == [(7, None)]

    def test_delete_without_where_replays_as_snapshot(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2, 3]})
            assert db.execute("DELETE FROM t") == 3
        with Database(path=tmp_path) as db2:
            assert db2.get_table("t").num_rows == 0
            assert db2.get_table("t").column_names == ("a",)

    def test_checkpoint_then_reopen_replays_nothing(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": list(range(20)), "s": ["w"] * 20})
            db.sql("SELECT max(a) FROM t")  # populate cached statistics
            path = db.checkpoint()
            assert "checkpoint-000001" in path
        with Database(path=tmp_path) as db2:
            recovery = db2.durability.last_recovery
            assert recovery["checkpoint"] == 1
            assert recovery["records_replayed"] == 0
            assert list(db2.get_table("t").column("a").to_list()) == list(range(20))

    def test_checkpoint_preserves_statistics_and_dictionary(self, tmp_path):
        settings.configure(zone_rows=8)
        with Database(path=tmp_path) as db:
            db.create_table(
                "t", {"a": list(range(40)), "s": ["ash", "oak"] * 20}
            )
            stats = db.statistics("t")
            zones = db.zone_map("t")
            db.checkpoint()
        with Database(path=tmp_path) as db2:
            assert 8 in db2._state("t").zones  # loaded from disk, not recomputed
            restored = db2.statistics("t")
            assert restored.row_count == stats.row_count
            cs, rs = stats.column("a"), restored.column("a")
            assert (rs.min_value, rs.max_value) == (cs.min_value, cs.max_value)
            assert rs.distinct_count == cs.distinct_count
            restored_zones = db2.zone_map("t")
            assert np.array_equal(restored_zones.columns["a"].mins, zones.columns["a"].mins)
            pair = db2.get_table("t").column("s").dictionary()
            assert pair is not None  # codes came off disk, not re-encoded

    def test_post_checkpoint_writes_replay_on_top(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1]})
            db.checkpoint()
            db.execute("INSERT INTO t VALUES (2)")
        with Database(path=tmp_path) as db2:
            assert sorted(db2.sql("SELECT * FROM t").rows()) == [(1,), (2,)]
            assert db2.durability.last_recovery["records_replayed"] == 1

    def test_double_recovery(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1]})
        db2 = Database(path=tmp_path)
        db2.execute("INSERT INTO t VALUES (2)")
        settings.configure(faults="wal_post_append:1.0")
        with pytest.raises(SimulatedCrashError):
            db2.execute("INSERT INTO t VALUES (3)")
        settings.configure(faults="off")
        # post_append under the commit policy: the record was fsynced
        with Database(path=tmp_path) as db3:
            assert sorted(db3.sql("SELECT * FROM t").rows()) == [(1,), (2,), (3,)]

    def test_merge_on_every_write_recovery(self, tmp_path):
        settings.configure(delta_rows=1)
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [0], "s": ["x"]})
            for i in range(1, 6):
                db.execute(f"INSERT INTO t VALUES ({i}, 'v{i}')")
            db.execute("DELETE FROM t WHERE a = 3")
            expected = list(db.sql("SELECT * FROM t ORDER BY a").rows())
        with Database(path=tmp_path) as db2:
            assert list(db2.sql("SELECT * FROM t ORDER BY a").rows()) == expected
            # merge markers replayed the merges: nothing left pending
            assert db2.delta_store_if_dirty("t") is None

    def test_failed_statements_are_not_logged(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1]})
            with pytest.raises(CatalogError):
                db.execute("INSERT INTO t (nope) VALUES (2)")
            db.execute("INSERT INTO t VALUES (5)")
        with Database(path=tmp_path) as db2:
            assert db2.durability.last_recovery["records_failed"] == 0
            assert sorted(db2.sql("SELECT * FROM t").rows()) == [(1,), (5,)]


# -- close() / context manager --------------------------------------------------------


class TestClose:
    def test_close_is_idempotent_and_blocks_use(self, tmp_path):
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        db.close()
        db.close()
        with pytest.raises(CatalogError, match="closed"):
            db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(CatalogError, match="closed"):
            db.sql("SELECT 1")

    def test_in_memory_close(self):
        with Database() as db:
            db.create_table("t", {"a": [1]})
        with pytest.raises(CatalogError, match="closed"):
            db.sql("SELECT * FROM t")

    def test_close_flushes_unsynced_tail(self, tmp_path):
        settings.configure(wal_sync="off")
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.durability.wal.durable_records == 0
        db.close()
        with Database(path=tmp_path) as db2:
            assert list(db2.sql("SELECT * FROM t").rows()) == [(1,)]


# -- sync policies --------------------------------------------------------------------


class TestSyncPolicies:
    def test_commit_fsyncs_every_record(self, tmp_path, _pin_durability_config):
        db = Database(path=tmp_path)
        base = _pin_durability_config.counter("wal.fsyncs").value
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert _pin_durability_config.counter("wal.fsyncs").value - base == 2
        assert db.durability.wal.durable_records == db.durability.wal.records_logged == 2
        db.close()

    def test_batch_fsyncs_every_n(self, tmp_path):
        settings.configure(wal_sync="batch", wal_batch=3)
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        assert db.durability.wal.durable_records == 0
        db.execute("INSERT INTO t VALUES (2)")  # third record: batch boundary
        assert db.durability.wal.durable_records == 3
        db.close()

    def test_sync_off_loses_unsynced_records_on_crash(self, tmp_path):
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")  # commit policy: durable
        settings.configure(wal_sync="off")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(SimulatedCrashError):
            db.durability.wal.simulate_crash("test power loss")
        with Database(path=tmp_path) as db2:
            assert db2.get_table("t").num_rows == 0  # table survived, row did not

    def test_wal_off_is_checkpoint_only(self, tmp_path):
        settings.configure(wal=False)
        db = Database(path=tmp_path)
        db.create_table("t", {"a": [1]})
        db.checkpoint()
        db.execute("INSERT INTO t VALUES (2)")
        assert db.durability.wal.records_logged == 0
        db.close()
        with Database(path=tmp_path) as db2:
            assert list(db2.sql("SELECT * FROM t").rows()) == [(1,)]

    def test_wal_pragmas(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.execute("PRAGMA wal_sync=batch")
            db.execute("PRAGMA wal_batch=7")
            config = settings.current
            assert (config.wal_sync, config.wal_batch) == ("batch", 7)
            with pytest.raises(CatalogError, match="wal_sync"):
                db.execute("PRAGMA wal_sync=sometimes")
            rows = dict()
            for pragma, value, source in db.execute("PRAGMA").rows():
                rows[pragma] = (value, source)
            assert rows["wal_sync"] == ("batch", "pragma")
            assert rows["wal_batch"] == ("7", "pragma")
            assert rows["threads"][1].startswith(("default", "env:"))

    def test_every_listed_setting_is_a_pragma(self):
        """The listing and the unknown-pragma message name the same
        settings, and ``PRAGMA <name>`` reads each one back."""
        db = Database()
        with pytest.raises(CatalogError, match="unknown pragma 'nosuch'") as unknown:
            db.execute("PRAGMA nosuch")
        listed = list(db.execute("PRAGMA").rows())
        assert {"wal", "wal_sync", "wal_batch"} <= {name for name, _, _ in listed}
        for name, value, _source in listed:
            assert repr(name) in str(unknown.value)
            assert str(db.execute(f"PRAGMA {name}").column("value")[0]) == value


# -- torn-write sweep (acceptance criterion) ------------------------------------------


def _frame_offsets(data: bytes) -> list[int]:
    """Byte offset of every record frame in a WAL image."""
    offsets, offset = [], len(walmod.MAGIC)
    while offset + 8 <= len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offsets.append(offset)
        offset += 8 + length
    return offsets


def test_torn_write_sweep_never_raises(tmp_path):
    """Truncate the WAL at *every* byte offset of the final record, a
    ``replace_table`` naming its load dir: recovery must never raise, must
    restore exactly the statements whose records survived intact, and must
    remove the load dir a cut record leaves behind."""
    source = tmp_path / "db"
    with Database(path=source) as db:
        db.execute("CREATE TABLE t (a INT)")
        for i in range(3):
            db.execute(f"INSERT INTO t VALUES ({i})")
        db.replace_table("t", Table.from_dict({"a": [7, 8]}))
    wal_path = source / walmod.wal_file_name(0)
    image = wal_path.read_bytes()
    last_start = _frame_offsets(image)[-1]
    assert walmod.read_wal(wal_path)[0][-1][0]["dir"] == "load-000001"
    for cut in range(last_start, len(image) + 1):
        target = tmp_path / f"cut{cut}"
        shutil.copytree(source, target)
        (target / walmod.wal_file_name(0)).write_bytes(image[:cut])
        with Database(path=target) as recovered:
            rows = sorted(recovered.sql("SELECT * FROM t").rows())
            intact = cut == len(image)
            assert rows == ([(7,), (8,)] if intact else [(0,), (1,), (2,)]), f"cut at {cut}"
            assert (target / "load-000001").is_dir() == intact, f"cut at byte {cut}"
        shutil.rmtree(target)


def test_midlog_corruption_raises_recovery_error(tmp_path):
    with Database(path=tmp_path) as db:
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        db.execute("INSERT INTO t VALUES (2)")
    wal_path = tmp_path / walmod.wal_file_name(0)
    image = bytearray(wal_path.read_bytes())
    second_start = _frame_offsets(bytes(image))[1]
    image[second_start + 10] ^= 0xFF  # payload byte of a non-final record
    wal_path.write_bytes(bytes(image))
    with pytest.raises(RecoveryError, match="mid-log"):
        Database(path=tmp_path)


# -- load dirs: a programmatic create/replace's column files --------------------------


def _load_dirs(root) -> list[str]:
    return sorted(entry.name for entry in root.iterdir() if entry.name.startswith("load-"))


class TestLoadDirs:
    def test_record_names_the_files_a_checkpoint_writes(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2, None], "s": ["x", None, "y"]})
        (meta, blob), = walmod.read_wal(tmp_path / walmod.wal_file_name(0))[0]
        assert blob is None and set(meta) == {"op", "table", "dir", "files"}
        assert (meta["op"], meta["table"], meta["dir"]) == ("create", "t", "load-000001")
        assert [(c["name"], c["dtype"], sorted(c["files"])) for c in meta["files"]] == [
            ("a", "INT64", ["data", "validity"]),
            ("s", "STRING", ["codes", "dictionary", "validity"]),
        ]
        assert sorted(p.name for p in (tmp_path / "load-000001").iterdir()) == sorted(
            name for c in meta["files"] for name in c["files"].values()
        )

    def test_close_without_a_checkpoint_keeps_it(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2]})
        assert _load_dirs(tmp_path) == ["load-000001"]
        with Database(path=tmp_path) as db:
            assert db.durability.last_recovery["records_replayed"] == 1
            assert list(db.get_table("t").rows()) == [(1,), (2,)]
        assert _load_dirs(tmp_path) == ["load-000001"]

    def test_a_later_merge_spill_never_deletes_or_reuses_it(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2], "s": ["x", "y"]})
        before = {p.name: p.read_bytes() for p in (tmp_path / "load-000001").iterdir()}
        settings.configure(storage="mmap", delta_rows=1)
        with Database(path=tmp_path) as db:
            assert db.main_table("t").column("a").backing.directory.name == "load-000001"
            db.execute("INSERT INTO t VALUES (3, 'z')")  # merged: spilled to a live dir
            assert db.main_table("t").column("a").backing.directory.name.startswith("live-")
            db.create_table("u", {"b": [5]})
            db.execute("INSERT INTO t VALUES (4, 'w')")  # re-spilled: the old live dir goes
            assert _load_dirs(tmp_path) == ["load-000001", "load-000002"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "load-000001").iterdir()} == before
        settings.configure(storage="memory")
        with Database(path=tmp_path) as db:
            assert sorted(db.get_table("t").rows()) == [(1, "x"), (2, "y"), (3, "z"), (4, "w")]
            assert list(db.get_table("u").rows()) == [(5,)]
            db.create_table("v", {"c": [6]})  # numbered past every load dir on disk
        assert _load_dirs(tmp_path) == ["load-000001", "load-000002", "load-000003"]

    def test_a_missing_load_dir_raises(self, tmp_path, _pin_durability_config):
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1]})
            db.create_table("u", {"a": [2]})
        shutil.rmtree(tmp_path / "load-000002")
        with pytest.raises(RecoveryError, match="load-000002"):
            Database(path=tmp_path)
        registry = _pin_durability_config
        assert registry.counter("recovery.records_failed").value == 0

    @pytest.mark.parametrize("storage", ["memory", "mmap"])
    def test_a_checkpoint_retires_them(self, tmp_path, storage):
        settings.configure(storage=storage)
        with Database(path=tmp_path) as db:
            db.create_table("t", {"a": [1, 2]})
        with Database(path=tmp_path) as db:  # replayed: mapped under mmap
            assert db.get_table("t").is_mapped == (storage == "mmap")
            db.replace_table("t", Table.from_dict({"a": [3]}))
            db.create_table("u", {"b": ["p", None]})
            assert _load_dirs(tmp_path) == ["load-000001", "load-000002", "load-000003"]
            db.checkpoint()
            assert _load_dirs(tmp_path) == []
            assert list(db.get_table("t").rows()) == [(3,)]
        with Database(path=tmp_path) as db:
            assert db.durability.last_recovery["records_replayed"] == 0
            assert list(db.get_table("t").rows()) == [(3,)]
            assert list(db.get_table("u").rows()) == [("p",), (None,)]

    def test_sql_ddl_logs_its_text(self, tmp_path):
        with Database(path=tmp_path) as db:
            db.execute("CREATE TABLE t (a INT, s TEXT)")
            db.execute("INSERT INTO t VALUES (1, 'x')")
            db.execute("DELETE FROM t")
        records, _ = walmod.read_wal(tmp_path / walmod.wal_file_name(0))
        assert [meta for meta, _ in records] == [
            {"op": "sql", "stmt": "CREATE TABLE t (a INT, s TEXT)"},
            {"op": "sql", "stmt": "INSERT INTO t VALUES (1, 'x')"},
            {"op": "sql", "stmt": "DELETE FROM t"},
        ]
        assert _load_dirs(tmp_path) == []


def test_durable_create_peaks_near_its_column_files(tmp_path):
    """A durable ``create_table`` holds little beyond what writing the
    same columns as part files holds (a whole-table npz blob held ~6x)."""
    import tracemalloc

    pin_defaults("shards")  # an auto-shard would reorder the rows inside the create
    rows = 50_000

    def table() -> Table:
        built = Table.from_dict({
            "region": [f"region-{i % 12}" for i in range(rows)],
            "product": [f"product-{i * 7 % 500:04d}" for i in range(rows)],
            "customer": [f"customer-{i * 13 % 5000:05d}" for i in range(rows)],
        })
        for name in built.column_names:
            built.column(name).dictionary()
        return built

    def peak(work) -> int:
        tracemalloc.start()
        try:
            work()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    files, durable = table(), table()
    (tmp_path / "files").mkdir()
    written = peak(lambda: [
        layouts.save_column_files(tmp_path / "files", f"c{ci}", files.column(name))
        for ci, name in enumerate(files.column_names)
    ])
    db = Database(path=tmp_path / "db")
    try:
        created = peak(lambda: db.create_table("t", durable))
    finally:
        db.close()
    assert created < 2 * written, (created, written)


# -- crash injection points -----------------------------------------------------------


class TestCrashPoints:
    def test_pre_fsync_loses_the_record(self, tmp_path):
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        settings.configure(faults="wal_pre_fsync:1.0")
        with pytest.raises(SimulatedCrashError):
            db.execute("INSERT INTO t VALUES (2)")
        with pytest.raises(WalError, match="closed"):
            db.durability.wal.append({"op": "merge", "table": "t", "reason": "x"})
        settings.configure(faults="off")
        with Database(path=tmp_path) as db2:
            assert sorted(db2.sql("SELECT * FROM t").rows()) == [(1,)]

    def test_torn_write_leaves_recoverable_prefix(self, tmp_path):
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        db.execute("INSERT INTO t VALUES (1)")
        settings.configure(faults="wal_torn_write:1.0")
        with pytest.raises(SimulatedCrashError, match="torn"):
            db.execute("INSERT INTO t VALUES (2)")
        settings.configure(faults="off")
        wal_path = tmp_path / walmod.wal_file_name(0)
        records, valid = walmod.read_wal(wal_path)
        assert len(records) == 2 and valid < wal_path.stat().st_size
        with Database(path=tmp_path) as db2:
            assert sorted(db2.sql("SELECT * FROM t").rows()) == [(1,)]
            # recovery truncated the torn fragment away
            assert wal_path.stat().st_size == valid

    def test_crash_mid_checkpoint_recovers(self, tmp_path):
        db = Database(path=tmp_path)
        db.create_table("t", {"a": [1, 2]})
        settings.configure(faults="crash_mid_checkpoint:1.0")
        with pytest.raises(SimulatedCrashError):
            db.checkpoint()
        settings.configure(faults="off")
        with Database(path=tmp_path) as db2:
            assert sorted(db2.sql("SELECT * FROM t").rows()) == [(1,), (2,)]
            db2.execute("INSERT INTO t VALUES (3)")
        with Database(path=tmp_path) as db3:
            assert sorted(db3.sql("SELECT * FROM t").rows()) == [(1,), (2,), (3,)]

    def test_crash_mid_merge_recovers(self, tmp_path):
        settings.configure(delta_rows=1)
        db = Database(path=tmp_path)
        db.execute("CREATE TABLE t (a INT)")
        settings.configure(faults="crash_mid_merge:1.0")
        with pytest.raises(SimulatedCrashError):
            db.execute("INSERT INTO t VALUES (7)")
        settings.configure(faults="off")
        with Database(path=tmp_path) as db2:
            # the DML record and merge marker were durable (commit policy)
            assert list(db2.sql("SELECT * FROM t").rows()) == [(7,)]


# -- pending rows: reader snapshots, power loss after a batch INSERT ------------------


def _rows(table: Table) -> list[tuple]:
    return list(table.rows())


class TestPendingRows:
    def test_reads_taken_while_dirty_keep_their_values(self, tmp_path):
        """A ``get_table()`` result, the delta tail and a query result taken
        while writes are pending are snapshots: an UPDATE and a DELETE that
        hit the pending rows afterwards change none of them."""
        settings.configure(delta_rows=1_000_000)
        with Database(path=tmp_path) as db:
            db.create_table("t", {"id": [0, 1], "x": [10, 11], "s": ["a", "b"]})
            db.execute("INSERT INTO t VALUES (2, 12, 'c'), (3, 13, 'd'), (4, 14, NULL)")
            table, tail = db.get_table("t"), db.delta_tail("t")
            result = db.sql("SELECT id, x, s FROM t WHERE x >= 11 ORDER BY id")
            seen = [_rows(table), _rows(tail), _rows(result)]
            assert db.execute("UPDATE t SET x = x + 100, s = 'z' WHERE id >= 3") == 2
            assert db.execute("DELETE FROM t WHERE id = 2") == 1
            assert db.delta_store_if_dirty("t").pending_inserts == 3  # still pending
            assert [_rows(table), _rows(tail), _rows(result)] == seen
            assert _rows(db.get_table("t")) == [
                (0, 10, "a"), (1, 11, "b"), (3, 113, "z"), (4, 114, "z"),
            ]

    @pytest.mark.parametrize("delta_rows", [1, 1_000_000])
    @pytest.mark.parametrize(
        "crash", ["power_loss", "wal_pre_fsync:1.0", "wal_torn_write:1.0"]
    )
    def test_crash_after_a_batch_recovers_the_acknowledged_rows(
        self, tmp_path, delta_rows, crash
    ):
        """Recovery restores exactly the rows of acknowledged statements:
        a 250-row batch that returned survives power loss; one whose WAL
        record never became durable is gone, merged or pending."""
        settings.configure(delta_rows=delta_rows)
        db = Database(path=tmp_path)
        db.create_table("t", {"id": [0], "v": [0.5], "s": ["a"]})
        acknowledged = {0: (0, 0.5, "a")}
        batch = {i: (i, i / 4, f"k'{i % 7}") for i in range(1, 251)}
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {v!r}, '{s.replace(chr(39), chr(39) * 2)}')" for i, v, s in batch.values()
        ))
        acknowledged.update(batch)
        assert db.execute("UPDATE t SET v = v + 1 WHERE id >= 200") == 51
        for i in range(200, 251):
            acknowledged[i] = (i, i / 4 + 1, batch[i][2])
        assert db.execute("DELETE FROM t WHERE id < 5") == 5
        for i in range(5):
            del acknowledged[i]
        if crash == "power_loss":
            with pytest.raises(SimulatedCrashError):
                db.durability.wal.simulate_crash("test power loss")
        else:
            settings.configure(faults=crash)
            with pytest.raises(SimulatedCrashError):
                db.execute("INSERT INTO t VALUES (900, 1.0, 'lost'), (901, 2.0, 'lost')")
            settings.configure(faults="off")
        with Database(path=tmp_path) as recovered:
            assert sorted(_rows(recovered.get_table("t"))) == sorted(acknowledged.values())


# -- kill–replay property test (acceptance criterion) ---------------------------------


_CRASH_SPECS = [
    "wal_pre_fsync:0.2",
    "wal_post_append:0.2",
    "wal_torn_write:0.2",
    "crash_mid_merge:0.3",
    "crash_mid_checkpoint:0.8",
    "wal_pre_fsync:0.1,wal_post_append:0.1,wal_torn_write:0.1,"
    "crash_mid_merge:0.15,crash_mid_checkpoint:0.5",
]


def _mirror_only(rows: list[dict], op: tuple) -> None:
    """Apply one DML op to the Python mirror alone (no engine call)."""
    kind = op[0]
    if kind == "insert":
        rows.extend({"id": r[0], "a": r[1], "b": r[2], "s": r[3]} for r in op[1])
    elif kind == "delete":
        _, column, cmp_op, value = op
        rows[:] = [r for r in rows if not _python_matches(r, column, cmp_op, value)]
    else:
        _, k, column, cmp_op, value = op
        for row in rows:
            if _python_matches(row, column, cmp_op, value) and row["a"] is not None:
                row["a"] += k


def _assert_matches_mirror(db: Database, mirror: list[dict]) -> None:
    got = db.get_table("t")
    if not mirror:
        assert got.num_rows == 0
        return
    tables_bit_identical(got, _rebuild_oracle(mirror).get_table("t"))


@pytest.mark.parametrize("seed", range(10))
def test_kill_replay_property(tmp_path, seed):
    """Crash a randomized DML workload at a random injection point; recovery
    must restore exactly the durable prefix, bit-identical to the oracle.

    Bookkeeping: under the ``commit`` sync policy a statement is durable
    iff its WAL record index (sampled before execution) is below the dead
    log's ``durable_records``; statements persisted by a successful
    checkpoint are durable regardless of the log that followed.
    """
    rng = np.random.default_rng(9000 + seed)
    table, rows = random_table(rng, n=int(rng.integers(10, 30)))
    script = []
    next_id = len(rows)
    for _ in range(20):
        op, next_id = _random_dml(rng, next_id)
        script.append(op)
    crash_spec = _CRASH_SPECS[seed % len(_CRASH_SPECS)]
    settings.configure(delta_rows=int(rng.choice([1, 4, 1_000_000])))

    db = Database(path=tmp_path)
    db.create_table("t", table)
    mirror = [dict(r) for r in rows]
    snaps = [[dict(r) for r in mirror]]  # snaps[k] = state after k statements
    checkpointed = 0  # statements baked into the last successful checkpoint
    records_before: list[int] = []  # per post-checkpoint statement, on the live log
    settings.configure(faults=crash_spec, fault_seed=seed)
    crashed = False
    expected: list[dict] | None = None
    try:
        for j, op in enumerate(script):
            if rng.random() < 0.2:
                try:
                    db.checkpoint()
                    checkpointed = j
                    records_before = []
                except SimulatedCrashError:
                    crashed = True
                    expected = snaps[j]  # no statement was in flight
                    break
            records_before.append(db.durability.wal.records_logged)
            try:
                _apply_dml(db, mirror, op)
            except SimulatedCrashError:
                crashed = True
                durable = db.durability.wal.durable_records
                extra = sum(1 for r in records_before if r < durable)
                k = checkpointed + extra
                expected = [dict(r) for r in snaps[min(k, j)]]
                if k == j + 1:  # the crashing statement itself was durable
                    _mirror_only(expected, op)
                break
            snaps.append([dict(r) for r in mirror])
    finally:
        settings.configure(faults="off")
    if not crashed:
        db.close()
        expected = mirror
    with Database(path=tmp_path) as recovered:
        _assert_matches_mirror(recovered, expected)
        recovered.flush_deltas()  # merge invariance: logical state unchanged
        _assert_matches_mirror(recovered, expected)
