"""Checkpoints written by an earlier writer still load.

``tests/fixtures/checkpoint_v1`` (format 1), ``checkpoint_v2`` (format
2) and ``checkpoint_v3`` (format 3) were written by
``tests/fixtures/make_checkpoints.py`` with code from before the column
histograms were deleted, so their manifests still carry per-column
statistics entries with a ``hist`` flag and ``h{i}b``/``h{i}c`` arrays.
The reader restores only the zone maps and ignores the column entries,
which today's writer no longer writes.  Opened with the current code,
each table's rows, dictionaries and layout equal what the same writer
produces today (a dictionary is used as stored, and an older writer's
holds a ``""`` for its NULLs that today's leaves out); its zone maps equal what the manifest holds; every
column entry the manifest holds equals what ``Database.statistics``
computes now; and completing the zone maps equals a rebuild.

``tests/fixtures/checkpoint_v4`` is the current writer's (format 4): a
STRING column is its codes and dictionary, with no payload part, and a
mapped one maps its codes and validity only.  Every checkpoint fixture
opens alike under both storage modes, and a checkpoint of any of them
is a format-4 one.

``tests/fixtures/wal_v1`` is a root with no checkpoint whose log holds
every kind of record, the programmatic creates and replaces as
whole-table npz blobs (frame kind 2), which the current writer no longer
writes.  Recovered under either storage mode, every table's rows,
dictionaries, pending rows and layout equal what the same script leaves
in an in-memory database today.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, DataType, Table
from repro.engine import wal as walmod
from repro.storage import layouts
from tests.conftest import pin_defaults
from tests.fixtures import make_checkpoints
from tests.test_catalog_state import (
    _STATISTICS_FIELDS,
    _assert_statistics_equal_rebuild,
    _assert_zones_equal_rebuild,
    _same_value,
    _zone_maps,
)

FIXTURES = Path(__file__).parent / "fixtures"
_EVERY_COLUMN = {"k", "f", "g", "n", "s", "b"}
#: per fixture and table, the column entries its writer's UPDATE left out
MISSING = {
    "checkpoint_v1": {"full": set(), "partial": _EVERY_COLUMN},
    "checkpoint_v2": {"full": set(), "partial": {"f", "s"}},
    "checkpoint_v3": {"sharded": set()},
}


@pytest.fixture(autouse=True)
def _pinned():
    make_checkpoints.configure()
    pin_defaults("delta_rows", "memory_budget_kb")


def _current(root: Path) -> Path:
    return root / (root / "CURRENT").read_text().strip()


def _written(root: Path) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """The manifest, and each table's statistics arrays, read raw."""
    directory = _current(root)
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    arrays = {}
    for meta in manifest["tables"]:
        arrays[meta["name"]] = {}
        if meta["stats_file"] is not None:
            with np.load(directory / meta["stats_file"], allow_pickle=False) as npz:
                arrays[meta["name"]] = {key: npz[key] for key in npz.files}
    return manifest, arrays


def _assert_same_rows(got: Table, want: Table) -> None:
    assert got.column_names == want.column_names
    for name in want.column_names:
        a, b = got.column(name), want.column(name)
        assert a.dtype is b.dtype, name
        valid = np.ones(len(b), dtype=bool) if b.validity is None else b.validity
        assert np.array_equal(
            np.ones(len(a), dtype=bool) if a.validity is None else a.validity, valid
        ), name
        if b.dtype is DataType.STRING:
            assert a.valid_data().tolist() == b.valid_data().tolist(), name
            (codes, values), (want_codes, want_values) = a.dictionary(), b.dictionary()
            # a stored dictionary is used as it is: an older writer's holds
            # a "" for its NULLs that no valid row need hold
            assert values.tolist() == sorted(
                set(want_values.tolist()) | ({""} & set(values.tolist()))
            ), name
            assert np.array_equal(values[codes][codes >= 0], want_values[want_codes][want_codes >= 0])
            assert np.array_equal(codes < 0, want_codes < 0), name
        else:  # bit for bit: NaN and -0.0 included
            assert a.valid_data().tobytes() == b.valid_data().tobytes(), name


def _assert_restored_zones(db: Database, name: str, meta: dict, arrays: dict,
                           order: list) -> None:
    """Every zone map the manifest holds that summarises each numeric
    column, and nothing else, before any scan: one lacking a column (an
    UPDATE once cut it) is left for the first scan to build."""
    zone_maps = _zone_maps(db, name)
    numeric = {column for column, dtype in db.main_table(name).schema.fields()
               if dtype.is_numeric}
    whole = {key: zone_meta for key, zone_meta in meta["zone_maps"].items()
             if numeric <= set(zone_meta["columns"])}
    assert {str(zone_rows) for zone_rows in zone_maps} == whole.keys()
    for key, zone_meta in whole.items():
        zones = zone_maps[int(key)]
        assert zones.row_count == zone_meta["row_count"]
        assert list(zones.columns) == zone_meta["columns"]
        for column in zone_meta["columns"]:
            prefix = f"z{key}_{order.index(column)}_"
            for field, part in (("mins", "min"), ("maxs", "max"), ("real_counts", "real"),
                                ("null_counts", "null"), ("nan_counts", "nan")):
                got, want = getattr(zones.columns[column], field), arrays[prefix + part]
                assert got.dtype == want.dtype and np.array_equal(got, want), (column, field)


def _assert_entries_recomputed(db: Database, name: str, entries: dict) -> None:
    """Every column entry an older writer persisted equals the one
    ``Database.statistics`` builds over the same rows now."""
    stats = db.statistics(name)
    for column, entry in entries.items():
        got = stats.column(column)
        written = {"dtype": DataType[entry["dtype"]], "min_value": entry["min"],
                   "max_value": entry["max"]}
        for field in _STATISTICS_FIELDS:
            want = written[field] if field in written else entry[field]
            assert _same_value(getattr(got, field), want), (name, column, field)


@pytest.mark.parametrize("fixture", sorted(make_checkpoints.WRITERS))
def test_checkpoint_written_before_the_histograms_went_loads(tmp_path, fixture):
    manifest, arrays = _written(FIXTURES / fixture)
    assert manifest["format"] == int(fixture[-1])
    entries = [
        entry for meta in manifest["tables"] if meta["stats"] is not None
        for entry in meta["stats"]["columns"].values()
    ]
    assert any(entry["hist"] for entry in entries), "the fixture carries no histogram"
    shutil.copytree(FIXTURES / fixture, tmp_path / "old")
    make_checkpoints.WRITERS[fixture](tmp_path / "new")
    old, new = Database(path=tmp_path / "old"), Database(path=tmp_path / "new")
    try:
        assert {meta["name"] for meta in manifest["tables"]} == MISSING[fixture].keys()
        for meta in manifest["tables"]:
            name, stats = meta["name"], meta["stats"] or {"columns": {}, "zone_maps": {}}
            main = old.main_table(name)
            _assert_same_rows(main, new.main_table(name))
            layout, want_layout = old.shard_layout(name), new.shard_layout(name)
            assert (layout and layout.to_manifest()) == (want_layout and want_layout.to_manifest())
            assert set(main.column_names) - set(stats["columns"]) == MISSING[fixture][name]
            _assert_restored_zones(old, name, stats, arrays[name],
                                   [column["name"] for column in meta["columns"]])
            _assert_entries_recomputed(old, name, stats["columns"])
            old.zone_map(name)
            _assert_zones_equal_rebuild(old, name)
            _assert_statistics_equal_rebuild(old, name)
    finally:
        old.close()
        new.close()


@pytest.mark.parametrize("ghost", [False, True], ids=["intact", "unknown_column"])
def test_statistics_naming_an_unknown_column_fall_back_to_an_older_checkpoint(
    tmp_path, ghost
):
    """The reader ignores column entries, but one that names a column the
    table lacks still marks the checkpoint damaged, so recovery opens the
    older one."""
    root = tmp_path / "db"
    shutil.copytree(FIXTURES / "checkpoint_v2", root)
    older = _current(root)
    newer = root / "checkpoint-000002"
    shutil.copytree(older, newer)
    shutil.copy(root / "wal-000001.log", root / "wal-000002.log")
    manifest = json.loads((newer / "MANIFEST.json").read_text())
    manifest["id"] = 2
    if ghost:
        columns = manifest["tables"][0]["stats"]["columns"]
        columns["ghost"] = columns["k"]
    (newer / "MANIFEST.json").write_text(json.dumps(manifest))
    (root / "CURRENT").write_text(newer.name)
    with Database(path=root) as db:
        assert db.durability.last_recovery["checkpoint"] == (1 if ghost else 2)
        assert db.main_table("full").num_rows == make_checkpoints.ROWS


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_wal_written_with_blob_records_replays(tmp_path, storage):
    records, _ = walmod.read_wal(FIXTURES / "wal_v1" / walmod.wal_file_name(0))
    assert {meta["op"] for meta, _ in records} == set(walmod._REPLAY_OPS)
    assert {meta["op"] for meta, blob in records if blob is not None} == {"create", "replace"}
    shutil.copytree(FIXTURES / "wal_v1", tmp_path / "root")
    make_checkpoints.configure_wal()
    want = Database()
    make_checkpoints.wal_v1_script(want)
    settings.configure(storage=storage)
    with Database(path=tmp_path / "root") as got:
        assert got.durability.last_recovery == {
            "checkpoint": None, "tables_restored": 0,
            "records_replayed": len(records), "records_failed": 0,
        }
        assert got.table_names() == want.table_names() == ["loaded", "made", "swapped"]
        for name in want.table_names():
            _assert_same_rows(got.main_table(name), want.main_table(name))
            _assert_same_rows(got.get_table(name), want.get_table(name))
            layout, want_layout = got.shard_layout(name), want.shard_layout(name)
            assert (layout and layout.to_manifest()) == (want_layout and want_layout.to_manifest())
        assert want.shard_layout("loaded") is not None
        assert want.delta_store_if_dirty("loaded") is not None


#: the parts a format-4 STRING column may hold
_STRING_PARTS = {"codes", "dictionary", "dictionary_lengths", "validity"}


def _string_files(manifest: dict) -> list[dict[str, str]]:
    return [column["files"] for meta in manifest["tables"] for column in meta["columns"]
            if column["dtype"] == "STRING"]


@pytest.mark.parametrize("storage", ["memory", "mmap"])
def test_format_4_stores_a_string_column_as_its_codes(tmp_path, storage):
    manifest, _ = _written(FIXTURES / "checkpoint_v4")
    assert manifest["format"] == 4
    assert _string_files(manifest) and all(
        set(files) <= _STRING_PARTS for files in _string_files(manifest)
    )
    shutil.copytree(FIXTURES / "checkpoint_v4", tmp_path / "old")
    make_checkpoints.write_v4(tmp_path / "new")
    settings.configure(storage=storage)
    with Database(path=tmp_path / "old") as old, Database(path=tmp_path / "new") as new:
        assert old.table_names() == ["plain", "sharded"]
        assert old.shard_layout("plain") is None and old.shard_layout("sharded") is not None
        for name in old.table_names():
            main = old.main_table(name)
            _assert_same_rows(main, new.main_table(name))
            layout, want_layout = old.shard_layout(name), new.shard_layout(name)
            assert (layout and layout.to_manifest()) == (want_layout and want_layout.to_manifest())
            column = main.column("s")
            assert column.dictionary()[0].dtype == np.int32
            if storage == "mmap":  # the codes and validity mapped, nothing else
                backing = column.backing
                assert {Path(array.filename).name for array in backing.arrays} == {
                    backing.files["codes"], backing.files["validity"]
                }
            else:
                assert not column.is_mapped
        strings = make_checkpoints.v4_table().column("s").to_list()
        assert old.main_table("plain").column("s").to_list() == strings
        assert {"", "a\x00", "line\n", None} <= set(strings)


def test_the_current_writer_reproduces_checkpoint_v4(tmp_path):
    """The current writer rewrites ``checkpoint_v4`` with the committed
    files, manifest and decoded arrays (CI's "Checkpoint writer matches
    its fixture" step), and one changed code shows as a difference."""
    make_checkpoints.main(tmp_path, ["checkpoint_v4"])
    new = tmp_path / "checkpoint_v4"
    assert make_checkpoints.differences(new, FIXTURES / "checkpoint_v4") == []
    part = next(new.rglob("*.codes.npy"))
    codes = np.load(part)
    codes[-1] = -1 if codes[-1] >= 0 else 0
    np.save(part, codes)
    assert make_checkpoints.differences(new, FIXTURES / "checkpoint_v4") == [
        f"differs: {part.relative_to(new)}"
    ]


@pytest.mark.parametrize("fixture", [*sorted(make_checkpoints.WRITERS), "checkpoint_v4"])
def test_every_checkpoint_opens_alike_in_both_modes_and_rewrites_as_format_4(tmp_path, fixture):
    """An older STRING part set is read as codes (its payload unread when
    codes sit beside it, else encoded at open); a checkpoint of it, of
    mapped parts too, is format 4 with no STRING payload part."""
    tables = {}
    for storage in layouts.STORAGE_MODES:
        root = tmp_path / storage
        shutil.copytree(FIXTURES / fixture, root)
        settings.configure(storage=storage)
        with Database(path=root) as db:
            tables[storage] = {name: db.main_table(name) for name in db.table_names()}
            db.checkpoint()
        manifest, _ = _written(root)
        assert manifest["format"] == 4
        assert all(set(files) <= _STRING_PARTS for files in _string_files(manifest))
        settings.configure(storage="memory")
        with Database(path=root) as db:
            for name, table in tables[storage].items():
                _assert_same_rows(db.main_table(name), table)
    assert tables["memory"].keys() == tables["mmap"].keys()
    for name, table in tables["memory"].items():
        _assert_same_rows(tables["mmap"][name], table)
