"""Checkpoints written by an earlier writer still load.

``tests/fixtures/checkpoint_v2`` (format 2) and ``checkpoint_v3``
(format 3) were written by ``tests/fixtures/make_checkpoints.py`` with
the code from before the column histograms were deleted, so their
manifests still carry a ``hist`` flag and ``h{i}b``/``h{i}c`` arrays per
column, which the reader ignores.  Opened with the current code, each
table's rows, dictionaries and layout equal what the same writer
produces today; its zone maps and column entries equal what the manifest
holds; and completing them equals a rebuild from scratch.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.engine import Database, DataType, Table
from repro.engine.statistics import TableStatistics
from tests.conftest import pin_defaults
from tests.fixtures import make_checkpoints
from tests.test_catalog_state import _assert_statistics_equal_rebuild, _same_value

FIXTURES = Path(__file__).parent / "fixtures"
#: the column entries an UPDATE left missing when the fixture was written
MISSING = {"full": set(), "partial": {"f", "s"}, "sharded": set()}


@pytest.fixture(autouse=True)
def _pinned():
    make_checkpoints.configure()
    pin_defaults("delta_rows", "memory_budget_kb")


def _written(root: Path) -> tuple[dict, dict[str, dict[str, np.ndarray]]]:
    """The manifest, and each table's statistics arrays, read raw."""
    directory = root / (root / "CURRENT").read_text().strip()
    manifest = json.loads((directory / "MANIFEST.json").read_text())
    arrays = {}
    for meta in manifest["tables"]:
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
            assert np.array_equal(codes, want_codes), name
            assert values.tolist() == want_values.tolist(), name
        else:  # bit for bit: NaN and -0.0 included
            assert a.valid_data().tobytes() == b.valid_data().tobytes(), name


def _assert_restored(stats: TableStatistics, meta: dict, arrays: dict, order: list) -> None:
    """Every column entry and zone the manifest holds, and nothing else."""
    assert stats.row_count == meta["row_count"]
    assert stats.columns.keys() == meta["columns"].keys()
    for name, entry in meta["columns"].items():
        got = stats.columns[name]
        assert got.dtype.name == entry["dtype"]
        for field, key in (("row_count", "row_count"), ("null_count", "null_count"),
                           ("distinct_count", "distinct_count"),
                           ("min_value", "min"), ("max_value", "max")):
            assert _same_value(getattr(got, field), entry[key]), (name, field)
    assert {str(zone_rows) for zone_rows in stats.zone_maps} == meta["zone_maps"].keys()
    for key, zone_meta in meta["zone_maps"].items():
        zones = stats.zone_maps[int(key)]
        assert zones.row_count == zone_meta["row_count"]
        assert list(zones.columns) == zone_meta["columns"]
        for name in zone_meta["columns"]:
            prefix = f"z{key}_{order.index(name)}_"
            for field, part in (("mins", "min"), ("maxs", "max"), ("real_counts", "real"),
                                ("null_counts", "null"), ("nan_counts", "nan")):
                got, want = getattr(zones.columns[name], field), arrays[prefix + part]
                assert got.dtype == want.dtype and np.array_equal(got, want), (name, field)


@pytest.mark.parametrize("fixture", sorted(make_checkpoints.WRITERS))
def test_checkpoint_written_before_the_histograms_went_loads(tmp_path, fixture):
    manifest, arrays = _written(FIXTURES / fixture)
    assert manifest["format"] == int(fixture[-1])
    entries = [e for meta in manifest["tables"] for e in meta["stats"]["columns"].values()]
    assert any(entry["hist"] for entry in entries), "the fixture carries no histogram"
    shutil.copytree(FIXTURES / fixture, tmp_path / "old")
    make_checkpoints.WRITERS[fixture](tmp_path / "new")
    old, new = Database(path=tmp_path / "old"), Database(path=tmp_path / "new")
    try:
        for meta in manifest["tables"]:
            name = meta["name"]
            main = old.main_table(name)
            _assert_same_rows(main, new.main_table(name))
            layout, want_layout = old.shard_layout(name), new.shard_layout(name)
            assert (layout and layout.to_manifest()) == (want_layout and want_layout.to_manifest())
            assert set(main.column_names) - set(meta["stats"]["columns"]) == MISSING[name]
            _assert_restored(old.cached_statistics(name), meta["stats"], arrays[name],
                             [column["name"] for column in meta["columns"]])
            old.zone_map(name)
            old.statistics(name)
            _assert_statistics_equal_rebuild(old, name)
    finally:
        old.close()
        new.close()
