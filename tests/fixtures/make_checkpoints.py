"""Write the golden checkpoint fixtures that pin the on-disk format.

Run it with the ``repro`` package whose checkpoints the fixtures should
hold on the path, from the root of that checkout (``git archive`` of the
commit to pin), naming the fixtures that checkout writes::

    PYTHONPATH=src python tests/fixtures/make_checkpoints.py tests/fixtures checkpoint_v1

It (re)writes the durable database root of each named fixture (by
default all of them) under the given directory:

- ``checkpoint_v1/`` — format 1 (one ``.npz`` per column), as written by
  the last format-1 writer, commit ``78c218e``: table ``full`` with every
  column entry and zone map built before the checkpoint, and table
  ``partial``, whose statistics that writer's UPDATE dropped whole;
- ``checkpoint_v2/`` — format 2, unsharded: the same two tables, the
  statistics of ``partial`` left partial by the UPDATE;
- ``checkpoint_v3/`` — format 3: table ``sharded``, range-sharded on
  ``n``, so its rows are stored re-clustered;
- ``checkpoint_v4/`` — format 4, which stores a STRING column as its
  codes and dictionary only: table ``plain``, whose STRING ``s`` holds
  NULL, ``''``, a value ending in NUL, one ending in a newline and
  non-ASCII values, and table ``sharded``, as in ``checkpoint_v3``.  It
  is the current writer's: CI regenerates it and compares it with the
  committed copy (``--compare``, below), so a change to what a
  checkpoint holds shows there;
- ``wal_v1/`` — no checkpoint, only a write-ahead log holding every kind
  of record :func:`wal_v1_script` makes: programmatic creates and
  replaces as whole-table npz blobs (frame kind 2), SQL DDL and DML,
  merge markers, a re-shard and a drop.  It was written by the ``src``
  of commit ``a6b14e7``, the last kind-2 writer, through this file's
  :func:`write_wal_v1`; today's writer logs those creates as load dirs.

``make_checkpoints.py --compare A B`` exits non-zero when two fixture
roots differ in content (:func:`differences`).

The format-1 writer has no ``repro.settings``, so :func:`write_v1`
configures through PRAGMAs, and its column histograms cannot bin INT64
keys past 2**53, so its keys start at 0.

``tests/test_checkpoint_fixtures.py`` opens them with the current code
and runs the same writers against it to compare.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np

from repro.engine import Database, DataType, Table
from repro.engine.column import Column

ROWS = 200
ZONE_ROWS = 64
BIG = 2**60  # INT64 keys no float64 can tell apart


def configure() -> None:
    """The settings every writer (and the test reading back) runs under."""
    from repro import settings

    settings.configure(
        zone_rows=ZONE_ROWS, storage="memory", shards=0, threads=0,
        wal=True, faults="off",
    )


def table(rows: int = ROWS, first_key: int = BIG) -> Table:
    """NULLs in every column, NaN and -0.0 in ``f``, a NaN-free FLOAT64
    ``g``, INT64 keys from ``first_key`` (by default past 2**53), a
    dictionary-encoded STRING, a BOOL."""
    return Table([
        ("k", Column(np.arange(rows, dtype=np.int64) + first_key)),
        ("f", Column([None if i % 19 == 0 else float("nan") if i % 17 == 0
                      else -0.0 if i % 13 == 0 else ((i * 37) % 23 - 11) / 4
                      for i in range(rows)], dtype=DataType.FLOAT64)),
        ("g", Column([None if i % 23 == 0 else (i * 0.37) % 5 for i in range(rows)],
                     dtype=DataType.FLOAT64)),
        ("n", Column([None if i % 7 == 0 else (i * 5) % 9 - 4 for i in range(rows)],
                     dtype=DataType.INT64)),
        ("s", Column([None if i % 5 == 0 else "abcd"[i % 4] for i in range(rows)],
                     dtype=DataType.STRING)),
        ("b", Column([None if i % 11 == 0 else i % 3 == 0 for i in range(rows)],
                     dtype=DataType.BOOL)),
    ])


def _write_full_and_partial(db: Database, first_key: int) -> None:
    for name in ("full", "partial"):
        db.create_table(name, table(first_key=first_key))
        db.statistics(name)
        db.zone_map(name)
    db.execute(f"UPDATE partial SET f = f * -1, s = 'zz' WHERE k < {first_key + 80}")
    db.checkpoint()


def write_v1(root: Path) -> None:
    db = Database(path=root)
    try:
        db.execute(f"PRAGMA zone_rows={ZONE_ROWS}")
        _write_full_and_partial(db, first_key=0)
    finally:
        db.close()


def write_v2(root: Path) -> None:
    configure()
    db = Database(path=root)
    try:
        _write_full_and_partial(db, first_key=BIG)
    finally:
        db.close()


def v4_table(rows: int = ROWS) -> Table:
    """:func:`table` with a STRING ``s`` holding NULL, ``''``, a value
    ending in NUL, one ending in a newline and non-ASCII values."""
    strings = [None, "", "a\x00", "a", "line\n", "d\u00e9j\u00e0", "\u65e5\u672c"]
    base = table(rows)
    s = Column([strings[i % len(strings)] for i in range(rows)], dtype=DataType.STRING)
    return Table([(name, s if name == "s" else base.column(name)) for name in base.column_names])


def write_v4(root: Path) -> None:
    configure()
    db = Database(path=root)
    try:
        db.create_table("plain", v4_table())
        db.create_table("sharded", table())
        db.apply_sharding("sharded", 2, shard_by="range(n)")
        for name in ("plain", "sharded"):
            db.zone_map(name)
        db.checkpoint()
    finally:
        db.close()


def write_v3(root: Path) -> None:
    configure()
    db = Database(path=root)
    try:
        db.create_table("sharded", table())
        db.apply_sharding("sharded", 2, shard_by="range(n)")
        db.statistics("sharded")
        db.zone_map("sharded")
        db.checkpoint()
    finally:
        db.close()


#: a pending delta this small makes the script's INSERTs log merge markers
WAL_DELTA_ROWS = 8


def configure_wal() -> None:
    """The settings :func:`wal_v1_script` runs under, written or replayed."""
    from repro import settings

    configure()
    settings.configure(delta_rows=WAL_DELTA_ROWS)


def wal_table(rows: int, first_key: int = BIG) -> Table:
    """INT64 keys past 2**53, NaN and -0.0 in ``f``, and a STRING ``s``
    holding NULL, ``''``, a value ending in NUL and non-ASCII values."""
    strings = [None, "", "a\x00", "a", "d\u00e9j\u00e0", "\u65e5\u672c"]
    return Table([
        ("k", Column(np.arange(rows, dtype=np.int64) + first_key)),
        ("f", Column([None if i % 7 == 0 else float("nan") if i % 5 == 0
                      else -0.0 if i % 3 == 0 else i / 4 for i in range(rows)],
                     dtype=DataType.FLOAT64)),
        ("n", Column([None if i % 11 == 0 else (i * 5) % 9 - 4 for i in range(rows)],
                     dtype=DataType.INT64)),
        ("s", Column([strings[i % len(strings)] for i in range(rows)],
                     dtype=DataType.STRING)),
    ])


def wal_v1_script(db: Database) -> None:
    """One statement of every kind the WAL logs, against ``db``."""
    db.create_table("loaded", wal_table(40))
    db.execute("CREATE TABLE made (a INT, s TEXT)")
    db.execute("INSERT INTO made VALUES (1, 'x'), (2, NULL), (3, 'd\u00e9j\u00e0')")
    values = ", ".join(f"({BIG + 100 + i}, {i / 2}, {i % 5 - 2}, 'w{i % 3}')"
                       for i in range(WAL_DELTA_ROWS + 1))
    db.execute(f"INSERT INTO loaded VALUES {values}")  # crosses delta_rows: a merge
    db.execute("UPDATE loaded SET f = f * -1, s = 'zz' WHERE n > 2")
    db.execute("DELETE FROM loaded WHERE n < -2")
    db.create_table("swapped", wal_table(12))
    db.replace_table("swapped", wal_table(20, first_key=-BIG))
    db.execute("DELETE FROM made")
    db.execute("INSERT INTO made VALUES (4, '')")
    db.apply_sharding("loaded", 2, shard_by="range(n)")
    db.create_table("gone", {"z": [1, 2]})
    db.drop_table("gone")
    db.execute(f"INSERT INTO loaded VALUES ({BIG + 999}, -0.0, 1, 'p')")  # left pending


def write_wal_v1(root: Path) -> None:
    configure_wal()
    db = Database(path=root)
    try:
        wal_v1_script(db)
    finally:
        db.close()


#: the checkpoints written before the column histograms went
WRITERS = {"checkpoint_v1": write_v1, "checkpoint_v2": write_v2, "checkpoint_v3": write_v3}
#: every fixture :func:`main` can write: the checkpoints and the log
FIXTURES = {**WRITERS, "checkpoint_v4": write_v4, "wal_v1": write_wal_v1}


def _arrays(path: Path) -> dict[str, np.ndarray]:
    if path.suffix == ".npy":
        return {"": np.load(path, allow_pickle=False)}
    with np.load(path, allow_pickle=False) as npz:
        return {key: npz[key] for key in npz.files}


def differences(left: Path, right: Path) -> list[str]:
    """What differs between fixture roots ``left`` and ``right``: their
    file names, each manifest as JSON, each ``.npy``/``.npz`` part as
    decoded arrays (dtype, shape and bytes) and any other file byte for
    byte.  The container bytes around the arrays (``.npy`` header
    padding, zip entry fields) vary with the numpy and Python versions,
    so they are not compared."""
    def names(root: Path) -> set[str]:
        return {str(path.relative_to(root)) for path in root.rglob("*") if path.is_file()}

    found = [f"only in one root: {name}" for name in sorted(names(left) ^ names(right))]
    for name in sorted(names(left) & names(right)):
        a, b = left / name, right / name
        if a.name == "MANIFEST.json":
            same = json.loads(a.read_text()) == json.loads(b.read_text())
        elif a.suffix in (".npy", ".npz"):
            x, y = _arrays(a), _arrays(b)
            same = x.keys() == y.keys() and all(
                x[k].dtype == y[k].dtype and x[k].shape == y[k].shape
                and x[k].tobytes() == y[k].tobytes() for k in x
            )
        else:
            same = a.read_bytes() == b.read_bytes()
        if not same:
            found.append(f"differs: {name}")
    return found


def main(out: Path, names: list[str]) -> None:
    for name in names:
        root = out / name
        shutil.rmtree(root, ignore_errors=True)
        FIXTURES[name](root)


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"]:
        found = differences(Path(sys.argv[2]), Path(sys.argv[3]))
        print("\n".join(found) or "same content")
        sys.exit(1 if found else 0)
    # e.g. ``... make_checkpoints.py tests/fixtures checkpoint_v1``: one
    # checkout writes the fixtures of its own format only
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent),
         sys.argv[2:] or list(FIXTURES))
