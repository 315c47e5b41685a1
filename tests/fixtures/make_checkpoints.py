"""Write the golden checkpoint fixtures that pin the on-disk format.

Run it with the ``repro`` package whose checkpoints the fixtures should
hold on the path, from the root of that checkout::

    PYTHONPATH=src python tests/fixtures/make_checkpoints.py tests/fixtures

It (re)writes two durable database roots under the given directory:

- ``checkpoint_v2/`` — format 2, unsharded: table ``full`` with every
  column entry and zone map built before the checkpoint, and table
  ``partial`` whose statistics an UPDATE left partial;
- ``checkpoint_v3/`` — format 3: table ``sharded``, range-sharded on
  ``n``, so its rows are stored re-clustered.

``tests/test_checkpoint_fixtures.py`` opens them with the current code
and runs the same writers against it to compare.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

from repro import settings
from repro.engine import Database, DataType, Table
from repro.engine.column import Column

ROWS = 200
ZONE_ROWS = 64
BIG = 2**60  # INT64 keys no float64 can tell apart


def configure() -> None:
    """The settings every writer (and the test reading back) runs under."""
    settings.configure(
        zone_rows=ZONE_ROWS, storage="memory", shards=0, threads=0,
        dict_encode=True, wal=True, faults="off",
    )


def table(rows: int = ROWS) -> Table:
    """NULLs in every column, NaN and -0.0 in ``f``, a NaN-free FLOAT64
    ``g``, INT64 keys past 2**53, a dictionary-encoded STRING, a BOOL."""
    return Table([
        ("k", Column(np.arange(rows, dtype=np.int64) + BIG)),
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


def write_v2(root: Path) -> None:
    configure()
    db = Database(path=root)
    try:
        for name in ("full", "partial"):
            db.create_table(name, table())
            db.statistics(name)
            db.zone_map(name)
        db.execute(f"UPDATE partial SET f = f * -1, s = 'zz' WHERE k < {BIG + 80}")
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


WRITERS = {"checkpoint_v2": write_v2, "checkpoint_v3": write_v3}


def main(out: Path) -> None:
    for name, write in WRITERS.items():
        root = out / name
        shutil.rmtree(root, ignore_errors=True)
        write(root)


if __name__ == "__main__":
    main(Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).parent))
