"""Seeded input tables for the ledger workloads.

Everything here is plain NumPy: the engine never sees the seed, only the
arrays (as a :class:`repro.engine.table.Table` built by :func:`to_table`).
String columns are generated as integer codes first and materialised as
object arrays for the engine; the codes stay on the benchmark side so the
NumPy oracles can group without touching Python strings.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

SALES_ROWS = 1_000_000
EVENTS_ROWS = 20_000
USERS_ROWS = 200
READINGS_ROWS = 200_000


@dataclass
class TableData:
    """One generated table: engine-facing columns plus oracle-side codes."""

    name: str
    columns: dict[str, np.ndarray]
    codes: dict[str, np.ndarray] = field(default_factory=dict)
    labels: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def rows(self) -> int:
        return len(next(iter(self.columns.values())))


def _labels(prefix: str, n: int, width: int) -> np.ndarray:
    return np.array([f"{prefix}_{i:0{width}d}" for i in range(n)], dtype=object)


def _add_strings(data: TableData, name: str, labels: np.ndarray, codes: np.ndarray) -> None:
    data.codes[name] = codes.astype(np.int64)
    data.labels[name] = labels
    data.columns[name] = labels[codes]


def sales(seed: int, rows: int = SALES_ROWS) -> TableData:
    """``sales(ts, price, qty, region, channel, product)``.

    ``ts`` is strictly increasing (so range shards and zone maps align
    with brushes), ``price`` is gamma-distributed, ``region`` is uniform
    over 12, ``channel`` is skewed over 4 and ``product`` is zipf over 500.
    """
    rng = np.random.default_rng([seed, 1])
    data = TableData("sales", {})
    data.columns["ts"] = np.cumsum(rng.integers(1, 5, rows)).astype(np.int64)
    data.columns["price"] = np.round(rng.gamma(2.0, 20.0, rows), 4)
    data.columns["qty"] = rng.integers(1, 11, rows).astype(np.int64)
    _add_strings(data, "region", _labels("region", 12, 2), rng.integers(0, 12, rows))
    _add_strings(
        data, "channel", np.array(["partner", "phone", "store", "web"], dtype=object),
        rng.choice(4, rows, p=[0.05, 0.15, 0.25, 0.55]),
    )
    weights = 1.0 / np.arange(1, 501) ** 1.1
    _add_strings(
        data, "product", _labels("product", 500, 3),
        rng.choice(500, rows, p=weights / weights.sum()),
    )
    return data


def events(seed: int, rows: int = EVENTS_ROWS) -> TableData:
    """``events(id, day, user_id, kind, amount, qty)`` — the small fact table."""
    rng = np.random.default_rng([seed, 2])
    data = TableData("events", {})
    data.columns["id"] = np.arange(rows, dtype=np.int64)
    data.columns["day"] = np.sort(rng.integers(0, 365, rows)).astype(np.int64)
    data.columns["user_id"] = rng.integers(0, USERS_ROWS, rows).astype(np.int64)
    _add_strings(data, "kind", _labels("kind", 8, 1), rng.integers(0, 8, rows))
    data.columns["amount"] = np.round(rng.gamma(2.0, 20.0, rows), 4)
    data.columns["qty"] = rng.integers(1, 11, rows).astype(np.int64)
    return data


def users(seed: int, rows: int = USERS_ROWS) -> TableData:
    """``users(user_id, segment, age)`` — the dimension table."""
    rng = np.random.default_rng([seed, 3])
    data = TableData("users", {})
    data.columns["user_id"] = np.arange(rows, dtype=np.int64)
    _add_strings(data, "segment", _labels("segment", 5, 1), rng.integers(0, 5, rows))
    data.columns["age"] = rng.integers(18, 80, rows).astype(np.int64)
    return data


def readings(seed: int, rows: int = READINGS_ROWS) -> TableData:
    """``readings(id, ts, val, qty, kind)`` — the table ingest_explore writes to.

    ``id`` equals the row's insertion position, which lets the NumPy
    mirror address rows by id without an index.
    """
    rng = np.random.default_rng([seed, 4])
    data = TableData("readings", {})
    data.columns["id"] = np.arange(rows, dtype=np.int64)
    data.columns["ts"] = np.cumsum(rng.integers(1, 5, rows)).astype(np.int64)
    data.columns["val"] = np.round(rng.gamma(2.0, 20.0, rows), 4)
    data.columns["qty"] = rng.integers(1, 11, rows).astype(np.int64)
    _add_strings(data, "kind", _labels("kind", 8, 1), rng.integers(0, 8, rows))
    return data


def digest(*tables: TableData) -> str:
    """SHA-256 over every column's bytes (string columns via their codes)."""
    h = hashlib.sha256()
    for table in tables:
        for name, array in table.columns.items():
            h.update(name.encode())
            source = table.codes.get(name, array)
            h.update(np.ascontiguousarray(source).tobytes())
            if name in table.labels:
                h.update("\0".join(table.labels[name]).encode())
    return h.hexdigest()


def to_table(data: TableData):
    """A fresh engine ``Table`` over the generated arrays.

    Fresh ``Column`` objects each time: the engine caches dictionary
    encodings on the column, and set-up must pay for them every time.
    """
    from repro.engine.column import Column
    from repro.engine.table import Table
    from repro.engine.types import DataType

    kinds = {"i": DataType.INT64, "f": DataType.FLOAT64, "O": DataType.STRING}
    return Table(
        [
            (name, Column(array, dtype=kinds[array.dtype.kind]))
            for name, array in data.columns.items()
        ]
    )
