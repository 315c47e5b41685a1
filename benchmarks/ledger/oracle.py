"""NumPy oracles for every view and template, and result comparison.

Each oracle recomputes one query's answer from the generated arrays (or,
for ingest_explore, from the NumPy mirror of acknowledged writes) with
plain NumPy — no engine code.  Results compare as ordered columns of
Python scalars: integers and strings exactly, floats to 1e-9 relative
(the engine's pairwise float summation and ``np.bincount``'s sequential
one differ in the last bits).

:func:`identical` is the other check: two engine results from two
configurations must agree bit for bit.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from datagen import TableData

Columns = list[tuple[str, list[Any]]]


def _grouped(
    codes: np.ndarray, labels: np.ndarray | None, mask: np.ndarray,
    key: str, value: np.ndarray, how: str, out: str,
) -> Columns:
    """``SELECT key, COUNT(*) AS n, <how>(value) AS out ... GROUP BY key ORDER BY key``."""
    picked = codes[mask]
    groups = int(codes.max()) + 1 if len(codes) else 0
    counts = np.bincount(picked, minlength=groups)
    sums = np.bincount(picked, weights=value[mask], minlength=groups)
    present = np.flatnonzero(counts)
    keys = present.tolist() if labels is None else labels[present].tolist()
    agg = sums[present] if how == "sum" else sums[present] / counts[present]
    return [(key, keys), ("n", counts[present].tolist()), (out, agg.tolist())]


def _sales_mask(data: TableData, lo_ts, hi_ts, region, channel, floor) -> np.ndarray:
    ts = data.columns["ts"]
    lo, hi = np.searchsorted(ts, [lo_ts, hi_ts], side="left")
    mask = np.zeros(len(ts), dtype=bool)
    mask[lo:hi] = True
    if region is not None:
        mask &= data.codes["region"] == region
    if channel is not None:
        mask &= data.codes["channel"] == channel
    if floor is not None:
        mask &= data.columns["price"] >= floor
    return mask


def _top(order_cols: list[np.ndarray], limit: int) -> np.ndarray:
    """Positions of the first ``limit`` rows under a lexicographic order
    (``np.lexsort`` takes the primary key last)."""
    return np.lexsort(order_cols[::-1])[:limit]


def _sales_view(data: TableData, view: str, *filters) -> Columns:
    mask = _sales_mask(data, *filters)
    price = data.columns["price"]
    if view == "by_region":
        return _grouped(data.codes["region"], data.labels["region"], mask,
                        "region", price, "sum", "revenue")
    if view == "by_channel":
        return _grouped(data.codes["channel"], data.labels["channel"], mask,
                        "channel", price, "sum", "revenue")
    if view == "by_qty":
        return _grouped(data.columns["qty"], None, mask, "qty", price, "mean", "avg_price")
    if view == "top_products":
        product, _n, revenue = _grouped(
            data.codes["product"], data.labels["product"], mask,
            "product", price, "sum", "revenue",
        )
        names, sums = np.array(product[1], dtype=object), np.array(revenue[1])
        best = _top([-sums, np.argsort(np.argsort(names))], 10)
        return [("product", names[best].tolist()), ("revenue", sums[best].tolist())]
    picked = price[mask]
    if view == "kpi":
        if not len(picked):
            return [("n", [0]), ("revenue", [None]), ("avg_price", [None]),
                    ("min_price", [None]), ("max_price", [None])]
        return [
            ("n", [len(picked)]), ("revenue", [float(picked.sum())]),
            ("avg_price", [float(picked.mean())]),
            ("min_price", [float(picked.min())]), ("max_price", [float(picked.max())]),
        ]
    rows = np.flatnonzero(mask)
    best = rows[_top([-price[rows], data.columns["ts"][rows]], 20)]
    return [
        ("ts", data.columns["ts"][best].tolist()), ("price", price[best].tolist()),
        ("qty", data.columns["qty"][best].tolist()),
        ("region", data.columns["region"][best].tolist()),
        ("product", data.columns["product"][best].tolist()),
    ]


def _drilldown(events: TableData, users: TableData, template: str, *params) -> Columns:
    cols = events.columns
    if template == "point":
        rows = np.flatnonzero(cols["id"] == params[0])
        return [(name, cols[name][rows].tolist())
                for name in ("id", "day", "user_id", "kind", "amount")]
    if template in ("range_group", "join_group"):
        day = params[0]
        mask = (cols["day"] >= day) & (cols["day"] < day + 5)
        if template == "range_group":
            return _grouped(events.codes["kind"], events.labels["kind"], mask,
                            "kind", cols["amount"], "sum", "total")
        segment_of_row = users.codes["segment"][cols["user_id"]]  # user_id is users' row
        return _grouped(segment_of_row, users.labels["segment"], mask,
                        "segment", cols["amount"], "sum", "total")
    if template == "in_list":
        kinds, floor = params
        rows = np.flatnonzero(np.isin(events.codes["kind"], kinds) & (cols["amount"] > floor))
        best = rows[_top([-cols["amount"][rows], cols["id"][rows]], 10)]
        return [("id", cols["id"][best].tolist()), ("amount", cols["amount"][best].tolist())]
    key, cut = params
    rows = np.flatnonzero((cols["id"] >= key) & (cols["id"] < key + 50))
    amount = cols["amount"][rows]
    return [
        ("id", cols["id"][rows].tolist()),
        ("gross", (amount * cols["qty"][rows]).tolist()),
        ("band", np.where(amount > cut, "high", "low").tolist()),
    ]


def _readings_view(data: TableData, view: str, tlo: int) -> Columns:
    cols = data.columns
    mask = cols["ts"] >= tlo
    if view == "by_kind":
        return _grouped(data.codes["kind"], data.labels["kind"], mask,
                        "kind", cols["val"], "sum", "total")
    if view == "kpi":
        picked = cols["val"][mask]
        if not len(picked):
            return [("n", [0]), ("mean_val", [None]), ("last_ts", [None])]
        return [("n", [len(picked)]), ("mean_val", [float(picked.mean())]),
                ("last_ts", [int(cols["ts"][mask].max())])]
    rows = np.flatnonzero(mask)
    best = rows[_top([-cols["val"][rows], cols["id"][rows]], 10)]
    return [(name, cols[name][best].tolist()) for name in ("id", "ts", "val")]


def expected(spec: tuple, tables: dict[str, TableData]) -> Columns:
    """The oracle answer for a query's ``spec`` over the given tables."""
    view = spec[0]
    if "sales" in tables:
        return _sales_view(tables["sales"], view, *spec[1:])
    if "events" in tables:
        return _drilldown(tables["events"], tables["users"], view, *spec[1:])
    return _readings_view(tables["readings"], view, *spec[1:])


def _close(got: Any, want: Any) -> bool:
    if got is None or want is None:
        return got is None and want is None
    if isinstance(want, float) or isinstance(got, float):
        return math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0) or got == want
    return got == want


def mismatch(result, want: Columns) -> str | None:
    """None when an engine result equals the oracle's columns, else why not."""
    names = [name for name, _values in want]
    if list(result.column_names) != names:
        return f"columns {list(result.column_names)} != {names}"
    for name, values in want:
        got = result.column(name).to_list()
        if len(got) != len(values):
            return f"{name}: {len(got)} rows != {len(values)}"
        for row, (g, w) in enumerate(zip(got, values)):
            if not _close(g, w):
                return f"{name}[{row}]: {g!r} != {w!r}"
    return None


def identical(a, b) -> bool:
    """True when two engine results are bit-identical (names, types, payload, nulls)."""
    if a.schema != b.schema or a.num_rows != b.num_rows:
        return False
    for name in a.column_names:
        left, right = a.column(name), b.column(name)
        if (left.validity is None) != (right.validity is None):
            return False
        if left.data.dtype.kind in "OU":  # strings: object in RAM, fixed-width when mapped
            if left.to_list() != right.to_list():
                return False
            continue
        left_data, right_data = left.data, right.data
        if left.validity is not None:  # null slots hold arbitrary payload
            if not np.array_equal(left.validity, right.validity):
                return False
            left_data, right_data = left_data[left.validity], right_data[right.validity]
        if left_data.tobytes() != right_data.tobytes():
            return False
    return True
