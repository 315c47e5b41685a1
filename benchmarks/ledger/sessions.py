"""Seeded analyst sessions: one generator of interactions per workload.

An *interaction* is one user gesture; the statements it fans out into
are what the driver sends through the front door.  Sessions are endless
deterministic streams — the same seed and data give byte-identical SQL —
whose first interaction is the untimed warm-up refresh.  Each stream is
built from fixed-composition blocks (the same multiset of gestures or
templates in a seeded order, brush widths drawn from fixed strata), so
two seeds differ in *where* the analyst looks, not in how much work the
session contains; that keeps percentiles comparable across seeds.

Every :class:`Query` carries the ``spec`` its NumPy oracle needs
(:mod:`oracle`), every :class:`Write` the row count the engine must
acknowledge.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from datagen import TableData


@dataclass(frozen=True)
class Query:
    view: str
    sql: str
    spec: tuple


@dataclass(frozen=True)
class Write:
    sql: str
    rows: int  # rows the engine must report as affected
    kind: str = "insert"


@dataclass
class Interaction:
    gesture: str
    queries: list[Query]
    writes: list[Write] = field(default_factory=list)
    checkpoint: bool = False


def script_digest(session: Iterator[Interaction], interactions: int) -> str:
    """SHA-256 of the first ``interactions`` interactions' SQL text."""
    h = hashlib.sha256()
    for interaction in itertools.islice(session, interactions):
        h.update(interaction.gesture.encode())
        for write in interaction.writes:
            h.update(write.sql.encode())
        for query in interaction.queries:
            h.update(query.sql.encode())
    return h.hexdigest()


# -- crossfilter: six linked views over sales ----------------------------------------

CROSSFILTER_VIEWS = ("by_region", "by_channel", "by_qty", "top_products", "kpi", "detail")

#: nominal brush widths as a share of the rows; each brush jitters its
#: width by up to 8% either way.  The widest stays above the engine's
#: ``min_parallel_rows`` (131072 of 1M rows) so sharded_mmap takes the
#: pooled routes on it every time, not on some seeds only.
_BRUSH_WIDTHS = (0.015, 0.036, 0.085, 0.16)
_BRUSH_JITTER = 0.08
#: price-floor quantiles a ``price_floor`` gesture can set
_FLOOR_QUANTILES = (0.5, 0.7)
#: The dashboard script: one cycle of 24 gestures, repeated.  The order,
#: the brush width class, which channel is picked, which filter is
#: cleared and how far a jump-back goes are fixed, so every seed walks
#: through the same sequence of filter-state *classes* and therefore the
#: same amount of work; the seed decides where the brush lands, how far
#: a drag moves it, its exact width and which region is picked.  The
#: four widest-unfiltered states are one sixth of the cycle so that the
#: p90 interaction sits inside that class, not on the cliff below it.
#: Each cycle ends with no filter but the brush.  Channel codes index
#: the sorted labels (partner, phone, store, web).
CROSSFILTER_CYCLE = (
    ("brush", 3), ("drag", None), ("drag", None), ("drag", None),
    ("pick_region", None), ("pick_channel", 3), ("clear", "region"),
    ("brush", 1), ("price_floor", 0), ("clear", "channel"), ("drag", None),
    ("jump_back", 4),
    ("brush", 2), ("clear", "channel"), ("drag", None), ("pick_region", None),
    ("price_floor", 1), ("drag", None), ("clear", "floor"),
    ("brush", 0), ("clear", "region"), ("drag", None), ("pick_channel", 2),
    ("jump_back", 3),
)


def crossfilter_queries(data: TableData, state: tuple) -> list[Query]:
    """The six view queries for a filter state.

    ``state`` is ``(lo_row, hi_row, region_code, channel_code, floor)``;
    a view ignores the filter on its own dimension (crossfilter
    semantics), so ``by_region`` drops the region pick and ``by_channel``
    the channel pick.
    """
    lo_row, hi_row, region, channel, floor = state
    ts = data.columns["ts"]
    lo_ts, hi_ts = int(ts[lo_row]), int(ts[hi_row])

    def where(use_region: bool = True, use_channel: bool = True) -> tuple[str, tuple]:
        conds = [f"ts >= {lo_ts}", f"ts < {hi_ts}"]
        r = region if use_region else None
        c = channel if use_channel else None
        if r is not None:
            conds.append(f"region = '{data.labels['region'][r]}'")
        if c is not None:
            conds.append(f"channel = '{data.labels['channel'][c]}'")
        if floor is not None:
            conds.append(f"price >= {floor!r}")
        return " AND ".join(conds), (lo_ts, hi_ts, r, c, floor)

    w_all, f_all = where()
    w_region, f_region = where(use_region=False)
    w_channel, f_channel = where(use_channel=False)
    return [
        Query(
            "by_region",
            "SELECT region, COUNT(*) AS n, SUM(price) AS revenue FROM sales "
            f"WHERE {w_region} GROUP BY region ORDER BY region",
            ("by_region",) + f_region,
        ),
        Query(
            "by_channel",
            "SELECT channel, COUNT(*) AS n, SUM(price) AS revenue FROM sales "
            f"WHERE {w_channel} GROUP BY channel ORDER BY channel",
            ("by_channel",) + f_channel,
        ),
        Query(
            "by_qty",
            "SELECT qty, COUNT(*) AS n, AVG(price) AS avg_price FROM sales "
            f"WHERE {w_all} GROUP BY qty ORDER BY qty",
            ("by_qty",) + f_all,
        ),
        Query(
            "top_products",
            "SELECT product, SUM(price) AS revenue FROM sales "
            f"WHERE {w_all} GROUP BY product ORDER BY revenue DESC, product LIMIT 10",
            ("top_products",) + f_all,
        ),
        Query(
            "kpi",
            "SELECT COUNT(*) AS n, SUM(price) AS revenue, AVG(price) AS avg_price, "
            f"MIN(price) AS min_price, MAX(price) AS max_price FROM sales WHERE {w_all}",
            ("kpi",) + f_all,
        ),
        Query(
            "detail",
            "SELECT ts, price, qty, region, product FROM sales "
            f"WHERE {w_all} ORDER BY price DESC, ts LIMIT 20",
            ("detail",) + f_all,
        ),
    ]


def crossfilter(seed: int, data: TableData) -> Iterator[Interaction]:
    """Brush/drag/pick/clear/jump-back gestures over the ``sales`` dashboard."""
    rng = np.random.default_rng([seed, 11])
    rows = data.rows
    floors = [round(float(q), 2) for q in np.quantile(data.columns["price"], _FLOOR_QUANTILES)]
    state = (int(rows * 0.45), int(rows * 0.55), None, None, None)
    history = [state]
    yield Interaction("open", crossfilter_queries(data, state))
    for gesture, arg in itertools.cycle(CROSSFILTER_CYCLE):
        lo_row, hi_row, region, channel, floor = state
        if gesture == "brush":
            jitter = float(np.exp(rng.uniform(-_BRUSH_JITTER, _BRUSH_JITTER)))
            width = max(2, int(rows * _BRUSH_WIDTHS[arg] * jitter))
            lo_row = int(rng.integers(0, rows - width))
            hi_row = lo_row + width - 1
        elif gesture == "drag":
            width = hi_row - lo_row
            shift = int(width * rng.uniform(0.05, 0.25)) * (1 if rng.random() < 0.5 else -1)
            lo_row = min(max(0, lo_row + shift), rows - 1 - width)
            hi_row = lo_row + width
        elif gesture == "pick_region":
            region = int(rng.integers(0, 12))
        elif gesture == "pick_channel":
            channel = arg
        elif gesture == "price_floor":
            floor = floors[arg]
        elif gesture == "clear":
            region = None if arg == "region" else region
            channel = None if arg == "channel" else channel
            floor = None if arg == "floor" else floor
        if gesture == "jump_back":
            state = history[-arg]
        else:
            state = (lo_row, hi_row, region, channel, floor)
        history.append(state)
        del history[:-8]
        yield Interaction(gesture, crossfilter_queries(data, state))


# -- drilldown: five single-query templates over events/users ------------------------

DRILLDOWN_TEMPLATES = ("point", "range_group", "in_list", "join_group", "case_proj")
DRILLDOWN_POOL = 64
#: every template once pooled and once fresh, in a seeded order
DRILLDOWN_CYCLE = 2 * len(DRILLDOWN_TEMPLATES)


def _drilldown_query(template: str, rng: np.random.Generator, events: TableData) -> Query:
    rows = events.rows
    if template == "point":
        key = int(rng.integers(0, rows))
        return Query(
            template,
            f"SELECT id, day, user_id, kind, amount FROM events WHERE id = {key}",
            (template, key),
        )
    if template == "range_group":
        day = int(rng.integers(0, 360))
        return Query(
            template,
            "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
            f"WHERE day >= {day} AND day < {day + 5} GROUP BY kind ORDER BY kind",
            (template, day),
        )
    if template == "in_list":
        first, second = (int(k) for k in rng.choice(8, 2, replace=False))
        floor = round(float(rng.uniform(60.0, 140.0)), 2)
        labels = events.labels["kind"]
        return Query(
            template,
            f"SELECT id, amount FROM events WHERE kind IN ('{labels[first]}', "
            f"'{labels[second]}') AND amount > {floor!r} ORDER BY amount DESC, id LIMIT 10",
            (template, (first, second), floor),
        )
    if template == "join_group":
        day = int(rng.integers(0, 360))
        return Query(
            template,
            "SELECT segment, COUNT(*) AS n, SUM(amount) AS total FROM events "
            "JOIN users ON events.user_id = users.user_id "
            f"WHERE day >= {day} AND day < {day + 5} GROUP BY segment ORDER BY segment",
            (template, day),
        )
    key = int(rng.integers(0, rows - 50))
    cut = round(float(rng.uniform(20.0, 80.0)), 2)
    return Query(
        template,
        "SELECT id, amount * qty AS gross, "
        f"CASE WHEN amount > {cut!r} THEN 'high' ELSE 'low' END AS band "
        f"FROM events WHERE id >= {key} AND id < {key + 50}",
        (template, key, cut),
    )


def drilldown(seed: int, events: TableData) -> Iterator[Interaction]:
    """Half the statements from a fixed pool of 64, half with fresh literals.

    The pool fits the 256-entry plan cache (hits); the fresh stream is
    longer than the cache (misses and LRU churn).
    """
    rng = np.random.default_rng([seed, 12])
    pool: dict[str, list[Query]] = {t: [] for t in DRILLDOWN_TEMPLATES}
    for i in range(DRILLDOWN_POOL):
        template = DRILLDOWN_TEMPLATES[i % len(DRILLDOWN_TEMPLATES)]
        pool[template].append(_drilldown_query(template, rng, events))
    yield Interaction("open", [_drilldown_query("point", rng, events)])
    block = [(t, pooled) for t in DRILLDOWN_TEMPLATES for pooled in (True, False)]
    while True:
        for index in rng.permutation(len(block)):
            template, pooled = block[int(index)]
            if pooled:
                query = pool[template][int(rng.integers(0, len(pool[template])))]
            else:
                query = _drilldown_query(template, rng, events)
            yield Interaction("pooled" if pooled else "fresh", [query])


# -- ingest: writes beside a three-view dashboard ------------------------------------

INGEST_VIEWS = ("by_kind", "kpi", "top")
SINGLE_INSERTS = 50
BATCH_ROWS = 250
UPDATE_SPAN = 100
DELETE_SPAN = 50
#: the dashboard looks at this many of the freshest rows
FRESH_ROWS = 10_000


def ingest_queries(tlo: int) -> list[Query]:
    """The dashboard refresh over rows with ``ts >= tlo``."""
    return [
        Query(
            "by_kind",
            "SELECT kind, COUNT(*) AS n, SUM(val) AS total FROM readings "
            f"WHERE ts >= {tlo} GROUP BY kind ORDER BY kind",
            ("by_kind", tlo),
        ),
        Query(
            "kpi",
            "SELECT COUNT(*) AS n, AVG(val) AS mean_val, MAX(ts) AS last_ts "
            f"FROM readings WHERE ts >= {tlo}",
            ("kpi", tlo),
        ),
        Query(
            "top",
            f"SELECT id, ts, val FROM readings WHERE ts >= {tlo} ORDER BY val DESC, id LIMIT 10",
            ("top", tlo),
        ),
    ]


class IngestSession:
    """Rounds of DML plus a refresh, with a NumPy mirror of every write.

    The generator applies each round to the mirror as it yields it; the
    driver executes the yielded statements before asking for the next
    round, so once the run stops the mirror holds exactly the
    acknowledged writes.  ``user_bytes`` counts the logical bytes the
    client supplied (8 per numeric value, the UTF-8 length per string,
    8 per updated cell).
    """

    def __init__(self, seed: int, data: TableData, checkpoint_every: int) -> None:
        self.rng = np.random.default_rng([seed, 13])
        self.labels = data.labels["kind"]
        self._label_bytes = np.array([len(label.encode()) for label in self.labels])
        self.checkpoint_every = checkpoint_every
        self.count = data.rows
        self.user_bytes = 0
        capacity = data.rows * 2
        self.cols = {
            name: np.concatenate([array, np.zeros(capacity - data.rows, dtype=array.dtype)])
            for name, array in (
                ("ts", data.columns["ts"]), ("val", data.columns["val"]),
                ("qty", data.columns["qty"]), ("kind", data.codes["kind"]),
            )
        }
        self.alive = np.zeros(capacity, dtype=bool)
        self.alive[: data.rows] = True

    def _grow(self, needed: int) -> None:
        if self.count + needed <= len(self.alive):
            return
        extra = len(self.alive)
        for name, array in self.cols.items():
            self.cols[name] = np.concatenate([array, np.zeros(extra, dtype=array.dtype)])
        self.alive = np.concatenate([self.alive, np.zeros(extra, dtype=bool)])

    def _insert_rows(self, n: int) -> list[str]:
        """Append ``n`` rows to the mirror; returns their VALUES tuples."""
        self._grow(n)
        rng, start = self.rng, self.count
        ts = self.cols["ts"][start - 1] + np.cumsum(rng.integers(1, 5, n))
        val = np.round(rng.gamma(2.0, 20.0, n), 4)
        qty = rng.integers(1, 11, n)
        kind = rng.integers(0, 8, n)
        stop = start + n
        self.cols["ts"][start:stop] = ts
        self.cols["val"][start:stop] = val
        self.cols["qty"][start:stop] = qty
        self.cols["kind"][start:stop] = kind
        self.alive[start:stop] = True
        self.count = stop
        self.user_bytes += n * 32 + int(self._label_bytes[kind].sum())
        return [
            f"({start + i}, {int(ts[i])}, {float(val[i])!r}, {int(qty[i])}, '{self.labels[kind[i]]}')"
            for i in range(n)
        ]

    def fresh_tlo(self, back: int = FRESH_ROWS) -> int:
        return int(self.cols["ts"][max(0, self.count - back)])

    def round(self, index: int) -> Interaction:
        writes = [
            Write(f"INSERT INTO readings VALUES {values}", 1)
            for values in self._insert_rows(SINGLE_INSERTS)
        ]
        writes.append(
            Write(
                "INSERT INTO readings VALUES " + ", ".join(self._insert_rows(BATCH_ROWS)),
                BATCH_ROWS, "batch_insert",
            )
        )
        lo = int(self.rng.integers(0, self.count - UPDATE_SPAN))
        touched = int(self.alive[lo : lo + UPDATE_SPAN].sum())
        self.cols["qty"][lo : lo + UPDATE_SPAN][self.alive[lo : lo + UPDATE_SPAN]] += 1
        self.user_bytes += 8 * touched
        writes.append(
            Write(
                f"UPDATE readings SET qty = qty + 1 WHERE id >= {lo} AND id < {lo + UPDATE_SPAN}",
                touched, "update",
            )
        )
        lo = int(self.rng.integers(0, self.count - DELETE_SPAN))
        removed = int(self.alive[lo : lo + DELETE_SPAN].sum())
        self.alive[lo : lo + DELETE_SPAN] = False
        writes.append(
            Write(
                f"DELETE FROM readings WHERE id >= {lo} AND id < {lo + DELETE_SPAN}",
                removed, "delete",
            )
        )
        return Interaction(
            "round", ingest_queries(self.fresh_tlo()), writes,
            checkpoint=(index + 1) % self.checkpoint_every == 0,
        )

    def __iter__(self) -> Iterator[Interaction]:
        yield Interaction("open", ingest_queries(self.fresh_tlo()))
        for index in itertools.count():
            yield self.round(index)

    def live(self) -> TableData:
        """The mirror's live rows as a table (ids are positions)."""
        keep = np.flatnonzero(self.alive[: self.count])
        data = TableData("readings", {"id": keep.astype(np.int64)})
        for name in ("ts", "val", "qty"):
            data.columns[name] = self.cols[name][keep]
        data.codes["kind"] = self.cols["kind"][keep]
        data.labels["kind"] = self.labels
        data.columns["kind"] = self.labels[data.codes["kind"]]
        return data

    def live_user_bytes(self) -> int:
        """Logical bytes of the live rows (the denominator of space amplification)."""
        kinds = self.cols["kind"][: self.count][self.alive[: self.count]]
        return int(len(kinds) * 32 + self._label_bytes[kinds].sum())
