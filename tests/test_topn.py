"""Top-N (``ORDER BY ... LIMIT``) and the vectorised sort kernel.

The contract is one sentence: ``top_n(table, order_by, k)`` is
``sort_table(table, order_by).slice(0, k)`` bit for bit, on every route
that can feed it — because the engine's order is total on (keys, row
position), the first ``k`` of any row-ordered superset of the answer is
the answer.  The property test checks the kernel directly over every key
dtype, NULL/NaN placement and ``k`` edge; the lattice test drives the
same shapes through SQL under threads x pool x shards x storage x dirty
delta x worker crashes, with the optimizer on (TopN) and off (the
full-sort routes), against the serial sort of the same scan.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import operators as ops
from repro.engine import parallel
from repro.engine.sql.parser import parse
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.test_parallel import tables_bit_identical

NAN = float("nan")

#: ORDER BY lists covering each key dtype, expression keys, mixed
#: directions, heavy ties, NaN, and NULLs on either side of k
KEY_SHAPES = [
    "i",
    "i DESC",
    "f DESC, id",
    "flag DESC, i",
    "s, f DESC",
    "s DESC, id DESC",
    "UPPER(s) DESC, i",
    "i + f DESC, s",
    "ties DESC, f",
    "ties, s DESC, f",
    "mostly_null, i",  # ASC with nulls >= k
    "mostly_null DESC, i DESC",  # DESC with valid < k
    "nanf DESC, i",
    "nanf, s DESC",
]


def _random_table(seed: int, n: int = 60) -> Table:
    rng = np.random.default_rng(seed)

    def sparse(values, keep: float):
        return [v if rng.random() < keep else None for v in values]

    return Table.from_dict(
        {
            "id": list(range(n)),
            "i": sparse([int(v) for v in rng.integers(-9, 9, n)], 0.9),
            "f": sparse([round(float(v), 2) for v in rng.normal(size=n)], 0.9),
            "flag": sparse([bool(v) for v in rng.integers(0, 2, n)], 0.8),
            "s": sparse([str(v) for v in rng.choice(["ant", "bee", "cat", "dog"], n)], 0.85),
            "ties": [int(v) for v in rng.integers(0, 3, n)],
            "mostly_null": sparse([int(v) for v in rng.integers(0, 5, n)], 0.15),
            "nanf": sparse(
                [NAN if rng.random() < 0.3 else float(v) for v in rng.integers(0, 4, n)], 0.85
            ),
        }
    )


def _order_by(keys: str):
    return parse(f"SELECT * FROM t ORDER BY {keys}").order_by


def _ks(n: int) -> list[int]:
    return sorted({0, 1, 3, n // 2, n - 1, n, n + 1})


# -- the kernel ------------------------------------------------------------------------


def test_nan_keys_sort_stably_as_the_largest_value() -> None:
    keys = np.array([1.0, NAN, 3.0, NAN, 3.0, NAN, 2.0])
    nulls = np.zeros(7, dtype=bool)
    assert ops._argsort_with_nulls(keys, nulls, False).tolist() == [1, 3, 5, 2, 4, 6, 0]
    assert ops._argsort_with_nulls(keys, nulls, True).tolist() == [0, 6, 2, 4, 1, 3, 5]


@pytest.mark.parametrize("encoded", [True, False])
@pytest.mark.parametrize("seed", range(4))
def test_top_n_equals_sorted_prefix(seed: int, encoded: bool) -> None:
    if encoded:
        db = Database()
        db.create_table("t", _random_table(seed))
        table = db.get_table("t")  # the registered table
    else:
        table = _random_table(seed)  # built outside a database
    assert table.column("s").dictionary() is not None  # codes from construction, either way
    for keys in KEY_SHAPES:
        order_by = _order_by(keys)
        full = ops.sort_table(table, order_by)
        for k in _ks(table.num_rows):
            got, candidates = ops.top_n(table, order_by, k)
            try:
                tables_bit_identical(got, ops.limit(full, k))
            except AssertionError as exc:
                raise AssertionError(f"top_n diverged on {keys!r}, k={k}") from exc
            assert candidates <= table.num_rows


def test_top_n_sorts_only_the_candidates() -> None:
    """The logical-work claim: a LIMIT 20 over 100k distinct-ish keys puts
    a few x k rows through the stable sort, not the input."""
    rng = np.random.default_rng(0)
    n = 100_000
    table = Table.from_dict(
        {"price": rng.integers(0, 50_000, n).tolist(), "ts": list(range(n))}
    )
    order_by = _order_by("price DESC, ts")
    old = set_registry(MetricsRegistry())
    try:
        got, candidates = ops.top_n(table, order_by, 20)
        sorted_rows = set_registry(old).counter("sort.rows_sorted").value
    finally:
        set_registry(old)
    assert 20 <= candidates <= 100
    assert sorted_rows == candidates
    tables_bit_identical(got, ops.sort_table(table, order_by).slice(0, 20))


# -- the optimizer rule and its observability -------------------------------------------


@pytest.fixture()
def optimizer_on():
    settings.configure(optimizer=True)


class TestTopNRule:
    def _db(self) -> Database:
        db = Database()
        db.create_table(
            "t",
            {"ts": list(range(50)), "price": [float(i % 7) for i in range(50)], "g": ["a", "b"] * 25},
        )
        return db

    def _explain(self, db: Database, sql: str) -> list[str]:
        return db.execute("EXPLAIN " + sql).column("plan").to_list()

    def test_limit_over_sort_fuses(self, optimizer_on) -> None:
        lines = self._explain(
            self._db(), "SELECT ts, price FROM t ORDER BY price DESC, ts LIMIT 20"
        )
        assert lines[0] == "TopN(20: price DESC, ts ASC)"
        assert "note: optimizer: topn: fused Sort+Limit into TopN" in lines
        assert not any(line.lstrip().startswith(("Sort", "Limit")) for line in lines)

    def test_limit_over_project_over_sort_fuses_below_the_projection(self, optimizer_on) -> None:
        db = self._db()
        lines = self._explain(db, "SELECT ts + 1 AS t1 FROM t ORDER BY price DESC LIMIT 5")
        assert lines[0].startswith("Project(") and lines[1] == "  TopN(5: price DESC)"
        grouped = self._explain(
            db, "SELECT g, SUM(price) AS rev FROM t GROUP BY g ORDER BY rev DESC, g LIMIT 1"
        )
        assert grouped[1] == "  TopN(1: rev DESC, g ASC)"

    def test_distinct_between_limit_and_sort_is_left_alone(self, optimizer_on) -> None:
        lines = self._explain(self._db(), "SELECT DISTINCT g FROM t LIMIT 1")
        assert lines[0] == "Limit(1)"
        assert not any("topn" in line for line in lines)

    def test_counts_as_a_rewrite_and_annotates_analyze(self, optimizer_on) -> None:
        old = set_registry(MetricsRegistry())
        try:
            db = self._db()
            report = db.explain_analyze("SELECT ts FROM t ORDER BY ts DESC LIMIT 3")
            registry = set_registry(old)
        finally:
            set_registry(old)
        assert registry.counter("optimizer.topn").value == 1
        assert registry.counter("optimizer.rewrites").value >= 1
        assert "[topn: 3 candidates of 50 rows]" in report.render()
        assert registry.counter("sort.rows_sorted").value == 3

    def test_limit_zero_sorts_nothing_but_still_type_checks(self, optimizer_on) -> None:
        from repro.errors import TypeMismatchError

        db = self._db()
        old = set_registry(MetricsRegistry())
        try:
            empty = db.sql("SELECT ts, g FROM t ORDER BY price DESC LIMIT 0")
            sorted_rows = set_registry(old).counter("sort.rows_sorted").value
        finally:
            set_registry(old)
        assert empty.num_rows == 0 and empty.column_names == ("ts", "g")
        assert sorted_rows == 0
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT ts FROM t ORDER BY g + 1 LIMIT 0")


# -- every route -------------------------------------------------------------------------

#: (threads, pool, shards, shard_by, storage, dirty delta, faults); the one
#: pool is the thread pool, and the field keeps each point's test id
LATTICE = [
    (0, "thread", 0, None, "memory", False, "off"),
    (2, "thread", 0, None, "memory", True, "worker_crash:0.1"),
    (4, "thread", 0, None, "mmap", False, "off"),
    (0, "thread", 2, "hash(id)", "memory", True, "off"),
    (2, "thread", 4, "range(id)", "mmap", False, "worker_crash:0.1"),
    (4, "thread", 2, "range(id)", "memory", False, "worker_crash:0.1"),
    (4, "thread", 4, "hash(id)", "mmap", True, "off"),
]


@pytest.fixture()
def _pinned_config():
    """What every lattice point shares; its pool does not outlive the test."""
    # delta_rows: keep the DML below pending
    settings.configure(delta_rows=1_000_000, zone_rows=8)
    yield
    parallel.shutdown_pool()


@pytest.mark.parametrize("point", LATTICE, ids=lambda p: "-".join(map(str, p)))
def test_top_n_is_the_sorted_prefix_on_every_route(point, tmp_path, _pinned_config) -> None:
    threads, _pool, num_shards, shard_by, storage, dirty, faults = point
    root = tmp_path / "db"
    with Database(path=root) as db:
        db.create_table("t", _random_table(seed=11, n=90))
        if num_shards:
            db.apply_sharding("t", num_shards, shard_by=shard_by)
        db.checkpoint()
    settings.configure(storage=storage)
    with Database(path=root) as db:
        assert (db.shard_layout("t") is not None) == bool(num_shards)
        assert db.main_table("t").is_mapped == (storage == "mmap")
        if dirty:
            db.execute(
                "INSERT INTO t VALUES (900, 3, 0.5, TRUE, 'bee', 1, NULL, 2.0), "
                "(901, NULL, NULL, NULL, NULL, 2, 4, NULL)"
            )
            db.execute("DELETE FROM t WHERE id = 7 OR id = 40")
            assert db.delta_store_if_dirty("t") is not None
        settings.configure(threads=threads, faults=faults, fault_seed=5)
        for where in ("", " WHERE id >= 12 AND ties < 2"):
            # the reference: this route's own scan, sorted serially by the kernel
            scanned = db.sql(f"SELECT * FROM t{where}")
            for keys in KEY_SHAPES:
                full = ops.sort_table(scanned, _order_by(keys))
                for k in _ks(scanned.num_rows):
                    sql = f"SELECT * FROM t{where} ORDER BY {keys} LIMIT {k}"
                    for optimizer in (True, False):
                        settings.configure(optimizer=optimizer)
                        try:
                            tables_bit_identical(db.sql(sql), ops.limit(full, k))
                        except AssertionError as exc:
                            raise AssertionError(
                                f"optimizer={optimizer} diverged on: {sql}"
                            ) from exc
