"""Differential testing: vectorised engine vs the reference interpreter.

Hundreds of seeded random queries over random tables (with NULLs) are
executed three ways — the reference interpreter, the plain engine, and
the engine with a cracker index registered (the scan then reads the
rows the index picks) — and all three must agree; the indexed engine
must match the plain one row for row.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.engine import Database, Table
from repro.engine.sql.parser import parse
from repro.indexing import CrackerIndex
from tests.reference_interpreter import run_reference

WORDS = ["ant", "bee", "cat", "dog", "elk", "fox"]


def random_table(rng: np.random.Generator, n: int) -> tuple[Table, list[dict]]:
    rows = []
    for i in range(n):
        rows.append(
            {
                "id": i,
                "a": int(rng.integers(-20, 20)) if rng.random() > 0.1 else None,
                "b": round(float(rng.uniform(-5, 5)), 3) if rng.random() > 0.1 else None,
                "s": str(rng.choice(WORDS)) if rng.random() > 0.1 else None,
            }
        )
    table = Table.from_dict(
        {
            "id": [r["id"] for r in rows],
            "a": [r["a"] for r in rows],
            "b": [r["b"] for r in rows],
            "s": [r["s"] for r in rows],
        }
    )
    return table, rows


def random_predicate(rng: np.random.Generator, depth: int = 0) -> str:
    choice = rng.integers(0, 9 if depth < 2 else 7)
    if choice == 0:
        return f"a {rng.choice(['<', '<=', '>', '>=', '=', '<>'])} {rng.integers(-20, 20)}"
    if choice == 1:
        return f"b {rng.choice(['<', '>'])} {round(float(rng.uniform(-5, 5)), 2)}"
    if choice == 2:
        return f"s = '{rng.choice(WORDS)}'"
    if choice == 3:
        low = int(rng.integers(-20, 10))
        return f"a BETWEEN {low} AND {low + int(rng.integers(0, 15))}"
    if choice == 4:
        values = ", ".join(str(int(v)) for v in rng.integers(-20, 20, size=3))
        return f"a IN ({values})"
    if choice == 5:
        return rng.choice([
            "a IS NULL", "a IS NOT NULL", "s IS NULL",
            f"s LIKE '{rng.choice(['a%', '%t', '_o%', '%e%'])}'",
        ])
    if choice == 6:  # a bare NULL, typed by its context when bound
        return rng.choice([
            "s = NULL", "a <> NULL", "NULL", "a + NULL > 0",
            f"(CASE WHEN a > 0 THEN s ELSE NULL END) = '{rng.choice(WORDS)}'",
        ])
    connector = "AND" if rng.random() < 0.5 else "OR"
    left = random_predicate(rng, depth + 1)
    right = random_predicate(rng, depth + 1)
    if rng.random() < 0.25:
        return f"NOT ({left})"
    return f"({left}) {connector} ({right})"


def random_query(rng: np.random.Generator) -> str:
    kind = rng.integers(0, 5)
    where = f" WHERE {random_predicate(rng)}" if rng.random() < 0.8 else ""
    if kind == 0:  # plain projection
        distinct = "DISTINCT " if rng.random() < 0.2 else ""
        items = rng.choice(
            ["id, a, b", "id, a", "id, a + 1 AS a1, b * 2 AS b2", "id, s", "*"]
        )
        order = " ORDER BY id" if rng.random() < 0.7 else ""
        limit = f" LIMIT {rng.integers(0, 20)}" if order and rng.random() < 0.4 else ""
        return f"SELECT {distinct}{items} FROM t{where}{order}{limit}"
    if kind == 1:  # global aggregates
        aggs = rng.choice(
            [
                "COUNT(*) AS n, SUM(a) AS sa",
                "AVG(b) AS m, MIN(a) AS lo, MAX(a) AS hi",
                "COUNT(a) AS ca, COUNT(DISTINCT s) AS ds",
            ]
        )
        return f"SELECT {aggs} FROM t{where}"
    if kind == 2:  # group by
        having = " HAVING COUNT(*) > 1" if rng.random() < 0.4 else ""
        return (
            f"SELECT s, COUNT(*) AS n, SUM(a) AS sa FROM t{where} "
            f"GROUP BY s{having}"
        )
    if kind == 4:  # top-n: multi-key ORDER BY ... LIMIT (id breaks every tie)
        limit = rng.integers(0, 25)
        if rng.random() < 0.2:
            return (
                f"SELECT s, COUNT(*) AS n, MAX(id) AS hi FROM t{where} "
                f"GROUP BY s ORDER BY n DESC, hi LIMIT {limit}"
            )
        items = rng.choice(["id, a, b, s", "*", "id, a + 1 AS a1, s"])
        keys = rng.choice(
            ["a DESC, id", "b, id DESC", "s DESC, a, id", "a + b DESC, id", "s, b DESC, id"]
        )
        return f"SELECT {items} FROM t{where} ORDER BY {keys} LIMIT {limit}"
    # expressions with functions/CASE
    items = rng.choice(
        [
            "id, ABS(a) AS aa",
            "id, CASE WHEN a > 0 THEN 'pos' WHEN a < 0 THEN 'neg' ELSE 'zero' END AS sign",
            "id, UPPER(s) AS u",
            "id, ROUND(b, 1) AS rb",
        ]
    )
    return f"SELECT {items} FROM t{where} ORDER BY id"


def normalise(rows: list[tuple]) -> list[tuple]:
    out = []
    for row in rows:
        norm = []
        for value in row:
            if isinstance(value, bool):
                norm.append(bool(value))
            elif isinstance(value, float):
                if math.isnan(value):
                    norm.append("nan")
                else:
                    norm.append(round(value, 6))
            elif isinstance(value, (int, np.integer)):
                norm.append(round(float(value), 6))
            else:
                norm.append(value)
        out.append(tuple(norm))
    return out


def _sort_key(row: tuple):
    return tuple(
        (0, "") if v is None else (1, str(type(v).__name__), str(v)) for v in row
    )


@pytest.mark.parametrize("seed", range(30))
def test_differential_random_queries(seed: int) -> None:
    rng = np.random.default_rng(seed)
    table, rows = random_table(rng, n=int(rng.integers(5, 80)))

    plain = Database()
    plain.create_table("t", table)
    indexed = Database()
    indexed.create_table("t", table)
    # the physical column, NULL slots' placeholder values included: the
    # scan re-checks whatever rows the index picks
    a_values = np.asarray(indexed.main_table("t").column("a").data)
    indexed.register_index("t", "a", CrackerIndex(a_values))

    for _ in range(12):
        sql = random_query(rng)
        statement = parse(sql)
        expected = normalise(run_reference(statement, [dict(r) for r in rows]))
        got_plain = normalise([tuple(r) for r in plain.sql(sql).rows()])
        got_indexed = normalise([tuple(r) for r in indexed.sql(sql).rows()])
        assert got_indexed == got_plain, f"an index changed the answer of: {sql}"
        if statement.order_by:
            assert got_plain == expected, f"plain engine disagrees on: {sql}"
        else:
            assert sorted(got_plain, key=_sort_key) == sorted(expected, key=_sort_key), (
                f"plain engine disagrees on: {sql}"
            )


@pytest.mark.parametrize("first_digits", [1, None])
def test_round_reads_its_digits_row_by_row(first_digits) -> None:
    """``ROUND(x, d)`` rounds each row to that row's ``d`` — a NULL ``d``
    gives NULL — as the reference interpreter does, whatever row 0's
    digits are."""
    rows = [
        {"id": i, "f": f, "d": d}
        for i, (f, d) in enumerate(
            zip([1.2345, 2.3456, 3.4567, 4.5678, -5.6789], [first_digits, 3, 0, None, 2])
        )
    ]
    db = Database()
    db.create_table("t", Table.from_dict({name: [r[name] for r in rows] for name in rows[0]}))
    for sql in (
        "SELECT id, ROUND(f, d) AS r FROM t ORDER BY id",
        "SELECT id, ROUND(f, d) AS r FROM t WHERE d >= 0 ORDER BY id",
        "SELECT id, ROUND(f) AS r, ROUND(f, 2) AS s FROM t ORDER BY id",
    ):
        expected = normalise(run_reference(parse(sql), [dict(r) for r in rows]))
        assert normalise([tuple(r) for r in db.sql(sql).rows()]) == expected, sql
