"""Differential testing for joins plus engine edge cases.

Joins are checked against a naive nested-loop reference; edge cases cover
empty tables, all-null columns and single-row inputs through every
operator path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import settings
from repro.engine import Database, Table
from repro.engine import operators as ops
from repro.engine.column import Column
from repro.engine.types import DataType

WORDS = ["red", "green", "blue"]


def nested_loop_join(left_rows, right_rows, left_key, right_key, kind="inner"):
    """One join of a chain: ``left_rows`` may itself be a join's output.  A
    right column takes ``right_`` prefixes until no column of the chain so
    far has its name."""
    out = []
    names: dict[str, str] = {}
    used = set(left_rows[0]) if left_rows else set()
    for name in right_rows[0] if right_rows else []:
        out_name = name
        while out_name in used:
            out_name = f"right_{out_name}"
        used.add(out_name)
        names[name] = out_name
    for left in left_rows:
        matched = False
        for right in right_rows:
            lv, rv = left[left_key], right[right_key]
            if lv is not None and lv == rv:
                matched = True
                out.append({**left, **{names[n]: v for n, v in right.items()}})
        if kind == "left" and not matched:
            out.append({**left, **{out_name: None for out_name in names.values()}})
    return out


def random_pair(rng: np.random.Generator):
    n_left = int(rng.integers(1, 40))
    n_right = int(rng.integers(1, 30))
    left_rows = [
        {
            "lid": i,
            "k": int(rng.integers(0, 8)) if rng.random() > 0.1 else None,
            "v": round(float(rng.uniform(0, 10)), 2),
        }
        for i in range(n_left)
    ]
    right_rows = [
        {
            "rid": i,
            "k": int(rng.integers(0, 8)),
            "label": str(rng.choice(WORDS)),
        }
        for i in range(n_right)
    ]
    return left_rows, right_rows


@pytest.mark.parametrize("seed", range(15))
@pytest.mark.parametrize("kind", ["inner", "left"])
def test_join_differential(seed: int, kind: str) -> None:
    rng = np.random.default_rng(seed)
    left_rows, right_rows = random_pair(rng)
    db = Database()
    db.create_table(
        "l",
        {
            "lid": [r["lid"] for r in left_rows],
            "k": [r["k"] for r in left_rows],
            "v": [r["v"] for r in left_rows],
        },
    )
    db.create_table(
        "r",
        {
            "rid": [r["rid"] for r in right_rows],
            "k": [r["k"] for r in right_rows],
            "label": [r["label"] for r in right_rows],
        },
    )
    keyword = "LEFT JOIN" if kind == "left" else "JOIN"
    sql = (
        f"SELECT lid, v, rid, label FROM l {keyword} r ON l.k = r.k "
        "ORDER BY lid, rid"
    )
    got = [tuple(row) for row in db.sql(sql).rows()]
    expected_rows = nested_loop_join(left_rows, right_rows, "k", "k", kind)
    expected = sorted(
        (r["lid"], r["v"], r.get("rid"), r.get("label")) for r in expected_rows
    )
    assert sorted(got, key=lambda t: tuple((x is None, x) for x in t)) == sorted(
        expected, key=lambda t: tuple((x is None, x) for x in t)
    )


@pytest.mark.parametrize("seed", range(8))
def test_join_then_aggregate_differential(seed: int) -> None:
    rng = np.random.default_rng(100 + seed)
    left_rows, right_rows = random_pair(rng)
    db = Database()
    db.create_table(
        "l",
        {
            "lid": [r["lid"] for r in left_rows],
            "k": [r["k"] for r in left_rows],
            "v": [r["v"] for r in left_rows],
        },
    )
    db.create_table(
        "r",
        {
            "rid": [r["rid"] for r in right_rows],
            "k": [r["k"] for r in right_rows],
            "label": [r["label"] for r in right_rows],
        },
    )
    sql = (
        "SELECT label, COUNT(*) AS n, SUM(v) AS sv FROM l "
        "JOIN r ON l.k = r.k GROUP BY label ORDER BY label"
    )
    got = {row[0]: (row[1], round(row[2], 6)) for row in db.sql(sql).rows()}
    joined = nested_loop_join(left_rows, right_rows, "k", "k")
    expected: dict = {}
    for row in joined:
        n, sv = expected.get(row["label"], (0, 0.0))
        expected[row["label"]] = (n + 1, sv + row["v"])
    expected = {k: (n, round(sv, 6)) for k, (n, sv) in expected.items()}
    assert got == expected


@pytest.fixture(autouse=True)
def no_engine_join_renames(monkeypatch):
    """Output names are planned (``planner._Binder``): the executor hands
    ``hash_join`` inputs whose names are already unique, so its own clash
    loop renames nothing on any join the engine issues."""
    hash_join = ops.hash_join

    def spy(left, right, *args, **kwargs):
        result = hash_join(left, right, *args, **kwargs)
        assert result.column_names == left.column_names + right.column_names
        return result

    monkeypatch.setattr(ops, "hash_join", spy)


@pytest.mark.parametrize("optimizer", (True, False))
@pytest.mark.parametrize("kind", ("inner", "left"))
@pytest.mark.parametrize("left_has_right_x", (False, True))
def test_chain_names_each_joined_column_once(left_has_right_x, kind, optimizer):
    """``u.x`` and ``v.x`` are two columns, whatever else is called ``x``."""
    settings.configure(optimizer=optimizer)
    tables = {
        "t": {"a": [1, 2, 3, 4]},
        "u": {"k": [1, 2, 3, 4], "x": [10, 20, 30, 40]},
        "v": {"k2": [4, 3, 2], "x": [400, 300, 200]},
    }
    vx = "right_x"
    if left_has_right_x:
        tables["t"]["right_x"] = [-1, -2, -3, -4]
        vx = "right_right_x"
    db = Database()
    for name, data in tables.items():
        db.create_table(name, data)
    t, u, v = (Table.from_dict(data).to_dicts() for data in tables.values())
    rows = nested_loop_join(nested_loop_join(t, u, "a", "k"), v, "a", "k2", kind)
    assert [row[vx] for row in rows if row[vx] is not None] == [200, 300, 400]
    keyword = "LEFT JOIN" if kind == "left" else "JOIN"
    chain = f"FROM t JOIN u ON a = k {keyword} v ON a = k2"

    assert db.sql(f"SELECT * {chain}").to_dicts() == rows
    assert db.sql(f"SELECT v.x {chain}").to_dicts() == [{vx: r[vx]} for r in rows]
    assert db.sql(f"SELECT u.x, v.x {chain}").to_dicts() == [
        {"x": r["x"], vx: r[vx]} for r in rows
    ]
    filtered = db.sql(f"SELECT a, x {chain} WHERE v.x > 150").to_dicts()
    assert filtered == [{"a": a, "x": 10 * a} for a in (2, 3, 4)]


def test_on_clause_reads_a_renamed_column_of_an_earlier_join():
    """``u.x`` is ``right_x`` in the output once ``t`` has an ``x``; a later
    ON clause that says ``u.x`` must key on it, not on ``t.x``."""
    db = Database()
    db.create_table("t", {"a": [1, 2], "x": [7, 7]})
    db.create_table("u", {"k": [1, 2], "x": [5, 6]})
    db.create_table("v", {"k2": [5, 6, 7], "y": ["five", "six", "seven"]})
    got = db.sql("SELECT a, y FROM t JOIN u ON t.a = u.k JOIN v ON u.x = v.k2")
    assert got.to_dicts() == [{"a": 1, "y": "five"}, {"a": 2, "y": "six"}]


class TestEdgeCases:
    def test_empty_table_through_all_operators(self):
        db = Database()
        db.execute("CREATE TABLE e (a INT, b FLOAT, s TEXT)")
        assert db.sql("SELECT * FROM e").num_rows == 0
        assert db.sql("SELECT a + 1 AS x FROM e WHERE a > 0").num_rows == 0
        assert db.sql("SELECT COUNT(*) AS n, SUM(a) AS s FROM e").to_dicts() == [
            {"n": 0, "s": None}
        ]
        assert db.sql("SELECT s, COUNT(*) AS n FROM e GROUP BY s").num_rows == 0
        assert db.sql("SELECT DISTINCT a FROM e ORDER BY a LIMIT 5").num_rows == 0

    def test_empty_join_sides(self):
        db = Database()
        db.execute("CREATE TABLE a (k INT)")
        db.create_table("b", {"k": [1, 2], "x": ["u", "v"]})
        assert db.sql("SELECT * FROM a JOIN b ON a.k = b.k").num_rows == 0
        assert db.sql("SELECT * FROM b LEFT JOIN a ON b.k = a.k").num_rows == 2

    def test_all_null_column(self):
        db = Database()
        db.create_table("t", Table([("a", Column([None, None, None], dtype=DataType.FLOAT64)),
                                    ("id", Column([1, 2, 3]))]))
        assert db.sql("SELECT AVG(a) AS m FROM t").to_dicts() == [{"m": None}]
        assert db.sql("SELECT id FROM t WHERE a > 0").num_rows == 0
        assert db.sql("SELECT id FROM t WHERE a IS NULL").num_rows == 3
        ordered = db.sql("SELECT id FROM t ORDER BY a, id")
        assert ordered.column("id").to_list() == [1, 2, 3]

    def test_single_row(self):
        db = Database()
        db.create_table("t", {"a": [7], "s": ["only"]})
        assert db.sql("SELECT a * 2 AS d FROM t").to_dicts() == [{"d": 14}]
        assert db.sql("SELECT s, COUNT(*) AS n FROM t GROUP BY s").to_dicts() == [
            {"s": "only", "n": 1}
        ]

    def test_limit_zero(self):
        db = Database()
        db.create_table("t", {"a": [1, 2, 3]})
        assert db.sql("SELECT a FROM t LIMIT 0").num_rows == 0

    def test_group_by_null_keys(self):
        db = Database()
        db.create_table("t", {"s": ["x", None, "x", None], "v": [1, 2, 3, 4]})
        result = db.sql("SELECT s, SUM(v) AS sv FROM t GROUP BY s")
        got = {row[0]: row[1] for row in result.rows()}
        assert got == {"x": 4, None: 6}

    def test_order_by_descending_nulls(self):
        db = Database()
        db.create_table("t", {"a": [2, None, 1], "id": [0, 1, 2]})
        result = db.sql("SELECT id FROM t ORDER BY a DESC")
        # nulls rank lowest, so DESC puts them last
        assert result.column("id").to_list() == [0, 2, 1]

    def test_duplicate_aggregates(self):
        db = Database()
        db.create_table("t", {"a": [1, 2, 3]})
        result = db.sql("SELECT SUM(a) AS x, SUM(a) AS y FROM t")
        assert result.to_dicts() == [{"x": 6, "y": 6}]
