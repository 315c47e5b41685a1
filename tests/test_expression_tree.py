"""One declaration, one walk, one key: the expression tree's derived API.

Three layers, in the order anything relies on them:

* a completeness guard — every concrete node class, with a distinct
  sentinel column in every child slot, is seen whole by ``children()``,
  ``walk()``, ``referenced_columns()``, ``key()`` and ``rewrite_columns``,
  and holds no expression in an attribute it did not declare;
* the identity property — ``same_as`` (structural keys) agrees with the
  rendered-SQL equality it replaced, over expressions drawn from the
  differential corpus' query generator, plus the pinned literal cases;
* the statements the hand-written walkers got wrong (DESIGN.md,
  "Expressions"): qualified names inside functions / CASE / IN / LIKE in
  every clause, a HAVING-only column over a raw file, and DML — each
  against its unqualified spelling, optimizer on and off.
"""

from __future__ import annotations

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import settings
from repro.engine import Database, Table
from repro.engine import catalog
from repro.engine import expressions as ex
from repro.engine.sql import lexer, parser
from repro.engine.sql.parser import parse
from repro.loading import RawTable
from tests.conftest import pin_defaults
from tests.test_sql_differential import random_query

# -- completeness guard --------------------------------------------------------------

#: one builder per concrete node class; ``ref()`` hands out a fresh
#: sentinel column each call and every child slot must receive one
BUILDERS = {
    ex.ColumnRef: lambda ref: ref(),
    ex.Literal: lambda ref: ex.Literal(1),
    ex.Comparison: lambda ref: ex.Comparison("<", ref(), ref()),
    ex.Arithmetic: lambda ref: ex.Arithmetic("+", ref(), ref()),
    ex.Negate: lambda ref: ex.Negate(ref()),
    ex.And: lambda ref: ex.And(ref(), ref()),
    ex.Or: lambda ref: ex.Or(ref(), ref()),
    ex.Not: lambda ref: ex.Not(ref()),
    ex.InList: lambda ref: ex.InList(ref(), [ref(), ref()]),
    ex.IsNull: lambda ref: ex.IsNull(ref(), negated=True),
    ex.Like: lambda ref: ex.Like(ref(), "a%", negated=True),
    ex.FunctionCall: lambda ref: ex.FunctionCall("ROUND", [ref(), ref()]),
    ex.Case: lambda ref: ex.Case([(ref(), ref()), (ref(), ref())], ref()),
}


def _concrete(cls=ex.Expression):
    for sub in cls.__subclasses__():
        if not getattr(sub, "__abstractmethods__", None):
            yield sub
        yield from _concrete(sub)


def _build(cls):
    counter = itertools.count()
    sentinels: list[ex.ColumnRef] = []

    def ref() -> ex.ColumnRef:
        sentinels.append(ex.ColumnRef(f"sentinel_{next(counter)}"))
        return sentinels[-1]

    return BUILDERS[cls](ref), sentinels


def _holds_expression(value) -> bool:
    if isinstance(value, ex.Expression):
        return True
    if isinstance(value, (list, tuple)):
        return any(_holds_expression(item) for item in value)
    return False


def _flatten(key):
    for part in key:
        if isinstance(part, tuple):
            yield part
            yield from _flatten(part)


def test_every_node_class_has_a_builder():
    assert set(_concrete()) == set(BUILDERS)


@pytest.mark.parametrize("cls", BUILDERS, ids=lambda cls: cls.__name__)
class TestEveryNodeClass:
    def test_no_undeclared_child(self, cls):
        node, _ = _build(cls)
        holding = {name for name, value in vars(node).items() if _holds_expression(value)}
        assert holding == set(node._children)

    def test_children_walk_and_columns_see_every_slot(self, cls):
        node, sentinels = _build(cls)
        if cls is not ex.ColumnRef:
            assert [c.name for c in node.children()] == [s.name for s in sentinels]
        walked = list(node.walk())
        assert walked[0] is node
        assert {id(s) for s in sentinels} <= {id(n) for n in walked}
        assert node.referenced_columns() == {s.name for s in sentinels}

    def test_key_carries_every_slot_and_scalar(self, cls):
        node, sentinels = _build(cls)
        key = node.key()
        assert key[0] == cls.__name__ and node.key() is key
        parts = {key, *_flatten(key)}
        assert all(s.key() in parts for s in sentinels)
        for name, value in vars(node).items():
            if name[0] != "_" and name not in node._children:
                assert value in key or cls is ex.Literal
        twin, _ = _build(cls)
        assert twin.same_as(node) and hash(twin) == hash(node)

    def test_rewrite_reaches_every_slot_without_mutating(self, cls):
        node, sentinels = _build(cls)
        before = node.to_sql()
        renamed = node.rewrite_columns(lambda name: name.replace("sentinel", "moved"))
        assert type(renamed) is cls
        assert node.to_sql() == before and node.key() == _build(cls)[0].key()
        assert renamed.to_sql() == before.replace("sentinel", "moved")
        assert renamed.referenced_columns() == {
            s.name.replace("sentinel", "moved") for s in sentinels
        }
        assert node.rewrite_columns(lambda name: name) is node
        if len(sentinels) > 1:  # only the touched slot is rebuilt
            first = sentinels[0].name
            partial = node.rewrite_columns(lambda name: "x" if name == first else name)
            kept = {id(n) for n in node.walk()} & {id(n) for n in partial.walk()}
            assert kept == {id(s) for s in sentinels[1:]}


# -- identity: structural keys agree with rendered SQL ------------------------------------


def _nodes(sql: str) -> list[ex.Expression]:
    statement = parse(sql)
    return [n for _, e, _ in statement.expressions() for n in e.walk()]


@hypothesis_settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_same_as_is_rendered_sql_equality(seed):
    rng = np.random.default_rng(seed)
    nodes = _nodes(random_query(rng)) + _nodes(random_query(rng))
    for node in nodes:
        assert node.rewrite_columns(lambda name: name) is node
    for a, b in itertools.combinations_with_replacement(nodes, 2):
        same = a.to_sql() == b.to_sql()
        assert a.same_as(b) == same and b.same_as(a) == same
        if a.key() == b.key():
            assert hash(a) == hash(b)


def test_literal_keys_are_typed():
    one, one_f, true = ex.lit(1), ex.lit(1.0), ex.lit(True)
    for a, b in itertools.permutations([one, one_f, true, ex.lit("1")], 2):
        assert not a.same_as(b)
    assert not (ex.col("a") > 1).same_as(ex.col("a") > 1.0)
    assert ex.lit(float("nan")).same_as(ex.lit(float("nan")))
    assert ex.lit(None).same_as(ex.lit(None)) and not ex.lit(None).same_as(ex.lit(0))
    assert ex.lit(np.int64(1)).same_as(one) and not ex.lit(0.0).same_as(ex.lit(-0.0))
    assert not one.same_as(1) and not ex.col("1").same_as(one)


# -- the statements the hand-written walkers got wrong -------------------------------------


@pytest.fixture(params=[True, False], ids=["optimizer_on", "optimizer_off"])
def db(request):
    settings.configure(optimizer=request.param)
    database = Database()
    database.create_table(
        "t",
        Table.from_dict(
            {
                "k": [1, 2, 3, 4, 5, 6],
                "a": [3, -1, 4, -1, 5, -9],
                "b": [1.25, 2.5, -3.75, 4.0, None, 6.5],
                "s": ["ant", "bee", "ant", "cat", "bee", None],
            }
        ),
    )
    database.create_table(
        "u",
        Table.from_dict(
            {"k": [1, 2, 3, 5, 7], "b": [10.5, -20.25, 30.0, -2.0, 1.0], "w": ["x", "y", "x", "z", "y"]}
        ),
    )
    return database


#: (qualified spelling, unqualified spelling) — same answer, same plan text
QUALIFIED = [
    # select list
    ("SELECT ABS(t.a) AS v, ROUND(t.b, 1) AS r FROM t", "SELECT ABS(a) AS v, ROUND(b, 1) AS r FROM t"),
    (
        "SELECT CASE WHEN t.a > 0 THEN t.b ELSE -t.b END AS c FROM t",
        "SELECT CASE WHEN a > 0 THEN b ELSE -b END AS c FROM t",
    ),
    ("SELECT t.a IN (3, t.k) AS hit, t.s LIKE 'a%' AS ant FROM t", "SELECT a IN (3, k) AS hit, s LIKE 'a%' AS ant FROM t"),
    # WHERE on the base table
    ("SELECT k FROM t WHERE ABS(t.a) > 2 AND ROUND(t.b, 0) > 1", "SELECT k FROM t WHERE ABS(a) > 2 AND ROUND(b, 0) > 1"),
    (
        "SELECT k FROM t WHERE CASE WHEN t.a > 0 THEN t.b ELSE 0.0 END > 1",
        "SELECT k FROM t WHERE CASE WHEN a > 0 THEN b ELSE 0.0 END > 1",
    ),
    ("SELECT k FROM t WHERE t.a IN (t.k, 4) OR t.s LIKE '%e'", "SELECT k FROM t WHERE a IN (k, 4) OR s LIKE '%e'"),
    # WHERE on a joined table: the right_ rename, pushed below the join
    (
        "SELECT t.k, u.b FROM t JOIN u ON t.k = u.k WHERE ABS(u.b) > 2 AND ROUND(u.b, 0) < 31",
        "SELECT k, right_b FROM t JOIN u ON t.k = u.k WHERE ABS(right_b) > 2 AND ROUND(right_b, 0) < 31",
    ),
    (
        "SELECT t.k FROM t JOIN u ON t.k = u.k "
        "WHERE CASE WHEN u.b > 0 THEN u.w ELSE t.s END LIKE 'x%' OR u.b IN (-2.0, t.b)",
        "SELECT k FROM t JOIN u ON t.k = u.k "
        "WHERE CASE WHEN right_b > 0 THEN w ELSE s END LIKE 'x%' OR right_b IN (-2.0, b)",
    ),
    # GROUP BY / HAVING / ORDER BY
    (
        "SELECT ABS(t.a) AS m, COUNT(*) AS n FROM t GROUP BY ABS(t.a) ORDER BY m",
        "SELECT ABS(a) AS m, COUNT(*) AS n FROM t GROUP BY ABS(a) ORDER BY m",
    ),
    (
        "SELECT t.s, COUNT(*) AS n FROM t GROUP BY t.s "
        "HAVING SUM(ABS(t.a)) > 4 AND MAX(CASE WHEN t.a IN (3, 5) THEN t.k ELSE 0 END) > 0 ORDER BY t.s",
        "SELECT s, COUNT(*) AS n FROM t GROUP BY s "
        "HAVING SUM(ABS(a)) > 4 AND MAX(CASE WHEN a IN (3, 5) THEN k ELSE 0 END) > 0 ORDER BY s",
    ),
    (
        "SELECT t.k FROM t ORDER BY ABS(t.a) DESC, CASE WHEN t.s LIKE 'a%' THEN 0 ELSE 1 END, t.k",
        "SELECT k FROM t ORDER BY ABS(a) DESC, CASE WHEN s LIKE 'a%' THEN 0 ELSE 1 END, k",
    ),
    (
        "SELECT u.w, SUM(ROUND(u.b, 0)) AS total FROM t JOIN u ON t.k = u.k GROUP BY u.w ORDER BY u.w",
        "SELECT w, SUM(ROUND(right_b, 0)) AS total FROM t JOIN u ON t.k = u.k GROUP BY w ORDER BY w",
    ),
]


QUALIFIED_IDS = [
    "select_functions",
    "select_case",
    "select_in_like",
    "where_functions",
    "where_case",
    "where_in_like",
    "joined_where_functions",
    "joined_where_case_in_like",
    "group_by_function",
    "having_aggregates",
    "order_by_expressions",
    "joined_group_by",
]


@pytest.mark.parametrize("qualified, bare", QUALIFIED, ids=QUALIFIED_IDS)
def test_qualified_names_bind_in_every_node_and_clause(db, qualified, bare):
    assert db.sql(qualified) == db.sql(bare)
    assert db.sql(bare).num_rows > 0
    explain = lambda q: db.execute(f"EXPLAIN {q}").column("plan").to_list()  # noqa: E731
    assert explain(qualified) == explain(bare)


def test_rename_leaves_the_parsed_tree_alone():
    statement = parse("SELECT ABS(t.a) FROM t WHERE u.b > 1 AND a > 0")
    shared = statement.where.right
    rendered = statement.where.to_sql()
    pushed = statement.where.rewrite_columns({"u.b": "b", "a": "a"}.__getitem__)
    assert statement.where.to_sql() == rendered and pushed.right is shared
    assert pushed.to_sql() == "((b > 1) AND (a > 0))"


def test_raw_table_parses_a_having_only_column(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("a,b,c,d\n1,10,5,x\n1,20,5,y\n2,5,5,z\n")
    raw = RawTable(str(path))
    result = raw.sql_over(
        Database(), "r", "SELECT a, COUNT(*) AS n FROM r GROUP BY a HAVING SUM(b) > 25"
    )
    assert list(result.rows()) == [(1, 2)]
    assert raw.columns_parsed == ["a", "b"]


DML = [
    ("DELETE FROM t WHERE t.a > 2", "DELETE FROM t WHERE a > 2"),
    ("UPDATE t SET a = t.k WHERE t.k = 1", "UPDATE t SET a = k WHERE k = 1"),
    ("UPDATE t SET a = ABS(t.a) + t.k, s = UPPER(t.s) WHERE t.s LIKE 'b%'",
     "UPDATE t SET a = ABS(a) + k, s = UPPER(s) WHERE s LIKE 'b%'"),
    ("DELETE FROM t WHERE CASE WHEN t.a IN (3, 4) THEN t.k ELSE 0 END > 0",
     "DELETE FROM t WHERE CASE WHEN a IN (3, 4) THEN k ELSE 0 END > 0"),
]


@pytest.mark.parametrize(
    "qualified, bare", DML, ids=["delete", "update", "update_functions", "delete_case_in"]
)
def test_dml_binds_in_memory_and_through_wal_replay(tmp_path, qualified, bare):
    settings.configure(wal=True, storage="memory", shards=0)
    pin_defaults("delta_rows")
    rows = {"k": [1, 2, 3, 4], "a": [3, -1, 4, 5], "s": ["ant", "bee", "bee", "cat"]}
    expected = Database()
    expected.create_table("t", Table.from_dict(rows))
    expected.execute("INSERT INTO t VALUES (5, 4, 'bat')")  # a pending delta row too
    affected = expected.execute(bare)
    assert affected > 0
    with Database(path=tmp_path) as durable:
        durable.create_table("t", Table.from_dict(rows))
        durable.execute("INSERT INTO t VALUES (5, 4, 'bat')")
        assert durable.execute(qualified) == affected
        assert durable.get_table("t") == expected.get_table("t")
    with Database(path=tmp_path) as replayed:
        assert replayed.get_table("t") == expected.get_table("t")


# -- one parse per statement through Database.execute -------------------------------------


def _ledger_trace():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "ledger" / "trace.py"
    spec = importlib.util.spec_from_file_location("ledger_trace", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_execute_tokenises_each_statement_once(db, monkeypatch):
    """At most once per statement, and not at all on an exact plan-cache hit."""
    calls = []
    real = lexer.tokenize
    for module in (parser, catalog):
        monkeypatch.setattr(module, "tokenize", lambda sql: calls.append(sql) or real(sql))
    select = "SELECT k, ABS(a) AS m FROM t WHERE b > 1 ORDER BY k"
    first = db.execute(select)
    assert len(calls) == 1  # a miss: one token list for its shape and its parse
    assert db.execute(select) == first and len(calls) == 1  # an exact hit
    assert db.execute(select.replace("b > 1", "b > 2")).num_rows == 3 and len(calls) == 2
    report = db.execute(f"  explain analyze {select} ; ").column("plan").to_list()
    assert len(calls) == 3 and "note: plan cache: hit" in report  # keyed on the inner text
    fresh = db.execute("EXPLAIN ANALYZE SELECT k FROM t WHERE a < 0").column("plan").to_list()
    assert len(calls) == 4 and not any(line.startswith("note: plan cache") for line in fresh)
    db.execute("EXPLAIN SELECT k FROM t WHERE a < 1")
    db.execute("DELETE FROM t WHERE t.a < -5")
    assert len(calls) == 6
    commented = db.execute("-- after a comment\nSELECT k FROM t WHERE a < 2")
    assert commented.column("k").to_list() == [2, 4] and len(calls) == 7


def test_ledger_trace_targets_still_wrap_the_front_end(db):
    trace = _ledger_trace()
    tracer = trace.Tracer()
    tracer.install()
    try:
        db.sql("SELECT k FROM t WHERE a > 0")
        db.execute("SELECT k FROM t WHERE a > 1")  # the same shape: no parse, no plan
        db.execute("SELECT k FROM t WHERE a > 1 ORDER BY k")
        db.execute("UPDATE t SET a = t.k WHERE t.k = 2")
    finally:
        tracer.uninstall()
    counts: dict[str, int] = {}
    for _driver, spans in tracer.threads:
        for span in spans:
            counts[trace.NAMES[span[0]]] = counts.get(trace.NAMES[span[0]], 0) + 1
    optimized = 2 if settings.current.optimizer else 0
    assert {name: counts.get(name, 0) for name in trace.NAMES[:7]} == {
        "sql.parser.parse": 2,
        "sql.parser.parse_statement": 1,
        "planner.plan_statement": 2,
        "optimizer.optimize_plan": optimized,
        "catalog.Database.sql": 1,
        "catalog.Database.execute": 3,
        "catalog.Database.plan": 3,
    }
