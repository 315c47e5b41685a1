"""A plan is a template: a statement that differs from a cached one only
in its literals re-binds that plan (DESIGN.md, "Plan cache").

* re-bound ≡ fresh — every query of the differential corpus, its
  literals redrawn, answers with the schema and bits a fresh database's
  plan gives, serially, on two threads and over two shards;
* a property over pairs of statements of one pattern, with the literal
  cases pinned as examples: INT64 beyond 2^53, ``-0.0``, quotes, ``5``
  vs ``5.0``, LIMIT and LIKE, a folded, a deduplicated and a
  name-bearing literal;
* what forces a re-plan (DDL, ``replace_table``, a re-shard, ``PRAGMA
  optimizer``), the LRU bound, the counters and EXPLAIN ANALYZE note,
  and threads sharing both levels.
"""

from __future__ import annotations

import random
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import settings as hypothesis_settings
from hypothesis import strategies as st

from repro import settings
from repro.engine import Database, Table, catalog, parallel
from repro.engine.sql.lexer import shape, tokenize
from repro.errors import ReproError
from repro.obs.metrics import MetricsRegistry, set_registry
from tests.test_parallel import tables_bit_identical
from tests.test_sql_differential import WORDS, random_query, random_table


@pytest.fixture()
def registry():
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    yield fresh
    set_registry(old)


def _counts(registry) -> tuple[int, int, int]:
    """``(hits, template hits, misses)`` so far."""
    return tuple(
        registry.counter(f"plan_cache.{name}").value
        for name in ("hits", "template_hits", "misses")
    )


def _answer(db: Database, sql: str):
    """The result of ``sql``, or the error it raised.  On a fresh database
    it is a plan-cache miss: the statement is planned from scratch."""
    try:
        return db.sql(sql)
    except ReproError as exc:
        return type(exc), str(exc)


def _assert_same(got, want) -> None:
    if isinstance(want, Table):
        assert isinstance(got, Table), got
        tables_bit_identical(got, want)
    else:
        assert got == want


# -- re-bound ≡ fresh over the differential corpus ------------------------------------

#: a literal token's text, to splice a redrawn value in its place
_LITERAL_TEXT = re.compile(r"'(?:[^']|'')*'|(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?")


def redraw(sql: str, rng: np.random.Generator) -> str:
    """``sql`` with every literal slot (:func:`shape`) given a new value of
    its kind — the same shape, other constants."""
    tokens = tokenize(sql)
    pieces, cursor = [], 0
    for index in shape(tokens)[1]:
        token = tokens[index]
        if isinstance(token.value, str):
            text = "'" + str(rng.choice(WORDS + ["it's"])).replace("'", "''") + "'"
        elif isinstance(token.value, int):
            text = str(int(rng.integers(0, 21)))
        else:
            text = repr(round(float(rng.uniform(0, 5)), 2))
        pieces += [sql[cursor : token.position], text]
        cursor = _LITERAL_TEXT.match(sql, token.position).end()
    return "".join(pieces) + sql[cursor:]


#: the corpus tables hold 5-80 rows: 8-row zones make a filtered scan several span tasks
ROUTES = {
    "serial": dict(threads=0),
    "threads2": dict(threads=2, zone_rows=8),
    "shards2": dict(threads=2),
}


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("seed", range(10))
def test_rebound_plans_answer_like_fresh_ones(route, seed, registry):
    settings.configure(shards=0, **ROUTES[route])
    rng = np.random.default_rng(seed)
    table, _ = random_table(rng, n=int(rng.integers(5, 80)))

    def build() -> Database:
        db = Database()
        db.create_table("t", table)
        if route == "shards2":
            db.apply_sharding("t", 2, shard_by="range(id)")
        return db

    db = build()
    try:
        for _ in range(12):
            sql = random_query(rng)
            _answer(db, sql)  # plans the shape
            again = redraw(sql, rng)
            assert shape(tokenize(again))[0] == shape(tokenize(sql))[0], again
            _assert_same(_answer(db, again), _answer(build(), again))
    finally:
        parallel.shutdown_pool()
    assert _counts(registry)[1] > 0, "no redrawn statement re-bound a template"
    assert (registry.counter("parallel.batches").value > 0) == (route != "serial")


def test_redraw_keeps_the_shape_and_changes_the_constants():
    rng = np.random.default_rng(0)
    sql = "SELECT id, b * 2 AS b2 FROM t WHERE a > -3 AND s = 'ant' AND b < 1.5 LIMIT 4"
    again = redraw(sql, rng)
    assert again != sql and "LIMIT 4" in again and "a > -" in again
    assert shape(tokenize(again)) == shape(tokenize(sql))


# -- pairs of one pattern, literal corners pinned ----------------------------------------

BIG = 2**53

#: the table the pairs run over: INT64 keys beyond 2^53, NULLs, quotes
PAIR_TABLE = {
    "id": list(range(8)),
    "a": [BIG + 1, BIG + 3, 5, -6, None, 0, BIG + 2, 7],
    "b": [1.5, -0.0, 0.0, None, 2.25, -3.5, 4.0, 5.0],
    "s": ["ant", "it's", "bee", None, "a''b", "cat", "ant", "'"],
}

PATTERNS = [
    "SELECT id, a FROM t WHERE a > {i} ORDER BY id",
    "SELECT id FROM t WHERE b >= {f} AND b < {f} ORDER BY id",
    "SELECT id, s FROM t WHERE s = {s} OR s LIKE 'a%' ORDER BY id",
    "SELECT id, CASE WHEN b > {f} THEN {s} ELSE {s} END AS band, b * {f} AS z FROM t "
    "WHERE id < {i} ORDER BY id",
    "SELECT s, COUNT(*) AS n, SUM(b) AS total FROM t WHERE a <> {i} GROUP BY s "
    "HAVING COUNT(*) > {i} ORDER BY s",
    "SELECT id, a FROM t WHERE a IN ({i}, {i}) ORDER BY a DESC, id LIMIT 3",
]

LITERALS = {
    "i": st.integers(-(2**62), 2**62).map(str),
    "f": st.floats(-1e6, 1e6, allow_nan=False).map(repr),
    "s": st.text("ab'% x", max_size=4).map(lambda v: "'" + v.replace("'", "''") + "'"),
}


@st.composite
def same_pattern(draw) -> tuple[str, str]:
    """Two statements of one pattern, each placeholder drawn afresh."""
    pattern = draw(st.sampled_from(PATTERNS))

    def fill() -> str:
        return re.sub(r"\{(\w)\}", lambda m: draw(LITERALS[m.group(1)]), pattern)

    return fill(), fill()


def _pair_db() -> Database:
    db = Database()
    db.create_table("t", Table.from_dict(PAIR_TABLE))
    return db


@given(same_pattern())
@hypothesis_settings(max_examples=150, deadline=None)
@example((f"SELECT id FROM t WHERE a = {BIG + 3}", f"SELECT id FROM t WHERE a = {BIG + 1}"))
@example(("SELECT id, b * -1.5 AS z FROM t", "SELECT id, b * -0.0 AS z FROM t"))
@example(("SELECT id FROM t WHERE s = 'ant'", "SELECT id FROM t WHERE s = 'it''s'"))
@example(("SELECT id FROM t WHERE s = 'x'", "SELECT id FROM t WHERE s = 'a''''b'"))
@example(("SELECT id FROM t WHERE a > 5", "SELECT id FROM t WHERE a > 5.0"))
@example(("SELECT id FROM t ORDER BY id LIMIT 0", "SELECT id FROM t ORDER BY id LIMIT 10"))
@example(("SELECT id FROM t WHERE s LIKE 'a%'", "SELECT id FROM t WHERE s LIKE '%t'"))
@example(("SELECT id FROM t WHERE a = 5 AND 1 = 2", "SELECT id FROM t WHERE a = 5 AND 1 = 1"))
@example(("SELECT id FROM t WHERE a > 5 AND a > 6", "SELECT id FROM t WHERE a > 5 AND a > 5"))
@example(("SELECT a * 3 FROM t", "SELECT a * 2 FROM t"))
def test_second_statement_answers_like_a_fresh_plan(pair):
    first, second = pair
    db = _pair_db()
    _answer(db, first)
    _assert_same(_answer(db, second), _answer(_pair_db(), second))


@pytest.mark.parametrize(
    "first, second",
    [
        ("SELECT id FROM t WHERE a > 5", "SELECT id FROM t WHERE a > 5.0"),
        ("SELECT id FROM t ORDER BY id LIMIT 0", "SELECT id FROM t ORDER BY id LIMIT 10"),
        ("SELECT id FROM t WHERE s LIKE 'a%'", "SELECT id FROM t WHERE s LIKE '%t'"),
    ],
    ids=["int_vs_float", "limit", "like"],
)
def test_kinds_limits_and_patterns_are_part_of_the_shape(first, second, registry):
    assert shape(tokenize(first))[0] != shape(tokenize(second))[0]
    db = _pair_db()
    db.sql(first)
    db.sql(second)
    assert _counts(registry) == (0, 0, 2)


@pytest.mark.parametrize(
    "first, second, want",
    [
        # the optimizer folds 1 = 2: its plan depends on the values
        ("SELECT id FROM t WHERE a = 5 AND 1 = 2", "SELECT id FROM t WHERE a = 5 AND 1 = 1",
         [2]),
        # a duplicate conjunct is dropped: one of its literals is gone
        ("SELECT id FROM t WHERE a > 5 AND a > 5", "SELECT id FROM t WHERE a > 6 AND a > 5",
         [0, 1, 6, 7]),
        # output names are rendered from the SQL text
        ("SELECT a * 3 FROM t WHERE id < 2", "SELECT a * 2 FROM t WHERE id < 2",
         [2 * (BIG + 1), 2 * (BIG + 3)]),
    ],
    ids=["folded", "deduplicated", "unaliased"],
)
def test_a_plan_that_depends_on_its_literals_is_no_template(first, second, want, registry):
    settings.configure(optimizer=True)  # the folding and deduplication are its rules
    db = _pair_db()
    db.sql(first)
    result = db.sql(second)
    assert _counts(registry) == (0, 0, 2)
    assert result.column(result.column_names[0]).to_list() == want
    if "a * 2" in second:
        assert result.column_names == ("a_*_2",)


def test_a_template_keeps_both_conjuncts_when_they_become_equal(registry):
    settings.configure(optimizer=True)
    db = _pair_db()
    db.sql("SELECT id FROM t WHERE a > 5 AND a > 6")
    result = db.sql("SELECT id FROM t WHERE a > 5 AND a > 5")
    assert _counts(registry) == (1, 1, 1)
    assert result.column("id").to_list() == [0, 1, 6, 7]


# -- invalidation, LRU, observability ------------------------------------------------------

CHANGES = {
    "ddl": lambda db: db.create_table("u", {"y": [1]}),
    "replace_table": lambda db: db.replace_table("t", Table.from_dict(PAIR_TABLE)),
    "reshard": lambda db: db.apply_sharding("t", 2, shard_by="range(id)"),
    "pragma_optimizer": lambda db: db.execute(
        f"PRAGMA optimizer={0 if settings.current.optimizer else 1}"
    ),
}


@pytest.mark.parametrize("change", CHANGES)
def test_catalog_changes_force_a_replan(change, registry):
    """Every change but a re-shard drops or stales the cached plans.  A
    shard layout schedules a scan's tasks at run time, so it is no plan
    input: after a re-shard the cached template answers as a fresh plan
    over the re-sharded table does."""
    settings.configure(shards=0, threads=0)
    db = _pair_db()
    sql = "SELECT id FROM t WHERE a > {} ORDER BY id"
    db.sql(sql.format(1))
    db.sql(sql.format(2))
    assert _counts(registry) == (1, 1, 1)
    CHANGES[change](db)
    if change == "reshard":
        got = db.sql(sql.format(3)).column("id").to_list()
        assert _counts(registry) == (2, 2, 1)  # the template re-bound, nothing planned
        fresh = _pair_db()
        CHANGES[change](fresh)
        assert got == fresh.sql(sql.format(3)).column("id").to_list() == [0, 1, 2, 6, 7]
        return
    if change != "pragma_optimizer":  # the others drop both levels, not only stale them
        assert not db._plan_cache and not db._plan_templates
    assert db.sql(sql.format(3)).column("id").to_list() == [0, 1, 2, 6, 7]
    assert _counts(registry) == (1, 1, 2)  # planned afresh, and a template again
    db.sql(sql.format(4))
    assert _counts(registry) == (2, 2, 2)


def test_plan_cache_size_bounds_the_template_level(registry, monkeypatch):
    monkeypatch.setattr(catalog, "PLAN_CACHE_SIZE", 2)
    db = _pair_db()
    shapes = [
        "SELECT id FROM t WHERE a > {}",
        "SELECT id FROM t WHERE a < {}",
        "SELECT id FROM t WHERE a = {}",
    ]
    for sql in shapes:
        db.sql(sql.format(1))  # the third evicts the first shape
    db.sql(shapes[0].format(2))
    assert _counts(registry) == (0, 0, 4)
    db.sql(shapes[2].format(2))  # still cached
    assert _counts(registry) == (1, 1, 4)


def test_a_template_hit_is_counted_and_noted(registry):
    db = _pair_db()
    sql = "SELECT id FROM t WHERE a > {} ORDER BY id"
    db.sql(sql.format(0))
    report = db.explain_analyze(sql.format(6)).render()
    assert "plan cache: template hit" in report and "(a > 6)" in report
    assert "plan cache: hit" in db.explain_analyze(sql.format(6)).render()
    assert _counts(registry) == (2, 1, 1)


def test_a_template_hit_shares_what_no_slot_is_under():
    db = _pair_db()
    sql = "SELECT id, a FROM t WHERE a > {} ORDER BY id"
    first, second = db.plan(sql.format(1)), db.plan(sql.format(2))
    assert first is not second and first.notes is second.notes
    assert "(a > 1)" in first.explain()  # the template is never edited
    assert first.explain().replace("(a > 1)", "(a > 2)") == second.explain()
    assert db.plan(sql.format(1)) is first  # the exact text still hits


def test_concurrent_shape_hits_answer_like_fresh_plans(monkeypatch):
    """Six threads share both cache levels, small enough to evict all the
    time; a torn or lost entry would hand a thread another statement's plan."""
    settings.configure(threads=0, shards=0)
    db = _pair_db()
    shapes = ["SELECT id FROM t WHERE a > {} ORDER BY id", "SELECT id, s FROM t WHERE id < {}"]
    statements = [sql.format(value) for sql in shapes for value in range(8)]
    want = {sql: _pair_db().sql(sql).column("id").to_list() for sql in statements}
    monkeypatch.setattr(catalog, "PLAN_CACHE_SIZE", 4)
    wrong = []

    def worker(seed: int) -> None:
        rng = random.Random(seed)
        for _ in range(300):
            sql = rng.choice(statements)
            if db.sql(sql).column("id").to_list() != want[sql]:
                wrong.append(sql)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(seed,)) for seed in range(6)]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in workers)
    assert not wrong
