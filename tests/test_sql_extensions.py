"""Tests for the extended SQL dialect: LIKE, functions, CASE, DISTINCT,
and the DDL/DML statements."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import settings as repro_settings
from repro.engine import Database, Table
from repro.engine.column import Column
from repro.engine.expressions import Like, col
from repro.engine.sql.parser import parse, parse_statement
from repro.engine.types import DataType
from repro.errors import CatalogError, ParseError, TypeMismatchError
from tests.conftest import pin_defaults
from tests.reference_interpreter import eval_expression, run_reference


@pytest.fixture()
def db():
    database = Database()
    database.create_table(
        "t",
        {
            "a": [1, 2, 3, 4],
            "b": [1.44, -2.25, 9.0, 16.0],
            "s": ["apple", "Banana", "cherry pie", None],
        },
    )
    return database


class TestLike:
    def test_prefix_suffix_substring(self, db):
        assert db.sql("SELECT a FROM t WHERE s LIKE 'a%'").column("a").to_list() == [1]
        assert db.sql("SELECT a FROM t WHERE s LIKE '%pie'").column("a").to_list() == [3]
        assert db.sql("SELECT a FROM t WHERE s LIKE '%an%'").column("a").to_list() == [2]

    def test_underscore_wildcard(self, db):
        assert db.sql("SELECT a FROM t WHERE s LIKE '_pple'").column("a").to_list() == [1]

    def test_not_like(self, db):
        result = db.sql("SELECT a FROM t WHERE s NOT LIKE '%a%'")
        # 'cherry pie' has no 'a'; NULL row is dropped
        assert result.column("a").to_list() == [3]
        # LIKE matches once per dictionary value and gathers through the
        # codes: over a main and over a delta tail, the payload (False at
        # NULLs) and validity are the per-row match's, bit for bit
        values = [None, "", "a\x00", "a", "ä", "añb", "b", None, "€a", "a\x00b", "a\n", "\na"]
        pin_defaults("delta_rows")
        repro_settings.configure(delta_rows=100_000)
        main = Database()
        main.create_table("u", {"s": values})
        pending = Database()
        pending.create_table("u", Table([("s", Column.empty(DataType.STRING))]))
        pending.execute("INSERT INTO u VALUES " + ", ".join(
            "(NULL)" if v is None else f"('{v}')" for v in values
        ))
        valid = [v is not None for v in values]
        for database, table in ((main, main.get_table("u")), (pending, pending.delta_tail("u"))):
            for pattern in ("a%", "%a%", "_", "", "a_", "%\x00", "ä%", "%b", "a", "%a"):
                for negated in (False, True):
                    like = Like(col("s"), pattern, negated)
                    truth = [eval_expression(like, {"s": v}) for v in values]
                    got = like.evaluate(table)
                    assert got.data.dtype == bool and got.data.tolist() == [t is True for t in truth]
                    assert (got.validity is None and all(valid)) or got.validity.tolist() == valid
                    keyword = "NOT LIKE" if negated else "LIKE"
                    rows = database.sql(f"SELECT s FROM u WHERE s {keyword} '{pattern}'")
                    assert rows.column("s").to_list() == [v for v, t in zip(values, truth) if t]
            # a trailing newline is part of the value: LIKE matches all of it
            assert database.sql("SELECT s FROM u WHERE s LIKE 'a'").column("s").to_list() == ["a"]
            unlike = database.sql("SELECT s FROM u WHERE s NOT LIKE 'a'").column("s").to_list()
            assert "a\n" in unlike and "a" not in unlike
            assert "a\n" in database.sql("SELECT s FROM u WHERE s LIKE 'a%'").column("s").to_list()

    def test_case_sensitive(self, db):
        assert db.sql("SELECT a FROM t WHERE s LIKE 'banana'").num_rows == 0

    def test_regex_metacharacters_escaped(self):
        database = Database()
        database.create_table("x", {"s": ["a.c", "abc"]})
        result = database.sql("SELECT s FROM x WHERE s LIKE 'a.c'")
        assert result.column("s").to_list() == ["a.c"]


class TestFunctions:
    def test_numeric_functions(self, db):
        result = db.sql("SELECT ABS(b) AS v FROM t ORDER BY a")
        assert result.column("v").to_list() == [1.44, 2.25, 9.0, 16.0]
        result = db.sql("SELECT SQRT(ABS(b)) AS v FROM t WHERE a = 3")
        assert result.column("v").to_list() == [3.0]

    def test_round_with_digits(self, db):
        result = db.sql("SELECT ROUND(b, 1) AS v FROM t WHERE a = 1")
        assert result.column("v").to_list() == [1.4]

    def test_floor_ceil(self, db):
        result = db.sql("SELECT FLOOR(b) AS f, CEIL(b) AS c FROM t WHERE a = 1")
        assert result.to_dicts() == [{"f": 1.0, "c": 2.0}]

    def test_sqrt_of_negative_is_null(self, db):
        result = db.sql("SELECT SQRT(b) AS v FROM t WHERE a = 2")
        assert result.column("v").to_list() == [None]

    def test_string_functions(self, db):
        result = db.sql("SELECT LENGTH(s) AS l, UPPER(s) AS u, LOWER(s) AS d FROM t WHERE a = 2")
        assert result.to_dicts() == [{"l": 6, "u": "BANANA", "d": "banana"}]

    def test_null_propagates(self, db):
        result = db.sql("SELECT UPPER(s) AS u FROM t WHERE a = 4")
        assert result.column("u").to_list() == [None]

    def test_type_errors(self, db):
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT ABS(s) FROM t")
        with pytest.raises(TypeMismatchError):
            db.sql("SELECT LENGTH(a) FROM t")

    def test_abs_preserves_int(self, db):
        result = db.sql("SELECT ABS(a) AS v FROM t LIMIT 1")
        assert result.schema.type_of("v").name == "INT64"


class TestCase:
    def test_basic_branches(self, db):
        result = db.sql(
            "SELECT a, CASE WHEN a <= 2 THEN 'low' ELSE 'high' END AS bucket "
            "FROM t ORDER BY a"
        )
        assert result.column("bucket").to_list() == ["low", "low", "high", "high"]

    def test_first_match_wins(self, db):
        result = db.sql(
            "SELECT CASE WHEN a > 0 THEN 'pos' WHEN a > 2 THEN 'big' END AS c "
            "FROM t WHERE a = 3"
        )
        assert result.column("c").to_list() == ["pos"]

    def test_no_else_gives_null(self, db):
        result = db.sql("SELECT CASE WHEN a > 100 THEN 1 END AS c FROM t LIMIT 1")
        assert result.column("c").to_list() == [None]

    def test_numeric_promotion(self, db):
        result = db.sql(
            "SELECT CASE WHEN a = 1 THEN 1 ELSE 2.5 END AS c FROM t ORDER BY a LIMIT 2"
        )
        assert result.column("c").to_list() == [1.0, 2.5]
        # each branch is written under its row mask: payload, validity and
        # type are the reference interpreter's, row for row, over a STRING,
        # a mixed numeric, a BOOL, an all-NULL branch and a NULL ELSE
        cases = {
            "CASE WHEN b > 0 THEN s ELSE 'low' END": DataType.STRING,
            "CASE WHEN a = 1 THEN a WHEN a = 2 THEN b WHEN a = 3 THEN 7 END": DataType.FLOAT64,
            "CASE WHEN a < 3 THEN a > 1 ELSE s IS NULL END": DataType.BOOL,
            "CASE WHEN a > 2 THEN LENGTH(s) WHEN a > 1 THEN NULL ELSE a END": DataType.INT64,
            "CASE WHEN s IS NULL THEN 'none' WHEN a > 2 THEN UPPER(s) ELSE NULL END": DataType.STRING,
        }
        rows = db.get_table("t").to_dicts()
        for case, dtype in cases.items():
            sql = f"SELECT {case} AS c FROM t"
            got = db.sql(sql).column("c")
            want = [value for value, in run_reference(parse(sql), rows)]
            assert got.dtype is dtype and got.to_list() == want, case
            fill = {DataType.STRING: "", DataType.BOOL: False}.get(dtype, 0)
            assert [v for v, w in zip(got.data.tolist(), want) if w is None] == [
                fill for w in want if w is None
            ], case

    def test_case_without_when_raises(self):
        with pytest.raises(ParseError):
            parse("SELECT CASE END FROM t")


class TestDistinct:
    def test_distinct_rows(self):
        db = Database()
        db.create_table("d", {"a": [1, 1, 2, 2, 2], "b": ["x", "x", "y", "y", "z"]})
        result = db.sql("SELECT DISTINCT a, b FROM d ORDER BY a, b")
        assert result.to_dicts() == [
            {"a": 1, "b": "x"}, {"a": 2, "b": "y"}, {"a": 2, "b": "z"},
        ]

    def test_distinct_single_column(self):
        db = Database()
        db.create_table("d", {"a": [3, 1, 3, 2, 1]})
        result = db.sql("SELECT DISTINCT a FROM d ORDER BY a")
        assert result.column("a").to_list() == [1, 2, 3]

    def test_distinct_roundtrips(self):
        statement = parse("SELECT DISTINCT a FROM t")
        assert statement.distinct
        assert "DISTINCT" in statement.to_sql()


class TestDML:
    def test_create_insert_select(self):
        db = Database()
        db.execute("CREATE TABLE people (name TEXT, age INT, score FLOAT)")
        affected = db.execute(
            "INSERT INTO people VALUES ('ann', 31, 9.5), ('bob', 25, 7.0)"
        )
        assert affected == 2
        result = db.sql("SELECT name FROM people WHERE age > 30")
        assert result.column("name").to_list() == ["ann"]

    def test_insert_with_column_list_fills_nulls(self):
        db = Database()
        db.execute("CREATE TABLE p (a INT, b FLOAT)")
        db.execute("INSERT INTO p (a) VALUES (7)")
        assert db.sql("SELECT b FROM p").column("b").to_list() == [None]

    def test_update(self):
        db = Database()
        db.create_table("u", {"a": [1, 2, 3], "b": [10.0, 20.0, 30.0]})
        affected = db.execute("UPDATE u SET b = b + 1 WHERE a >= 2")
        assert affected == 2
        assert db.sql("SELECT b FROM u ORDER BY a").column("b").to_list() == [
            10.0, 21.0, 31.0,
        ]

    def test_delete(self):
        db = Database()
        db.create_table("u", {"a": [1, 2, 3]})
        assert db.execute("DELETE FROM u WHERE a = 2") == 1
        assert db.sql("SELECT a FROM u ORDER BY a").column("a").to_list() == [1, 3]

    def test_delete_all(self):
        db = Database()
        db.create_table("u", {"a": [1, 2, 3]})
        assert db.execute("DELETE FROM u") == 3
        assert db.sql("SELECT COUNT(*) AS n FROM u").to_dicts() == [{"n": 0}]

    def test_drop(self):
        db = Database()
        db.execute("CREATE TABLE gone (a INT)")
        db.execute("DROP TABLE gone")
        assert not db.has_table("gone")

    def test_mutation_invalidates_indexes(self):
        from repro.indexing import CrackerIndex

        db = Database()
        db.create_table("u", {"a": list(range(100))})
        db.register_index("u", "a", CrackerIndex(np.arange(100)))
        db.execute("INSERT INTO u VALUES (200)")
        assert db.index_for("u", "a") is None  # stale index dropped
        result = db.sql("SELECT COUNT(*) AS n FROM u WHERE a >= 50")
        assert result.to_dicts() == [{"n": 51}]

    def test_bad_statements(self):
        db = Database()
        db.execute("CREATE TABLE z (a INT)")
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO z (nope) VALUES (1)")
        with pytest.raises(CatalogError):
            db.execute("INSERT INTO z VALUES (1, 2)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE w (a BLOB)")
        with pytest.raises(ParseError):
            parse_statement("MERGE INTO z")

    def test_statement_roundtrips(self):
        for sql in (
            "INSERT INTO t (a, b) VALUES (1, 2.5)",
            "DELETE FROM t WHERE (a = 1)",
            "UPDATE t SET a = (a + 1) WHERE (a > 0)",
            "CREATE TABLE t (a INT, b TEXT)",
            "DROP TABLE t",
        ):
            statement = parse_statement(sql)
            again = parse_statement(statement.to_sql())
            assert again.to_sql() == statement.to_sql()

    @settings(max_examples=30, deadline=None)
    @given(
        values=st.lists(st.integers(-50, 50), min_size=1, max_size=20),
        threshold=st.integers(-50, 50),
    )
    def test_property_delete_matches_filter(self, values, threshold):
        db = Database()
        db.create_table("v", {"a": values})
        deleted = db.execute(f"DELETE FROM v WHERE a < {threshold}")
        expected_kept = [v for v in values if not (v < threshold)]
        assert deleted == len(values) - len(expected_kept)
        assert sorted(db.get_table("v").column("a").to_list()) == sorted(expected_kept)
