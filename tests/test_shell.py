"""Tests for the interactive exploration shell (python -m repro)."""

import pytest

from repro.__main__ import Shell, main
from repro.engine import write_csv
from repro.workloads import sales_table


@pytest.fixture()
def shell():
    s = Shell()
    s.execute("\\demo 2000")
    return s


class TestShell:
    def test_demo_loads(self, shell):
        assert shell.session.db.has_table("sales")
        assert "sales: 2000 rows" in shell.execute("\\tables")

    def test_select_renders_table(self, shell):
        output = shell.execute("SELECT COUNT(*) AS n FROM sales")
        assert "2000" in output.replace(",", "")
        assert "(1 rows)" in output

    def test_dml(self, shell):
        shell.execute("CREATE TABLE notes (body TEXT)")
        assert "1 rows affected" in shell.execute("INSERT INTO notes VALUES ('hi')")
        assert "hi" in shell.execute("SELECT body FROM notes")

    def test_language_commands(self, shell):
        assert "over-represented" in shell.execute(
            "FACETS sales WHERE revenue > 300 RATIO 1.1"
        ) or "(no facets)" in shell.execute(
            "FACETS sales WHERE revenue > 300 RATIO 1.1"
        )
        assert "±" in shell.execute("APPROX AVG(revenue) FROM sales ROWS 400")

    def test_explain(self, shell):
        output = shell.execute("\\explain SELECT region FROM sales WHERE price > 10")
        assert "Scan(sales" in output

    def test_load_csv(self, shell, tmp_path):
        path = tmp_path / "extra.csv"
        write_csv(sales_table(50, seed=1), path)
        output = shell.execute(f"\\load {path} AS extra")
        assert "50 rows" in output
        assert shell.session.db.has_table("extra")

    def test_unknown_command(self, shell):
        assert "unrecognised" in shell.execute("WIBBLE 42")

    def test_errors_are_caught_in_run_loop(self, shell, capsys):
        import io

        shell.run(io.StringIO("SELECT zzz FROM missing\n"), interactive=False)
        captured = capsys.readouterr()
        assert "error:" in captured.out

    def test_help(self, shell):
        assert "EXPLORE" in shell.execute("\\help")

    def test_empty_line(self, shell):
        assert shell.execute("   ") == ""

    def test_quit_raises_eof(self, shell):
        with pytest.raises(EOFError):
            shell.execute("\\quit")


class TestShellResilience:
    def test_timeout_meta_command(self, shell):
        assert "off" in shell.execute("\\timeout")
        assert "250 ms" in shell.execute("\\timeout 250")
        assert "off" in shell.execute("\\timeout 0")

    def test_timeout_usage_on_garbage(self, shell):
        assert "usage" in shell.execute("\\timeout soon")
        assert "usage" in shell.execute("\\timeout -5")

    def test_interrupt_leaves_session_usable(self, shell, capsys, monkeypatch):
        """Ctrl-C mid-query: the loop prints (cancelled), the next query
        runs normally, and no spans dangle on the tracer stacks."""
        import io
        import json

        from repro.obs.tracing import get_tracer

        calls = {"n": 0}
        real_sql = shell.session.sql

        def interrupting_sql(query):
            calls["n"] += 1
            if calls["n"] == 1:
                raise KeyboardInterrupt
            return real_sql(query)

        monkeypatch.setattr(shell.session, "sql", interrupting_sql)
        shell.run(
            io.StringIO(
                "SELECT COUNT(*) AS n FROM sales\n"
                "SELECT COUNT(*) AS n FROM sales\n"
            ),
            interactive=False,
        )
        out = capsys.readouterr().out
        assert "(cancelled)" in out
        assert "(1 rows)" in out  # the follow-up query succeeded
        assert get_tracer().open_depth() == 0
        # the metrics snapshot is still well-formed after the interrupt
        json.loads(shell.execute("\\metrics"))


class TestShellSettings:
    """The ``\\``-shorthands are PRAGMAs: what they set, the listing reports."""

    @staticmethod
    def _listed(shell) -> dict[str, list[str]]:
        rows = [line.split("|") for line in shell.execute("\\pragma").splitlines()]
        return {
            cells[0].strip(): [cell.strip() for cell in cells[1:]]
            for cells in rows
            if len(cells) == 3
        }

    @pytest.mark.parametrize(
        "command, name, value",
        [
            ("\\threads 3", "threads", "3"),
            ("\\timeout 250", "timeout_ms", "250"),
            ("\\delta 17", "delta_rows", "17"),
        ],
    )
    def test_shorthand_shows_in_pragma_listing(self, shell, command, name, value):
        assert self._listed(shell)[name][1] != "pragma"
        shell.execute(command)
        assert self._listed(shell)[name] == [value, "pragma"]
        # and on a second shell: the setting is the process's
        assert self._listed(Shell())[name] == [value, "pragma"]

    def test_rejected_values_print_usage_and_set_nothing(self, shell):
        before = self._listed(shell)
        for command in ("\\threads -1", "\\threads many", "\\delta -1", "\\delta x"):
            assert "usage" in shell.execute(command)
        assert self._listed(shell) == before

    def test_status_lines_read_the_store(self, shell):
        shell.execute("PRAGMA shard_by='hash(region)'")
        shell.execute("PRAGMA shard_min_rows=1234")
        shell.execute("PRAGMA zone_rows=4096")
        assert shell.execute("\\shards").splitlines()[0].endswith(
            "shard_by = hash(region), shard_min_rows = 1234"
        )
        assert shell.execute("\\threads").endswith(", zone_rows = 4096")


class TestMainEntry:
    def test_dash_c(self, capsys):
        code = main(["-c", "CREATE TABLE t (a INT)"])
        assert code == 0
        assert "0 rows affected" in capsys.readouterr().out

    def test_dash_c_missing_arg(self, capsys):
        assert main(["-c"]) == 2

    def test_dash_c_error(self, capsys):
        code = main(["-c", "SELECT a FROM nope"])
        assert code == 1
        assert "error" in capsys.readouterr().err
