"""An interactive exploration shell: ``python -m repro``.

Accepts both plain SQL (SELECT / CREATE / INSERT / UPDATE / DELETE / DROP
/ EXPLAIN [ANALYZE]) and the declarative exploration language (EXPLORE /
STEER / FACETS / RECOMMEND VIEWS / SEGMENT / APPROX / DIVERSIFY), plus a
few shell meta-commands:

=================  ===================================================
``\\tables``        list tables
``\\demo [n]``      load the synthetic sales demo table (default 20k rows)
``\\load f AS t``   NoDB-load a CSV file as table ``t`` (lazy, adaptive)
``\\explain q``     show the plan for a SELECT
``\\threads [n]``   show or set the parallel worker count (0 = serial)
``\\timeout [ms]``  show or set the per-query deadline (0 = off)
``\\delta [rows]``  show per-table delta-store state; set the merge threshold
``\\metrics``       dump the metrics-registry snapshot as JSON
``\\pragma``        list every setting with its source (default/env/pragma)
``\\shards``        show per-table shard layout, rows per shard and skew
``\\wal``           show durability status (WAL file, records, sync policy)
``\\checkpoint``    write an atomic checkpoint and retire the WAL
``\\help``          this text
``\\quit``          exit
=================  ===================================================

``PRAGMA name=value`` sets any engine setting, ``PRAGMA name`` reads one
and ``\\pragma`` lists them all (DESIGN.md, "Settings", is the table:
name, range, default, environment variable, effect); ``\\threads``,
``\\timeout`` and ``\\delta`` are shorthands for ``PRAGMA threads``,
``timeout_ms`` and ``delta_rows``.  With ``PRAGMA degrade=1`` a query
that blows its budget returns an approximate answer (flagged under the
result) instead of an error.  Ctrl-C cancels the running query and
returns to the prompt; the session stays usable.

``EXPLAIN ANALYZE SELECT ...`` runs the query under the profiler and
prints per-plan-node wall time, row counts and bytes touched.

``python -m repro --db <dir>`` opens a *durable* session: every write
goes through a CRC-checksummed write-ahead log under ``<dir>`` and the
session's tables are recovered on the next open — kill the process at
any point and committed statements survive.  ``\\checkpoint`` compacts
the log into an atomic snapshot; ``PRAGMA wal_sync=off|commit|batch``
trades fsync cost against the size of the window a crash can lose.  The
database is closed cleanly (WAL flushed) on exit and on interrupt.

Non-interactive use: pipe commands on stdin, or pass a single command
with ``python -m repro -c "<command>"`` (combinable with ``--db``).
"""

from __future__ import annotations

import sys

from repro import settings
from repro.core import ExplorationLanguage, ExplorationSession
from repro.engine.table import Table
from repro.errors import CatalogError, ReproError

_LANGUAGE_HEADS = (
    "EXPLORE", "STEER", "FACETS", "RECOMMEND", "SEGMENT", "APPROX", "DIVERSIFY",
)
_SQL_HEADS = (
    "SELECT", "CREATE", "INSERT", "UPDATE", "DELETE", "DROP", "EXPLAIN", "PRAGMA",
)


def _settings_line(*names: str) -> str:
    """``name = value, ...`` as ``PRAGMA name`` would print each value."""
    return ", ".join(
        f"{name} = {settings.shown(getattr(settings.current, name))}" for name in names
    )


class Shell:
    """The REPL state: one session plus the command dispatcher."""

    def __init__(self, db_path: str | None = None) -> None:
        db = None
        if db_path is not None:
            from repro.engine.catalog import Database

            db = Database(path=db_path)
        self.session = ExplorationSession(db)
        self.language = ExplorationLanguage(self.session)

    def close(self) -> None:
        """Close the underlying database (flushes the WAL); idempotent."""
        self.session.db.close()

    # -- meta commands ---------------------------------------------------------------

    def _set(self, name: str, parts: list[str]) -> bool:
        """``\\command value`` is ``PRAGMA name=value``; False if it is rejected."""
        if len(parts) > 1:
            try:
                self.session.db.execute(f"PRAGMA {name}={parts[1]}")
            except CatalogError:
                return False
        return True

    def _meta(self, line: str) -> str:
        parts = line[1:].split()
        command = parts[0].lower() if parts else "help"
        if command == "tables":
            names = self.session.db.table_names()
            if not names:
                return "(no tables; try \\demo)"
            lines = []
            for name in names:
                table = self.session.db.get_table(name)
                lines.append(
                    f"{name}: {table.num_rows} rows "
                    f"({', '.join(table.column_names)})"
                )
            return "\n".join(lines)
        if command == "demo":
            from repro.workloads import sales_table

            n = int(parts[1]) if len(parts) > 1 else 20_000
            if self.session.db.has_table("sales"):
                return "table 'sales' already exists"
            self.session.load_table("sales", sales_table(n, seed=0))
            return f"loaded demo table 'sales' with {n} rows"
        if command == "load":
            if len(parts) < 4 or parts[2].upper() != "AS":
                return "usage: \\load <file.csv> AS <table>"
            from repro.loading import RawTable

            raw = RawTable(parts[1])
            table = raw.to_table()
            self.session.load_table(parts[3], table)
            return f"loaded {parts[1]} as '{parts[3]}' ({table.num_rows} rows)"
        if command == "explain":
            sql = line[1:].split(None, 1)[1]
            return self.session.db.explain(sql)
        if command == "threads":
            if not self._set("threads", parts):
                return "usage: \\threads [n]   (n >= 0; 0 = serial)"
            mode = "serial" if settings.current.threads < 2 else "parallel"
            # a scan's task is one zone span, so zone_rows is the pool's unit
            return f"threads = {settings.current.threads} ({mode}), " + _settings_line("zone_rows")
        if command == "timeout":
            if not self._set("timeout_ms", parts):
                return "usage: \\timeout [ms]   (ms >= 0; 0 = no deadline)"
            timeout_ms = settings.current.timeout_ms
            return f"timeout = {f'{timeout_ms} ms' if timeout_ms else 'off'}"
        if command == "delta":
            db = self.session.db
            if not self._set("delta_rows", parts):
                return "usage: \\delta [rows]   (rows >= 0; 0 = merge on every write)"
            lines = [_settings_line("delta_rows")]
            for name in db.table_names():
                store = db.delta_store_if_dirty(name)
                if store is None:
                    continue
                lines.append(
                    f"{name}: {store.pending_inserts} pending rows, "
                    f"{store.tombstones} tombstones"
                )
            if len(lines) == 1:
                lines.append("(all tables merged)")
            return "\n".join(lines)
        if command == "metrics":
            from repro.obs import get_registry

            return get_registry().to_json(indent=2)
        if command == "pragma":
            table = self.session.db.execute("PRAGMA")
            assert isinstance(table, Table)
            return table.pretty(limit=table.num_rows)
        if command == "shards":
            db = self.session.db
            lines = [_settings_line("shards", "shard_by", "shard_min_rows")]
            for name in db.table_names():
                layout = db.shard_layout(name)
                if layout is None:
                    lines.append(f"{name}: unsharded")
                    continue
                rows = [layout.shard_rows(s) for s in range(layout.num_shards)]
                avg = layout.total_rows / layout.num_shards if layout.num_shards else 0
                skew = (max(rows) / avg) if avg else 0.0
                lines.append(
                    f"{name}: {layout.num_shards} shards by "
                    f"{layout.mode}({layout.key}), rows {rows} "
                    f"(skew {skew:.2f})"
                )
            if len(lines) == 1:
                lines.append("(no tables)")
            return "\n".join(lines)
        if command == "wal":
            manager = self.session.db.durability
            if manager is None:
                return "in-memory session (restart with --db <dir> for durability)"
            status = manager.status()
            return (
                f"root = {status['root']}\n"
                f"wal file = {status['wal_file']} "
                f"({status['records_logged']} records this session, "
                f"{status['durable_records']} durable; "
                f"{status['wal_bytes']} bytes, {status['durable_bytes']} synced)\n"
                f"checkpoint = {status['checkpoint_id']}, "
                f"sync policy = {status['sync_policy']}, "
                f"logging = {'on' if status['logging'] else 'off'}"
            )
        if command == "checkpoint":
            if self.session.db.durability is None:
                return "in-memory session (restart with --db <dir> for durability)"
            return f"checkpoint written: {self.session.db.checkpoint()}"
        if command in ("quit", "exit", "q"):
            raise EOFError
        return __doc__ or ""

    # -- dispatch ---------------------------------------------------------------------

    def execute(self, line: str) -> str:
        """Execute one input line; returns the rendered response."""
        stripped = line.strip()
        if not stripped:
            return ""
        if stripped.startswith("\\"):
            return self._meta(stripped)
        head = stripped.split(None, 1)[0].upper()
        if head in _LANGUAGE_HEADS:
            return self.language.run(stripped).text
        if head in _SQL_HEADS:
            if head == "SELECT":
                result = self.session.sql(stripped)
                footer = f"({result.num_rows} rows)"
                if getattr(result, "degraded", False):
                    footer += (
                        f"\n(approximate: sampled {result.sample_rows} of "
                        f"{result.total_rows} rows at "
                        f"{result.confidence:.0%} confidence — {result.reason})"
                    )
                return result.pretty() + "\n" + footer
            if head == "EXPLAIN":
                plan = self.session.db.execute(stripped)
                assert isinstance(plan, Table)
                return "\n".join(str(v) for v in plan.column("plan").to_list())
            affected = self.session.db.execute(stripped)
            if isinstance(affected, Table):  # e.g. the PRAGMA read form
                return affected.pretty()
            if head == "PRAGMA":
                return "ok"
            return f"ok ({affected} rows affected)"
        return (
            f"unrecognised command {head!r}; enter SQL, an exploration "
            "command, or \\help"
        )

    def run(self, stream, interactive: bool) -> None:
        """Main loop over an input stream."""
        if interactive:
            print("repro exploration shell — \\help for help, \\demo for data")
        while True:
            if interactive:
                sys.stdout.write("repro> ")
                sys.stdout.flush()
            line = stream.readline()
            if not line:
                break
            try:
                output = self.execute(line)
            except EOFError:
                break
            except KeyboardInterrupt:
                # Ctrl-C mid-query: the engine normally converts this to
                # QueryCancelledError (a ReproError), but an interrupt
                # outside governed execution can still land here.  Close
                # any spans the interrupt abandoned and keep the session.
                from repro.obs.tracing import get_tracer

                get_tracer().unwind()
                output = "(cancelled)"
            except ReproError as exc:
                output = f"error: {exc}"
            if output:
                print(output)


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    db_path: str | None = None
    if "--db" in argv:
        position = argv.index("--db")
        if position + 1 >= len(argv):
            print("usage: python -m repro [--db <dir>] [-c '<command>']", file=sys.stderr)
            return 2
        db_path = argv[position + 1]
        del argv[position : position + 2]
    try:
        shell = Shell(db_path=db_path)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # close on every exit path — including Ctrl-C at the prompt — so a
    # durable session's WAL tail is always flushed
    try:
        if argv[:1] == ["-c"]:
            if len(argv) < 2:
                print("usage: python -m repro -c '<command>'", file=sys.stderr)
                return 2
            try:
                print(shell.execute(argv[1]))
            except ReproError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            return 0
        try:
            shell.run(sys.stdin, interactive=sys.stdin.isatty())
        except KeyboardInterrupt:
            print("(interrupted)")
        return 0
    finally:
        shell.close()


if __name__ == "__main__":
    raise SystemExit(main())
