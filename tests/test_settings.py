"""The settings table, exercised row by row.

One parametrised test walks :data:`repro.settings.SETTINGS` through
every surface that derives from it — ``PRAGMA name``, ``PRAGMA
name=value``, the bare listing, ``settings.configure`` and a store built
from an environ mapping — so a new row is covered by adding one entry to
``CASES``.  The rest pins what the table cannot express per row: the
all-or-nothing ``configure``, the source column, and that the docs and
the CI workflow name only real rows.
"""

from __future__ import annotations

import ast
import re
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import settings
from repro.engine import Database
from repro.errors import CatalogError
from tests.conftest import AMBIENT

REPO = Path(__file__).resolve().parent.parent

#: per setting: a valid value as PRAGMA / the environment spell it, what
#: the store then holds, and a value the row's parser rejects
CASES = {
    "threads": ("3", 3, "-1"),
    "delta_rows": ("0", 0, "-1"),
    "zone_rows": ("128", 128, "-1"),
    "optimizer": ("0", False, "fast"),
    "timeout_ms": ("250", 250, "-1"),
    "memory_budget_kb": ("64", 64, "-1"),
    "degrade": ("2", True, "maybe"),
    "faults": ("'worker_crash:0.5,slow_morsel:0.1:20'", "worker_crash:0.5,slow_morsel:0.1:20",
               "meteor_strike:1"),
    "fault_seed": ("-7", -7, "1.5"),
    "wal": ("0", False, "off"),
    "wal_sync": ("BATCH", "batch", "sometimes"),
    "wal_batch": ("7", 7, "0"),
    "storage": ("'mmap'", "mmap", "turbo"),
    "shards": ("2", 2, "-1"),
    "shard_by": ("'range(k)'", "range(k)", "turbo(k)"),
    "shard_min_rows": ("100", 100, "0"),
}


def _listing(db: Database) -> dict[str, tuple[str, str]]:
    return {name: (value, source) for name, value, source in db.execute("PRAGMA").rows()}


def test_every_row_has_a_case() -> None:
    assert list(CASES) == [row.name for row in settings.SETTINGS]
    assert len(settings.SETTINGS) == 16


#: deleted settings, spelled so no live use of the name remains: the pool
#: is always a thread pool, a sharded table builds no index of its own,
#: the catalog always dictionary-encodes STRING columns, the plan cache
#: is always on with a fixed size, a degraded answer always samples
#: ``degraded_answer``'s default row budget, a scan's task is its zone
#: span (no morsel cut), a scan pools with two tasks or more whatever
#: rows they cover, and a crashed task has a fixed number of retries
DELETED = {
    "_".join(("pool", "kind")): ("process", "thread"),
    "_".join(("shard", "index")): ("1", True),
    "_".join(("dict", "encode")): ("0", False),
    "_".join(("plan", "cache")): ("0", False),
    "_".join(("plan", "cache", "size")): ("8", 8),
    "_".join(("degrade", "rows")): ("100", 100),
    "_".join(("morsel", "rows")): ("500", 500),
    "_".join(("min", "parallel", "rows")): ("7", 7),
    "_".join(("max", "retries")): ("0", 0),
}


@pytest.mark.parametrize("name", DELETED)
def test_the_worker_pool_is_no_setting(name: str) -> None:
    """A deleted setting is an unknown name on every surface and changes
    nothing: ``PRAGMA``, ``configure`` and its old environment variable."""
    pragma_value, configure_value = DELETED[name]
    before = settings.snapshot()
    with pytest.raises(CatalogError, match=f"^unknown pragma '{name}'"):
        Database().execute(f"PRAGMA {name}={pragma_value}")
    with pytest.raises(TypeError, match=name):
        settings.configure(**{name: configure_value})
    assert settings.snapshot() == before
    seeded = settings.Settings({f"REPRO_{name.upper()}": pragma_value})
    assert not hasattr(seeded, name)
    for row in settings.SETTINGS:
        assert (getattr(seeded, row.name), seeded.source(row.name)) == (row.default, "default")


def test_every_row_has_a_reader() -> None:
    """Each row is read somewhere in the engine as ``current.<name>`` or
    ``config.<name>`` (the local every reader binds the store to), so no
    row outlives its last reader."""
    package = REPO / "src/repro"
    read = set()
    for path in package.rglob("*.py"):
        if path != package / "settings.py":
            read |= set(re.findall(r"\b(?:current|config)\.(\w+)", path.read_text()))
    assert [row.name for row in settings.SETTINGS if row.name not in read] == []


@pytest.mark.parametrize("row", settings.SETTINGS, ids=lambda row: row.name)
def test_row_on_every_surface(row: settings.Setting) -> None:
    name = row.name
    text, stored, bad = CASES[name]
    db = Database()

    def read() -> int | str:
        return db.execute(f"PRAGMA {name}").column("value")[0]

    # read form = current value, flags as 0/1 and an empty spec as "off"
    before = settings.snapshot()
    assert read() == settings.shown(before[name])

    # an invalid value: CatalogError from PRAGMA, ValueError from the
    # API, both naming the setting, neither touching the store
    with pytest.raises(CatalogError, match=f"^PRAGMA {name}\\b"):
        db.execute(f"PRAGMA {name}={bad}")
    with pytest.raises(ValueError, match=f"^{name}\\b") as rejected:
        settings.configure(**{name: bad})
    assert not isinstance(rejected.value, CatalogError)
    if isinstance(row.default, int):  # flags included
        with pytest.raises(CatalogError) as garbage:
            db.execute(f"PRAGMA {name}=abc")
        assert str(garbage.value) == f"PRAGMA {name} expects an integer, got 'abc'"
    assert settings.snapshot() == before

    # a valid one round-trips: set -> store -> read form -> bare listing
    assert db.execute(f"PRAGMA {name}={text}") == 0
    assert getattr(settings.current, name) == stored
    assert type(getattr(settings.current, name)) is type(row.default)
    assert read() == settings.shown(stored)
    value, source = _listing(db)[name]
    assert value == str(settings.shown(stored))
    # "pragma" exactly when the value is not the one start-up gave
    assert (source == "pragma") == (stored != AMBIENT[name])

    # the same keyword through the API, typed or as text
    settings.restore(before)
    settings.configure(**{name: stored})
    assert getattr(settings.current, name) == stored
    settings.restore(before)
    settings.configure(**{name: text})
    assert getattr(settings.current, name) == stored

    # a store built from an environ mapping: valid values are taken, with
    # their source; blank, unparsable and rejected ones read as the default
    seeded = settings.Settings({row.env: f"  {text} "})
    assert getattr(seeded, name) == stored
    assert seeded.source(name) == f"env:{row.env}"
    for raw in ("", "   ", bad):
        fallback = settings.Settings({row.env: raw})
        assert getattr(fallback, name) == row.default
        assert fallback.source(name) == "default"


def test_rejected_configure_changes_nothing() -> None:
    before = settings.snapshot()
    with pytest.raises(ValueError, match="zone_rows"):
        settings.configure(threads=3, zone_rows=-1)
    with pytest.raises(ValueError, match="faults"):
        settings.configure(zone_rows=8, delta_rows=1, faults="nonsense")
    with pytest.raises(TypeError, match="zone_row"):
        settings.configure(threads=3, zone_row=8)
    assert settings.snapshot() == before


@pytest.mark.parametrize("spelling", ["off", "OFF", "none", "''", "'off'"])
def test_faults_off_stores_the_empty_spec(spelling: str) -> None:
    db = Database()
    db.execute("PRAGMA faults=worker_crash:1.0")
    db.execute(f"PRAGMA faults={spelling}")
    assert settings.current.faults == ""
    assert db.execute("PRAGMA faults").column("value")[0] == "off"
    settings.configure(faults="")
    assert settings.current.faults == ""


def test_source_is_the_processes_not_the_databases() -> None:
    """A value is set for the process, so every Database lists it as set."""
    Database().execute("PRAGMA zone_rows=96")
    assert _listing(Database())["zone_rows"] == ("96", "pragma")
    settings.configure(timeout_ms=125)
    assert _listing(Database())["timeout_ms"] == ("125", "pragma")
    # put back what start-up gave and the start-up source is back with it
    settings.configure(zone_rows=AMBIENT["zone_rows"], timeout_ms=AMBIENT["timeout_ms"])
    for name in ("zone_rows", "timeout_ms"):
        assert _listing(Database())[name][1] in ("default", f"env:{settings.ROWS[name].env}")


def test_snapshot_restore_round_trip() -> None:
    before = settings.snapshot()
    assert list(before) == [row.name for row in settings.SETTINGS]
    settings.configure(**{name: text for name, (text, _stored, _bad) in CASES.items()})
    assert settings.snapshot() == {name: stored for name, (_text, stored, _bad) in CASES.items()}
    settings.restore(before)
    assert settings.snapshot() == before


def test_reading_is_one_slot_load() -> None:
    """No ``__dict__``, no property, no ``__getattr__`` between a reader
    and a value: every row is a plain slot of the store."""
    store = type(settings.current)
    assert not hasattr(settings.current, "__dict__")
    assert "__getattr__" not in vars(store) and "__getattribute__" not in vars(store)
    for row in settings.SETTINGS:
        assert type(vars(store)[row.name]).__name__ == "member_descriptor"


def test_module_imports_nothing_of_the_engine_at_import() -> None:
    tree = ast.parse((REPO / "src/repro/settings.py").read_text())
    imported = [
        node.module if isinstance(node, ast.ImportFrom) else alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert not [module for module in imported if module.startswith("repro")]


def test_concurrent_configures_never_tear() -> None:
    """``configure`` holds one lock from validation to the last
    assignment: a snapshot taken beside eight writers always shows the
    ``zone_rows`` and ``delta_rows`` one call set together."""
    stop = time.monotonic() + 0.5
    torn: list[dict] = []

    def write(worker: int) -> None:
        rows = 10 + worker
        while time.monotonic() < stop:
            settings.configure(zone_rows=rows, delta_rows=rows)
            rows += 8

    def check() -> None:
        while time.monotonic() < stop:
            seen = settings.snapshot()
            if seen["zone_rows"] != seen["delta_rows"]:
                torn.append(seen)

    settings.configure(zone_rows=9, delta_rows=9)
    workers = [threading.Thread(target=write, args=(i,)) for i in range(8)]
    workers += [threading.Thread(target=check) for _ in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not torn


# -- the docs and the CI workflow name only real rows ---------------------------------


def _design_table() -> list[list[str]]:
    """The cells of DESIGN.md's "Settings" table, one list per setting."""
    section = (REPO / "DESIGN.md").read_text().split("\n## Settings", 1)[1].split("\n## ", 1)[0]
    return [
        [cell.strip().strip("`") for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        for line in section.splitlines()
        if line.startswith("| `")
    ]


def test_design_table_equals_settings() -> None:
    documented = [(row[0], row[3], row[2]) for row in _design_table()]
    declared = [
        (row.name, row.env, str(settings.shown(row.default))) for row in settings.SETTINGS
    ]
    assert documented == declared


def test_ci_workflow_names_only_real_env_vars() -> None:
    workflow = (REPO / ".github/workflows/ci.yml").read_text()
    named = set(re.findall(r"\bREPRO_[A-Z_]+\b", workflow))
    assert named and named <= {row.env for row in settings.SETTINGS}
