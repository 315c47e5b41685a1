"""Every tunable of the engine, declared once.

:data:`SETTINGS` is the one table: each row's ``name`` is at once the
``PRAGMA``, the :func:`configure` keyword and the attribute of the
store; beside it sit the environment variable that seeds it, the
built-in default, the parser that validates a value and a one-line doc.
``PRAGMA`` get/set, the bare ``PRAGMA`` listing with its source column,
the shell's ``\\threads`` / ``\\timeout`` / ``\\delta`` / ``\\shards``
lines and the "Settings" table in DESIGN.md all derive from it.

:data:`current` is the process-wide store, seeded from ``os.environ``
at import.  Reading a setting is one attribute load on a slotted object
(``settings.current.threads``); the engine reads several per query, so
there is no per-read call, property or string-keyed lookup.  Writing
goes through :func:`configure` only, which validates *every* keyword
under one lock before it assigns any — a rejected call changes nothing.

The store is process-wide because callers rely on it: a durable
``Database`` that is closed and reopened keeps the settings ``PRAGMA``
gave its predecessor (DESIGN.md, "Settings", says what per-``Database``
state needs first).

This module imports nothing from :mod:`repro.engine` or
:mod:`repro.resilience` at import time — both import it.
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Any, Callable, Mapping, NamedTuple


def _text(raw: Any) -> str:
    """A string value with surrounding blanks and one layer of quotes removed."""
    return str(raw).strip().strip("'\"").strip()


def _integer(low: int | None) -> Callable[[str, Any], int]:
    """Parser for an integer no smaller than ``low`` (None = unbounded)."""

    def parse(name: str, raw: Any) -> int:
        try:
            value = int(raw.strip()) if isinstance(raw, str) else operator.index(raw)
        except (TypeError, ValueError):
            raise ValueError(f"{name} expects an integer, got {raw!r}") from None
        if low is not None and value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
        return value

    return parse


_any_integer = _integer(None)


def _flag(name: str, raw: Any) -> bool:
    """Parser for an on/off setting: any integer, non-zero meaning on."""
    return _any_integer(name, raw) != 0


def _choice(*options: str) -> Callable[[str, Any], str]:
    """Parser for a setting that takes one of a few words."""

    def parse(name: str, raw: Any) -> str:
        value = _text(raw).lower()
        if value not in options:
            raise ValueError(f"{name} must be one of {list(options)}, got {raw!r}")
        return value

    return parse


def parse_shard_by(text: str) -> tuple[str, str | None]:
    """Parse a ``hash``/``hash(col)``/``range(col)`` spec into (mode, key)."""
    spec = _text(text)
    head, paren, tail = spec.partition("(")
    mode = head.strip().lower()
    key: str | None = None
    if paren:
        if not tail.endswith(")"):
            raise ValueError(f"malformed shard_by spec: {text!r}")
        key = tail[:-1].strip() or None
    if mode not in ("hash", "range"):
        raise ValueError(
            f"shard_by must be hash[(col)] or range(col), got {text!r}"
        )
    return mode, key


def _shard_by(name: str, raw: Any) -> str:
    spec = _text(raw)
    parse_shard_by(spec)
    return spec


def _faults(name: str, raw: Any) -> str:
    """A fault-injection spec; ``off`` / ``none`` / blank store ``''``."""
    # resolved lazily: repro.resilience imports this module, and
    # repro.resilience.faults imports nothing that reads it at import time
    from repro.resilience.faults import parse_faults

    spec = _text(raw)
    if spec.lower() in ("off", "none"):
        spec = ""
    try:
        parse_faults(spec)
    except ValueError as exc:
        raise ValueError(f"{name}: {exc}") from None
    return spec


class Setting(NamedTuple):
    """One row of :data:`SETTINGS`.

    ``parse(name, raw)`` takes a value as ``PRAGMA`` / the environment
    spell it (text) or as Python does, returns what the store holds and
    raises :class:`ValueError` naming the setting otherwise.
    """

    name: str
    env: str
    default: Any
    parse: Callable[[str, Any], Any]
    doc: str


SETTINGS = (
    Setting("threads", "REPRO_THREADS", 0, _integer(0),
            "pool workers for a scan's span tasks; 0 or 1 runs every scan serially"),
    Setting("delta_rows", "REPRO_DELTA_ROWS", 8192, _integer(0),
            "pending inserts + tombstones that trigger a delta merge; "
            "0 merges on every write"),
    Setting("zone_rows", "REPRO_ZONE_ROWS", 65_536, _integer(0),
            "rows per zone-map zone; 0 disables zone skipping"),
    Setting("optimizer", "REPRO_OPTIMIZER", True, _flag,
            "run the rule-based plan optimizer between planning and execution"),
    Setting("timeout_ms", "REPRO_TIMEOUT_MS", 0, _integer(0),
            "per-query deadline in milliseconds; 0 = none"),
    Setting("memory_budget_kb", "REPRO_MEMORY_BUDGET_KB", 0, _integer(0),
            "per-query budget for estimated intermediate allocations, KiB; "
            "0 = unlimited"),
    Setting("degrade", "REPRO_DEGRADE", False, _flag,
            "answer a degradable aggregate that blew its budget from a sample, "
            "with bounds, instead of failing"),
    Setting("faults", "REPRO_FAULTS", "", _faults,
            "fault-injection spec, e.g. worker_crash:0.05,slow_morsel:0.1:20; "
            "off disables"),
    Setting("fault_seed", "REPRO_FAULT_SEED", 0, _any_integer,
            "seed of the deterministic injection hash"),
    Setting("wal", "REPRO_WAL", True, _flag,
            "durable databases log writes; off = checkpoint-only durability"),
    Setting("wal_sync", "REPRO_WAL_SYNC", "commit", _choice("off", "commit", "batch"),
            "fsync every record, every wal_batch records, or never"),
    Setting("wal_batch", "REPRO_WAL_BATCH", 64, _integer(1),
            "records between fsyncs under wal_sync=batch"),
    Setting("storage", "REPRO_STORAGE", "memory", _choice("memory", "mmap"),
            "reopen checkpointed columns as in-RAM arrays or read-only memory maps"),
    Setting("shards", "REPRO_SHARDS", 0, _integer(0),
            "shard count for new and merged tables; 0 = no automatic sharding"),
    Setting("shard_by", "REPRO_SHARD_BY", "hash", _shard_by,
            "default partitioning: hash, hash(col) or range(col); "
            "no column = the table's first"),
    Setting("shard_min_rows", "REPRO_SHARD_MIN_ROWS", 65_536, _integer(1),
            "tables smaller than this are not auto-sharded"),
)

#: the rows by name
ROWS = {row.name: row for row in SETTINGS}


def shown(value: Any) -> int | str:
    """A stored value as ``PRAGMA`` prints it: flags 0/1, an empty spec ``off``."""
    if isinstance(value, bool):
        return int(value)
    return "off" if value == "" else value


class Settings:
    """A store with one slot per row of :data:`SETTINGS`.

    Built from an environ mapping: a variable that is set, non-blank and
    accepted by its row's parser seeds the slot; anything else — unset,
    blank, unparsable, out of range — leaves the default, so importing
    this module never raises.
    """

    __slots__ = tuple(ROWS) + ("_seeded",)

    def __init__(self, environ: Mapping[str, str]) -> None:
        #: what start-up gave each slot, and where that came from
        self._seeded = {}
        for row in SETTINGS:
            value, origin = row.default, "default"
            raw = environ.get(row.env, "").strip()
            if raw:
                try:
                    value, origin = row.parse(row.name, raw), f"env:{row.env}"
                except ValueError:
                    pass
            setattr(self, row.name, value)
            self._seeded[row.name] = (value, origin)

    def source(self, name: str) -> str:
        """Where the current value came from: ``default``, ``env:REPRO_X``,
        or ``pragma`` for one set this session (by ``PRAGMA`` or
        :func:`configure`).  Decided from the value itself, so the two
        cannot disagree: a slot holding what start-up gave it reports the
        start-up source whoever wrote it last."""
        value, origin = self._seeded[name]
        return origin if getattr(self, name) == value else "pragma"


#: the process-wide store
current = Settings(os.environ)
_lock = threading.Lock()
#: advanced by every :func:`configure` and :func:`restore`, so a cache of
#: work done under one configuration can tell it is stale; not a setting
generation = 0


def configure(**values: Any) -> None:
    """Set the named settings; either all of them or, on an error, none.

    Raises:
        TypeError: for a keyword that is no row of :data:`SETTINGS`.
        ValueError: for a value its row's parser rejects.
    """
    global generation
    unknown = sorted(values.keys() - ROWS.keys())
    if unknown:
        raise TypeError(f"unknown setting(s) {unknown}; expected some of {sorted(ROWS)}")
    with _lock:
        parsed = {name: ROWS[name].parse(name, raw) for name, raw in values.items()}
        for name, value in parsed.items():
            setattr(current, name, value)
        generation += 1


def snapshot() -> dict[str, Any]:
    """Every setting's current value, for :func:`restore`."""
    with _lock:
        return {name: getattr(current, name) for name in ROWS}


def restore(saved: Mapping[str, Any]) -> None:
    """Put back what :func:`snapshot` returned."""
    global generation
    with _lock:
        for name, value in saved.items():
            setattr(current, name, value)
        generation += 1
