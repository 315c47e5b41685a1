"""Deterministic fault injection for resilience testing.

Faults are configured by a spec string (``REPRO_FAULTS`` environment
variable or ``PRAGMA faults=...``) naming one or more fault points with a
firing probability and an optional numeric parameter::

    worker_crash:0.05,slow_morsel:0.1:20

=======================  ==============================================  =========
Point                    Effect                                          Parameter
=======================  ==============================================  =========
``worker_crash``         a scan task raises :class:`InjectedFault`       —
``slow_morsel``          a scan task sleeps before running               sleep ms
``malformed_row``        a CSV row is treated as unparseable             —
``alloc_spike``          a memory charge is inflated                     multiplier
``wal_pre_fsync``        process dies after append, before fsync         —
``wal_post_append``      process dies after append (and policy fsync)    —
``wal_torn_write``       process dies mid-append, half a record on disk  —
``crash_mid_checkpoint`` process dies between checkpoint dir and swap    —
``crash_mid_merge``      process dies after the merge marker is logged   —
=======================  ==============================================  =========

The five ``wal_*``/``crash_*`` points simulate *process death* for the
durability layer (:mod:`repro.engine.wal`): the site raises
:class:`SimulatedCrashError` after emulating what a power loss leaves on
disk (everything past the last fsync is gone; a torn write persists a
prefix of the final record).  They only ever fire inside a durable
(``Database(path=...)``) session — an in-memory database never reaches
these sites, so enabling them process-wide is safe for ordinary tests.

Whether a given site fires is decided by hashing ``(seed, point, key)``
into a uniform value and comparing against the probability — the same
run therefore injects the same faults every time, which is what makes
retry/degradation behaviour unit-testable.  A scan task is one span (or
one shard's spans) of a scan, run on the calling thread or a pool
worker alike (:mod:`repro.engine.parallel`).  Injection only happens on
the *first* attempt of a scan task (retries call the kernel directly),
so an injected ``worker_crash`` behaves like a transient fault: the
serial retry succeeds and the query's result is unchanged.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro import settings

FAULT_POINTS = (
    "worker_crash",
    "slow_morsel",
    "malformed_row",
    "alloc_spike",
    "wal_pre_fsync",
    "wal_post_append",
    "wal_torn_write",
    "crash_mid_checkpoint",
    "crash_mid_merge",
)

#: the fault points that simulate process death for the durability layer
CRASH_POINTS = (
    "wal_pre_fsync",
    "wal_post_append",
    "wal_torn_write",
    "crash_mid_checkpoint",
    "crash_mid_merge",
)

_DEFAULT_SLOW_MS = 20.0
_DEFAULT_ALLOC_MULTIPLIER = 8.0


class InjectedFault(RuntimeError):
    """The exception an injected ``worker_crash`` raises inside a task.

    Deliberately **not** a :class:`~repro.errors.ReproError`: to the
    retry machinery it must look exactly like an unexpected worker crash.
    """


class SimulatedCrashError(RuntimeError):
    """Raised by an injected durability crash point, standing in for the
    process dying at that instant.

    Not a :class:`~repro.errors.ReproError` on purpose: nothing in the
    engine may catch and recover from it — the test harness abandons the
    database object (the "dead process") and re-opens from disk.  By the
    time it is raised the WAL has already been truncated to exactly what
    a power loss would have left durable.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One configured fault point."""

    point: str
    probability: float
    param: float | None = None


def parse_faults(text: str) -> dict[str, FaultSpec]:
    """Parse a spec string into per-point :class:`FaultSpec` entries.

    Raises:
        ValueError: for unknown points, bad probabilities or malformed
            entries.  An empty/whitespace string parses to no faults.
    """
    specs: dict[str, FaultSpec] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        parts = entry.split(":")
        if len(parts) not in (2, 3):
            raise ValueError(
                f"bad fault entry {entry!r}; expected point:probability[:param]"
            )
        point = parts[0].strip().lower()
        if point not in FAULT_POINTS:
            raise ValueError(
                f"unknown fault point {point!r}; expected one of {list(FAULT_POINTS)}"
            )
        try:
            probability = float(parts[1])
        except ValueError:
            raise ValueError(f"bad probability {parts[1]!r} in {entry!r}") from None
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        param: float | None = None
        if len(parts) == 3:
            try:
                param = float(parts[2])
            except ValueError:
                raise ValueError(f"bad parameter {parts[2]!r} in {entry!r}") from None
        specs[point] = FaultSpec(point, probability, param)
    return specs


class FaultInjector:
    """Decides, deterministically, whether a fault fires at a given site."""

    __slots__ = ("specs", "seed")

    def __init__(self, specs: Mapping[str, FaultSpec], seed: int = 0) -> None:
        self.specs = dict(specs)
        self.seed = seed

    def decide(self, point: str, key: Any) -> FaultSpec | None:
        """The spec that fires at ``(point, key)``, or None.

        The decision hashes ``(seed, point, key)`` to a uniform draw, so
        it is a pure function of the site — rerunning the same batch
        injects the same faults.
        """
        spec = self.specs.get(point)
        if spec is None or spec.probability <= 0.0:
            return None
        if spec.probability >= 1.0:
            return spec
        digest = hashlib.sha256(f"{self.seed}|{point}|{key}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return spec if draw < spec.probability else None

    def fires(self, point: str, key: Any) -> bool:
        """True when the fault at ``(point, key)`` fires (durability
        crash points and other sites that act on the decision inline)."""
        return self.decide(point, key) is not None

    # -- per-point helpers, named after their effect --------------------------------

    def maybe_crash(self, key: Any) -> None:
        """Raise :class:`InjectedFault` when ``worker_crash`` fires."""
        if self.decide("worker_crash", key) is not None:
            raise InjectedFault(f"injected worker crash at task {key}")

    def maybe_slow(self, key: Any) -> None:
        """Sleep for the configured duration when ``slow_morsel`` fires."""
        spec = self.decide("slow_morsel", key)
        if spec is not None:
            time.sleep((spec.param or _DEFAULT_SLOW_MS) / 1000.0)

    def malformed_row(self, key: Any) -> bool:
        """True when a loader should treat this row as malformed."""
        return self.decide("malformed_row", key) is not None

    def alloc_multiplier(self, key: Any) -> float:
        """Inflation factor for a memory charge (1.0 when not firing)."""
        spec = self.decide("alloc_spike", key)
        if spec is None:
            return 1.0
        return spec.param or _DEFAULT_ALLOC_MULTIPLIER


_cache: tuple[tuple[str, int], FaultInjector | None] | None = None


def get_injector() -> FaultInjector | None:
    """The injector for the current configuration (None when disabled).

    Rebuilt automatically when ``faults``/``fault_seed`` change; the
    store only ever holds a spec :func:`parse_faults` accepted.
    """
    global _cache
    config = settings.current
    signature = (config.faults, config.fault_seed)
    if _cache is None or _cache[0] != signature:
        specs = parse_faults(config.faults)
        injector = FaultInjector(specs, config.fault_seed) if specs else None
        _cache = (signature, injector)
    return _cache[1]
