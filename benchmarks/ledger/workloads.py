"""The four workloads: set-up, the closed-loop driver, and the output checks.

Load model: closed loop, one analyst, zero think time, one driver
process.  Everything goes through the front door — ``Database.sql`` /
``Database.execute`` / ``Database.checkpoint`` / ``Database(path=...)``
and ``PRAGMA`` statements for configuration.
"""

from __future__ import annotations

import itertools
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import datagen
import oracle
import sessions
from datagen import TableData
from sessions import Interaction, Query

from repro.engine.catalog import Database
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.resilience import SimulatedCrashError

WORK_ROOT = Path(__file__).resolve().parent / "out" / "work"

#: the configuration every workload starts from (and the reference
#: configuration's base); the seven config singletons are process-wide
DEFAULT_PRAGMAS = {"threads": 0, "storage": "memory", "shards": 0, "shard_by": "hash",
                   "optimizer": 1}
#: queries re-run against the oracle and the reference configuration
CHECK_QUERIES = 36


def pragmas(db: Database, **settings) -> None:
    for name, value in settings.items():
        db.execute(f"PRAGMA {name}={value}")


def reset_config() -> None:
    pragmas(Database(), **DEFAULT_PRAGMAS)


def force_lazy(db: Database, *tables: str) -> None:
    """Build what the engine would otherwise build on first use, so that
    set-up pays for it and the timed phase does not."""
    for name in tables:
        db.zone_map(name)
        db.statistics(name)


def counters() -> dict[str, int]:
    return dict(get_registry().snapshot()["counters"])


@dataclass
class Phase:
    """What one driven stretch of a session measured (seconds throughout)."""

    interactions: list[float] = field(default_factory=list)
    views: dict[str, list[float]] = field(default_factory=dict)
    writes: list[float] = field(default_factory=list)
    checkpoints: list[float] = field(default_factory=list)
    recoveries: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    stored_bytes: int = 0

    @property
    def statements(self) -> list[float]:
        """Per-statement latencies: acknowledged DML where the session
        writes, else every query."""
        if self.writes:
            return self.writes
        return [t for times in self.views.values() for t in times]

    @property
    def wall(self) -> float:
        """Time spent inside front-door calls (the session wall)."""
        return (sum(self.interactions) + sum(self.writes) + sum(self.checkpoints)
                + sum(self.recoveries))

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(why)


def perform(db: Database, interaction: Interaction, phase: Phase, tracer=None) -> None:
    """One gesture: its writes, then its linked-view queries, then a
    checkpoint if the script asks for one.  The interaction's latency is
    the time until every query it fans out has returned."""
    clock = time.perf_counter
    for write in interaction.writes:
        if tracer is not None:
            tracer.qid += 1
        phase.attempted += 1
        start = clock()
        try:
            affected = db.execute(write.sql)
        except Exception as exc:  # the session must go on; the failure is counted
            affected = None
            phase.fail(f"{write.kind}: {type(exc).__name__}: {exc}")
        phase.writes.append(clock() - start)
        if affected is not None and affected != write.rows:
            phase.fail(f"{write.kind} acknowledged {affected} rows, mirror says {write.rows}")
    begin = clock()
    for query in interaction.queries:
        if tracer is not None:
            tracer.qid += 1
        phase.attempted += 1
        start = clock()
        try:
            db.sql(query.sql).num_rows
        except Exception as exc:
            phase.fail(f"{query.view}: {type(exc).__name__}: {exc}")
        phase.views.setdefault(query.view, []).append(clock() - start)
    phase.interactions.append(clock() - begin)
    if interaction.checkpoint:
        phase.attempted += 1
        start = clock()
        try:
            db.checkpoint()
        except Exception as exc:
            phase.fail(f"checkpoint: {type(exc).__name__}: {exc}")
        phase.checkpoints.append(clock() - start)


class Workload:
    """One named workload; subclasses say how to build and check it."""

    name = ""
    why = ""
    #: interactions in each half of a traced run at the nominal run length
    window = 0
    #: interactions per fixed-composition block of the session; a timed
    #: run ends on a block boundary so every run measures the same mix
    cycle = 1
    #: the interaction-latency tail this workload's sample count supports
    #: (at least ten samples beyond it in a nominal run)
    tail = 90.0
    #: the statement-latency tail likewise
    statement_tail = 99.0

    def __init__(self, rows: int | None = None) -> None:
        self.rows = rows
        self.workdir = WORK_ROOT / f"{self.name}-{os.getpid()}"

    # -- to be provided ---------------------------------------------------------------

    def generate(self, seed: int) -> dict[str, TableData]:
        raise NotImplementedError

    def setup(self, tables: dict[str, TableData]) -> Database:
        """Build the database and force every lazy one-time structure."""
        raise NotImplementedError

    def session(self, seed: int, tables: dict[str, TableData]):
        raise NotImplementedError

    # -- shared -----------------------------------------------------------------------

    def fresh_workdir(self) -> Path:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.parent.mkdir(parents=True, exist_ok=True)
        return self.workdir

    def cleanup(self) -> None:
        """Remove the durable directories and leave the config singletons
        at their defaults."""
        for path in self.workdir.parent.glob(self.workdir.name + "*"):
            shutil.rmtree(path, ignore_errors=True)
        reset_config()

    def drive(
        self, db: Database, session, stop: Callable[[int, float], bool], tracer=None,
        cycles: int = 1,
    ) -> Phase:
        """Warm up with the session's first interaction (untimed), then
        run interactions until ``stop(done, elapsed)``; ``repro.obs``
        counter deltas are taken around the timed part."""
        stream = iter(session)
        perform(db, next(stream), Phase())
        phase = Phase()
        if tracer is not None:
            tracer.install()
        try:
            before = counters()
            started = time.perf_counter()
            done = 0
            while not stop(done, time.perf_counter() - started):
                perform(db, next(stream), phase, tracer)
                done += 1
            self.finish(db, session, phase, cycles)
            after = counters()
        finally:
            if tracer is not None:
                tracer.uninstall()
        phase.counts = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        return phase

    def finish(self, db: Database, session, phase: Phase, cycles: int) -> None:
        """Hook: what still belongs to the measured session after the loop."""

    def check(self, db: Database, seed: int, tables: dict[str, TableData], phase: Phase,
              session) -> None:
        """Re-run a seeded sample of the session's queries against the
        NumPy oracle and, bit for bit, against the reference configuration
        (threads=0, optimizer off, memory storage, unsharded)."""
        stream = iter(self.session(seed, tables))
        per = len(next(stream).queries)
        need = math.ceil(CHECK_QUERIES / per)
        rng = np.random.default_rng([seed, 99])
        picks = set(rng.choice(need * 16, size=need, replace=False).tolist())
        queries = [
            q for i, interaction in enumerate(itertools.islice(stream, need * 16))
            if i in picks for q in interaction.queries
        ]
        self.compare(db, queries, tables, phase)

    def compare(self, db: Database, queries: list[Query], tables, phase: Phase) -> None:
        def answer(database: Database, query: Query):
            phase.attempted += 1
            try:
                return database.sql(query.sql)
            except Exception as exc:
                phase.fail(f"check: {query.sql}: {type(exc).__name__}: {exc}")
                return None

        results = [answer(db, query) for query in queries]
        for query, result in zip(queries, results):
            if result is not None:
                why = oracle.mismatch(result, oracle.expected(query.spec, tables))
                if why is not None:
                    phase.fail(f"oracle: {query.sql}: {why}")
        reference = self.reference(db, tables)
        for query, result in zip(queries, results):
            other = answer(reference, query)
            if result is not None and other is not None and not oracle.identical(result, other):
                phase.fail(f"reference configuration differs: {query.sql}")
        reference.close()

    def reference(self, db: Database, tables) -> Database:
        """A database holding the same data under the reference configuration."""
        pragmas(db, optimizer=0)
        return db


class CrossfilterScan(Workload):
    name = "crossfilter_scan"
    why = ("execution-dominated: six linked views over 1M in-memory rows, serial config; "
           "drags give novel SQL (plan-cache misses), jump-backs give hits")
    window = 96
    cycle = len(sessions.CROSSFILTER_CYCLE)
    statement_tail = 95.0

    def generate(self, seed):
        return {"sales": datagen.sales(seed, self.rows or datagen.SALES_ROWS)}

    def setup(self, tables):
        reset_config()
        db = Database()
        db.create_table("sales", datagen.to_table(tables["sales"]))
        force_lazy(db, "sales")
        return db

    def session(self, seed, tables):
        return sessions.crossfilter(seed, tables["sales"])


class ShardedMmap(CrossfilterScan):
    name = "sharded_mmap"
    why = ("crossfilter_scan's data and script through the streamed + scattered + pooled "
           "routes: durable, 2 range shards on ts, reopened storage=mmap, threads=2")

    def setup(self, tables):
        reset_config()
        root = self.fresh_workdir()
        db = Database(path=root)
        pragmas(db, shards=2, shard_by="range(ts)")
        self._table = datagen.to_table(tables["sales"])
        db.create_table("sales", self._table)
        force_lazy(db, "sales")
        db.checkpoint()
        pragmas(db, storage="mmap", threads=2)
        db.close()
        db = Database(path=root)
        force_lazy(db, "sales")
        return db

    def reference(self, db, tables):
        db.close()
        reset_config()
        ref = Database()
        pragmas(ref, optimizer=0)
        # the columns were dictionary-encoded when set-up registered them
        ref.create_table("sales", self._table)
        return ref


class DrilldownSmall(Workload):
    name = "drilldown_small"
    why = ("front-end-dominated: sub-millisecond kernels over 20k rows, so parser, planner, "
           "optimizer, plan cache and Python dispatch set the latency; half pooled, half fresh SQL")
    window = 10_000
    cycle = sessions.DRILLDOWN_CYCLE
    tail = 95.0
    # one statement per interaction, so this repeats the interaction tail;
    # the p99 the sample would support spread 0.29-0.40 between runs
    statement_tail = 95.0

    def generate(self, seed):
        return {
            "events": datagen.events(seed, self.rows or datagen.EVENTS_ROWS),
            "users": datagen.users(seed),
        }

    def setup(self, tables):
        reset_config()
        db = Database()
        for name, data in tables.items():
            db.create_table(name, datagen.to_table(data))
        force_lazy(db, *tables)
        return db

    def session(self, seed, tables):
        return sessions.drilldown(seed, tables["events"])


class IngestExplore(Workload):
    name = "ingest_explore"
    why = ("writes beside reads on one scan layer: durable wal_sync=commit rounds of 53 DML "
           "plus a dashboard refresh, delta merges, checkpoints, power loss and recovery")
    window = 48
    tail = 80.0
    checkpoint_every = 20
    #: the database reopened by the last recovery cycle, kept for the checks
    recovered = None

    def generate(self, seed):
        return {"readings": datagen.readings(seed, self.rows or datagen.READINGS_ROWS)}

    def setup(self, tables):
        reset_config()
        db = Database(path=self.fresh_workdir())
        db.create_table("readings", datagen.to_table(tables["readings"]))
        force_lazy(db, "readings")
        db.checkpoint()
        return db

    def session(self, seed, tables):
        return sessions.IngestSession(seed, tables["readings"], self.checkpoint_every)

    def finish(self, db, session, phase, cycles):
        """Power loss, then ``cycles`` reopen-replay-first-query cycles,
        each on a fresh copy of the crashed directory."""
        try:
            db.durability.wal.simulate_crash("ledger power loss")
        except SimulatedCrashError:
            pass
        db.close()
        phase.stored_bytes = sum(
            f.stat().st_size for f in self.workdir.rglob("*") if f.is_file()
        )
        first_query = sessions.ingest_queries(session.fresh_tlo())[1]
        if self.recovered is not None:
            self.recovered.close()
        self.recovered = None
        for cycle in range(cycles):
            copy = Path(f"{self.workdir}-recovered")
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(self.workdir, copy)
            phase.attempted += 1
            start = time.perf_counter()
            try:
                recovered = Database(path=copy)
                recovered.sql(first_query.sql).num_rows
            except ReproError as exc:
                phase.fail(f"recovery: {type(exc).__name__}: {exc}")
                continue
            finally:
                phase.recoveries.append(time.perf_counter() - start)
            if cycle == cycles - 1:
                self.recovered = recovered
            else:
                recovered.close()

    def check(self, db, seed, tables, phase, session):
        """The recovered table must equal the mirror of acknowledged
        writes; dashboard queries over it must match oracle and reference."""
        mirror = session.live()
        recovered = self.recovered
        phase.attempted += 1
        if recovered is None:
            phase.fail("no recovered database to check")
            return
        table = recovered.get_table("readings")
        order = np.argsort(table.column("id").data, kind="stable")
        for name, want in mirror.columns.items():
            got = table.column(name).data[order]
            if got.tolist() != want.tolist():
                phase.fail(f"recovered column {name!r} differs from the acknowledged writes")
                break
        queries = [
            q for back in np.linspace(1_000, min(50_000, mirror.rows), CHECK_QUERIES // 3)
            for q in sessions.ingest_queries(session.fresh_tlo(int(back)))
        ]
        self.compare(recovered, queries, {"readings": mirror}, phase)

    def reference(self, db, tables):
        db.close()
        ref = Database()
        pragmas(ref, optimizer=0)
        ref.create_table("readings", datagen.to_table(tables["readings"]))
        return ref


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CrossfilterScan, DrilldownSmall, IngestExplore, ShardedMmap)
}
