"""Self-test of the ledger harness at tiny sizes (seconds, not minutes).

    python3 benchmarks/ledger/selftest.py

Checks the harness, not the engine: seeded generation is deterministic,
span self-time arithmetic and the percentile rule are right, a traced
run removes its wrappers and leaves the engine's config singletons at
their defaults, counts repeat exactly between the untraced and traced
halves, and ``BENCHMARK.json`` names exactly the metrics the runner
prints.  (Named so that pytest never collects it.)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._prepare_imports()

import datagen  # noqa: E402
import sessions  # noqa: E402
import stats  # noqa: E402
import trace as ledger_trace  # noqa: E402
import workloads  # noqa: E402

from repro.engine.catalog import Database  # noqa: E402

#: row counts for the tiny runs; sharded stays above ``min_parallel_rows``
#: so the pooled scatter route is the one exercised
TINY_ROWS = {"crossfilter_scan": 100_000, "drilldown_small": 20_000,
             "ingest_explore": 20_000, "sharded_mmap": 150_000}
TINY_SECONDS = 1.5


def check(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        check.failures += 1


check.failures = 0


def test_determinism() -> None:
    for make in (datagen.sales, datagen.events, datagen.readings):
        same = datagen.digest(make(1, 5_000)) == datagen.digest(make(1, 5_000))
        other = datagen.digest(make(1, 5_000)) != datagen.digest(make(2, 5_000))
        check(same and other, f"{make.__name__}: same seed same digest, other seed differs")
    sales, events, readings = (
        datagen.sales(1, 5_000), datagen.events(1, 5_000), datagen.readings(1, 5_000)
    )
    scripts = {
        "crossfilter": lambda seed: sessions.crossfilter(seed, sales),
        "drilldown": lambda seed: sessions.drilldown(seed, events),
        "ingest": lambda seed: iter(sessions.IngestSession(seed, readings, 20)),
    }
    for name, make in scripts.items():
        same = sessions.script_digest(make(1), 60) == sessions.script_digest(make(1), 60)
        other = sessions.script_digest(make(1), 60) != sessions.script_digest(make(2), 60)
        check(same and other, f"{name} script: byte-identical per seed, differs across seeds")


def test_span_arithmetic() -> None:
    # one driver thread: a 10 ms root with 3 ms and 4 ms children, the
    # second of which has a 1 ms child; then a 2 ms root
    durations = [10.0, 3.0, 4.0, 1.0, 2.0]
    parents = [-1, 0, 0, 2, -1]
    own = ledger_trace.self_times(durations, parents).tolist()
    check(own == [3.0, 3.0, 3.0, 1.0, 2.0], "self time = duration minus direct children")
    names = ledger_trace.NAMES
    sql, plan, mask = (names.index(n) for n in (
        "catalog.Database.sql", "catalog.Database.plan", "expressions.truth_mask"))
    driver = [[sql, 0.000, 0.010, -1, 1], [plan, 0.001, 0.004, 0, 1]]
    pool = [[mask, 0.005, 0.009, -1, 1]]  # a pool-thread span: query id, no parent
    m = ledger_trace.summarize([(True, driver), (False, pool)], wall_ms=12.0)
    check(abs(m["catalog.self_ms"] - 10.0) < 1e-9 and m["expressions.self_ms"] == 0.0,
          "pool-thread spans are never subtracted and add no layer self time")
    check(abs(m["expressions.truth_mask.busy_ms"] - 4.0) < 1e-9
          and m["expressions.truth_mask.calls"] == 1,
          "pool-thread spans count toward busy_ms and calls")
    check(abs(m["driver.unattributed_ms"] - 2.0) < 1e-9,
          "unattributed = wall minus driver-thread root spans")


def test_percentile_rule() -> None:
    expect = {9: 50.0, 39: 50.0, 40: 75.0, 54: 80.0, 120: 90.0, 240: 95.0,
              1_000: 99.0, 20_000: 99.9}
    check(all(stats.supported_percentile(n) == p for n, p in expect.items()),
          "highest percentile with at least ten samples beyond it")
    q1, median, q3, spread = stats.quartile_summary([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    check((q1, median, q3) == (2.75, 5.5, 8.25) and abs(spread - 1.0) < 1e-12,
          "quartiles follow statistics.quantiles(n=4)")


def _bindings() -> list[tuple[object, str, object]]:
    """Every (namespace, attribute, value) a tracer would rebind."""
    tracer = ledger_trace.Tracer()
    tracer.install()
    found = [(ns, key, original) for ns, key, original in tracer._undo]
    tracer.uninstall()
    return found


def test_traced_runs() -> None:
    defaults = [tuple(r) for r in Database().settings_table().rows()]
    bindings = _bindings()
    check(len(bindings) >= len(ledger_trace.TARGETS), "every target resolves to a binding")
    for name, rows in TINY_ROWS.items():
        workload = workloads.WORKLOADS[name](rows=rows)
        workload.checkpoint_every = 2
        tables = workload.generate(1)
        try:
            with contextlib.redirect_stdout(io.StringIO()):  # the full report is not the point
                result = run._run_traced(workload, tables, 1, TINY_SECONDS, ledger_trace)
        finally:
            workload.cleanup()
        check(result["correct"] and result["failed"] == 0,
              f"{name}: tiny traced run correct, counts identical traced vs untraced"
              + "".join(f"\n        {e}" for e in result["errors"]))
        wall = result["traced_wall_ms"]
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        closed = sum(metrics[f"{layer}.self_ms"] for layer in ledger_trace.LAYERS) \
            + metrics["driver.unattributed_ms"]
        check(abs(closed - wall) <= 0.02 * wall, f"{name}: layer self times + unattributed = wall")
        check(all(getattr(ns, key) is original for ns, key, original in bindings),
              f"{name}: wrappers fully removed")
        check([tuple(r) for r in Database().settings_table().rows()] == defaults,
              f"{name}: config singletons back at their defaults")


def test_manifest() -> None:
    manifest = json.loads((run.REPO / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    check(end_to_end == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end = runner's metrics")
    check(per_layer == run.per_layer_units(), "BENCHMARK.json per_layer = runner's metrics")
    check([w["name"] for w in manifest["workloads"]] == list(run.WORKLOAD_NAMES)
          and set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS),
          "BENCHMARK.json workloads = runner's workloads")
    check(manifest["run_seconds"] == run.NOMINAL_SECONDS, "run_seconds = nominal seconds")


def main() -> int:
    for test in (test_determinism, test_span_arithmetic, test_percentile_rule,
                 test_manifest, test_traced_runs):
        test()
    print(f"{check.failures} failure(s)")
    return 1 if check.failures else 0


if __name__ == "__main__":
    sys.exit(main())
