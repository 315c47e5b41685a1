"""The perf ledger's one command.

    python3 benchmarks/ledger/run.py --workload W --seed S --seconds T --trace 0|1 [--out FILE]
    python3 benchmarks/ledger/run.py --seed S [--traced] [--out FILE]     # all four workloads
    python3 benchmarks/ledger/run.py compare A B

A run generates its data and session script from the seed, drives the
session through ``Database``, checks outputs against NumPy oracles and
the reference configuration, prints every metric by name with its unit,
and ends with one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` measures for ``--seconds`` seconds and
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` runs
a fixed window of the same session twice — untraced, then with
:mod:`trace` installed — and reports the per-layer metrics.  See
``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
#: ``run_seconds`` of BENCHMARK.json; traced windows are sized for it
NOMINAL_SECONDS = 15
#: set-up is repeated at least this often, and cheap set-ups until they
#: have run for SETUP_MIN_SECONDS in total, so its median is steady
SETUP_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 40
RECOVERY_CYCLES = 5
WORKLOAD_NAMES = ("crossfilter_scan", "drilldown_small", "ingest_explore", "sharded_mmap")

END_TO_END_UNITS = {
    "setup_s": "s",
    "interaction_p50_ms": "ms",
    "interaction_tail_ms": "ms",
    "interactions_per_s": "1/s",
    "stmt_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

#: ``repro.obs`` counters reported as deltas around the traced window
COUNTS = (
    "plan_cache.hits", "plan_cache.misses", "optimizer.rewrites",
    "scan.zones_pruned", "scan.zones_passed", "scan.dict_filters",
    "parallel.morsels", "parallel.batches",
    "shard.tasks", "shard.shards_pruned",
    "io.bytes_read", "io.zones_skipped_io", "io.morsels_streamed",
    "wal.appends", "wal.bytes", "wal.fsyncs",
    "write.merges", "write.merge_rows", "write.checkpoints",
    "recovery.records_replayed", "resilience.retries",
)
RATIOS = ("plan_cache.hit_ratio", "scan.zone_prune_ratio", "shard.prune_ratio",
          "wal.bytes_per_user_byte")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    import sessions
    import trace as ledger_trace

    units: dict[str, str] = {}
    for name in ledger_trace.NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
    for layer in ledger_trace.LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units["driver.unattributed_ms"] = "ms"
    units["driver.tracing_overhead_ratio"] = "ratio"
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({
        "session.tr500_violation_share": "ratio",
        "session.interaction_p95_ms": "ms",
        "session.stmt_p50_ms": "ms",
        "session.write_max_ms": "ms",
        "session.recovery_s": "s",
        "session.stored_bytes_per_user_byte": "ratio",
    })
    for view in sessions.CROSSFILTER_VIEWS:
        units[f"session.view.{view}.p50_ms"] = "ms"
    return units


# -- one workload, in this process ---------------------------------------------------


def _prepare_imports() -> None:
    """Scrub ``REPRO_*`` (the engine's config singletons read the
    environment at import) and make the repo's package importable."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(REPO / "src"))


def _filesystem_of(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                _dev, mount, fstype = line.split()[:3]
                if str(path).startswith(mount) and len(mount) > len(best):
                    best, kind = mount, fstype
    except OSError:
        pass
    return kind


def _provenance(seed: int, settings) -> dict:
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    rows = [list(row) for row in settings.rows()]
    return {
        "git_sha": sha,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "durable_dir_filesystem": _filesystem_of(OUT),
        "wal_sync": next(value for name, value, _source in rows if name == "wal_sync"),
        "settings": rows,
    }


def _durability_note(provenance: dict) -> str:
    return (f"durable dirs on {provenance['durable_dir_filesystem']}, "
            f"wal_sync={provenance['wal_sync']}")


def _ms(seconds: float) -> float:
    return seconds * 1e3


def _end_to_end(workload, phase, setups: list[float], rss_mb: float) -> dict[str, float]:
    from stats import percentile

    return {
        "setup_s": statistics.median(setups),
        "interaction_p50_ms": _ms(percentile(phase.interactions, 50)),
        "interaction_tail_ms": _ms(percentile(phase.interactions, workload.tail)),
        "interactions_per_s": len(phase.interactions) / phase.wall,
        "stmt_tail_ms": _ms(percentile(phase.statements, workload.statement_tail)),
        "peak_rss_mb": rss_mb,
    }


def _per_layer(plain, traced, tracer, session) -> dict[str, float]:
    """Per-layer metrics: spans and counts from the traced half,
    latency diagnostics from the untraced half."""
    import sessions
    import trace as ledger_trace
    from stats import percentile

    metrics = ledger_trace.summarize(tracer.threads, _ms(traced.wall))
    metrics["driver.tracing_overhead_ratio"] = (
        (len(traced.interactions) / traced.wall) / (len(plain.interactions) / plain.wall)
    )
    counts = traced.counts
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    hits, misses = counts.get("plan_cache.hits", 0), counts.get("plan_cache.misses", 0)
    pruned, tasks = counts.get("shard.shards_pruned", 0), counts.get("shard.tasks", 0)
    user_bytes = getattr(session, "user_bytes", 0)
    metrics["plan_cache.hit_ratio"] = ratio(hits, hits + misses)
    metrics["scan.zone_prune_ratio"] = ratio(
        counts.get("scan.zones_pruned", 0), tracer.zones_examined
    )
    metrics["shard.prune_ratio"] = ratio(pruned, pruned + tasks)
    metrics["wal.bytes_per_user_byte"] = ratio(counts.get("wal.bytes", 0), user_bytes)
    metrics["session.tr500_violation_share"] = ratio(
        sum(1 for t in plain.interactions if t > 0.5), len(plain.interactions)
    )
    metrics["session.interaction_p95_ms"] = _ms(percentile(plain.interactions, 95))
    metrics["session.stmt_p50_ms"] = _ms(percentile(plain.statements, 50))
    metrics["session.write_max_ms"] = _ms(max(plain.writes, default=0.0))
    metrics["session.recovery_s"] = (
        statistics.median(plain.recoveries) if plain.recoveries else 0.0
    )
    metrics["session.stored_bytes_per_user_byte"] = (
        ratio(plain.stored_bytes, session.live_user_bytes()) if plain.stored_bytes else 0.0
    )
    for view in sessions.CROSSFILTER_VIEWS:
        times = plain.views.get(view)
        metrics[f"session.view.{view}.p50_ms"] = _ms(percentile(times, 50)) if times else 0.0
    return metrics


def _print_report(workload, metrics, units, phase, notes: list[str]) -> None:
    from stats import percentile, supported_percentile

    print(f"== {workload.name}: {workload.why}")
    for note in notes:
        print(f"   {note}")
    n_int, n_stmt = len(phase.interactions), len(phase.statements)
    print(f"   samples: {n_int} interactions (tail reported p{workload.tail:g}, "
          f"supported p{supported_percentile(n_int):g}), {n_stmt} statements "
          f"(tail reported p{workload.statement_tail:g}, supported "
          f"p{supported_percentile(n_stmt):g})")
    for view, times in phase.views.items():
        print(f"   view {view:<14} n={len(times):<7} p50={_ms(percentile(times, 50)):.3f} ms")
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>16.6f}  {units[name]}")
    for error in phase.errors:
        print(f"   FAILED: {error}")


def _print_layer_table(metrics: dict[str, float], wall_ms: float) -> None:
    import trace as ledger_trace

    print("   share of traced session wall by layer (self time, driver thread):")
    rows = [(layer, metrics[f"{layer}.self_ms"]) for layer in ledger_trace.LAYERS]
    rows.append(("driver.unattributed", metrics["driver.unattributed_ms"]))
    for layer, ms in rows:
        print(f"   {layer:<22} {ms:>12.2f} ms  {100.0 * ms / wall_ms:6.2f} %")
    total = sum(ms for _layer, ms in rows)
    print(f"   {'sum':<22} {total:>12.2f} ms  of {wall_ms:.2f} ms wall")


def run_workload(name: str, seed: int, seconds: float, trace: int, out: str | None) -> int:
    _prepare_imports()
    import trace as ledger_trace
    import workloads

    workload = workloads.WORKLOADS[name]()
    tables = workload.generate(seed)
    try:
        if trace:
            result = _run_traced(workload, tables, seed, seconds, ledger_trace)
        else:
            result = _run_plain(workload, tables, seed, seconds)
    finally:
        workload.cleanup()
    result.update(workload=name, seed=seed, seconds=seconds, trace=trace)
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(result, indent=1))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
    }))
    return 0 if result["correct"] else 1


def _result(workload, phase, metrics, units, provenance, extra=None) -> dict:
    return {
        "correct": phase.failed == 0,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        "samples": {"interactions": len(phase.interactions),
                    "statements": len(phase.statements)},
        "errors": phase.errors,
        "provenance": provenance,
        **(extra or {}),
    }


def _run_plain(workload, tables, seed: int, seconds: float) -> dict:
    """End-to-end: set up (several times, median billed), measure for
    ``seconds``, then check outputs."""
    setups, db = [], None
    while len(setups) < SETUP_REPEATS or (
        sum(setups) < SETUP_MIN_SECONDS and len(setups) < SETUP_MAX_REPEATS
    ):
        if db is not None:
            db.close()
        start = time.perf_counter()
        db = workload.setup(tables)
        setups.append(time.perf_counter() - start)
    provenance = _provenance(seed, db.settings_table())
    session = workload.session(seed, tables)
    phase = workload.drive(
        db, session,
        lambda done, elapsed: elapsed >= seconds and done % workload.cycle == 0,
    )
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workload.check(db, seed, tables, phase, session)
    db.close()
    metrics = _end_to_end(workload, phase, setups, rss_mb)
    _print_report(workload, metrics, END_TO_END_UNITS, phase, [
        f"seed {seed}, measured {phase.wall:.2f} s of front-door time, "
        f"set-up x{len(setups)}: median {statistics.median(setups):.3f} s "
        f"(min {min(setups):.3f}, max {max(setups):.3f})",
        _durability_note(provenance),
    ])
    return _result(workload, phase, metrics, END_TO_END_UNITS, provenance)


def _run_traced(workload, tables, seed: int, seconds: float, ledger_trace) -> dict:
    """Per-layer: the same fixed window of the session untraced, then
    traced on a fresh database; counts must repeat exactly."""
    cycles = max(1, round(workload.window * seconds / NOMINAL_SECONDS / workload.cycle))
    window = cycles * workload.cycle

    def stop(done, _elapsed):
        return done >= window

    db = workload.setup(tables)
    provenance = _provenance(seed, db.settings_table())
    plain = workload.drive(db, workload.session(seed, tables), stop, cycles=RECOVERY_CYCLES)
    db.close()
    db = workload.setup(tables)
    tracer = ledger_trace.Tracer()
    session = workload.session(seed, tables)
    traced = workload.drive(db, session, stop, tracer=tracer, cycles=RECOVERY_CYCLES)
    # the run's verdict covers both halves, plus the count comparison itself
    traced.attempted += plain.attempted + 1
    traced.failed += plain.failed
    traced.errors = plain.errors + traced.errors
    drift = {k: (plain.counts.get(k, 0), traced.counts.get(k, 0)) for k in COUNTS
             if plain.counts.get(k, 0) != traced.counts.get(k, 0)}
    if drift:
        traced.fail(f"counts differ between the untraced and traced halves: {drift}")
    workload.check(db, seed, tables, traced, session)
    db.close()
    units = per_layer_units()
    metrics = _per_layer(plain, traced, tracer, session)
    metrics = {name: metrics[name] for name in units}
    OUT.mkdir(parents=True, exist_ok=True)
    spans = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(str(spans), {"workload": workload.name, "seed": seed, "window": window})
    _print_report(workload, metrics, units, plain, [
        f"seed {seed}, window {window} interactions twice: untraced {plain.wall:.2f} s, "
        f"traced {traced.wall:.2f} s; spans in {spans.relative_to(REPO)}",
        _durability_note(provenance),
    ])
    _print_layer_table(metrics, _ms(traced.wall))
    return _result(workload, traced, metrics, units, provenance,
                   {"traced_wall_ms": _ms(traced.wall)})


# -- all workloads, each in a fresh subprocess ---------------------------------------


def run_all(seed: int, seconds: float, trace: int, out: str | None) -> int:
    """Each workload in its own process: the engine's config singletons
    are process-wide and would otherwise leak between workloads."""
    results, code = [], 0
    OUT.mkdir(parents=True, exist_ok=True)
    for name in WORKLOAD_NAMES:
        part = OUT / f"result-{name}-seed{seed}-trace{trace}.json"
        part.unlink(missing_ok=True)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--out", str(part)],
            stdout=subprocess.PIPE, text=True,
        )
        print("\n".join(done.stdout.splitlines()[:-1]))
        code = code or done.returncode
        if part.exists():
            results.append(json.loads(part.read_text()))
    if out:
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        Path(out).write_text(json.dumps(results, indent=1))
    print(json.dumps({
        "correct": bool(results) and len(results) == len(WORKLOAD_NAMES)
        and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {f"{r['workload']}.{n}": m for r in results
                    for n, m in r["metrics"].items()},
    }))
    return code


# -- compare -------------------------------------------------------------------------


def _load_results(path: str) -> list[dict]:
    target = Path(path)
    files = sorted(target.glob("*.json")) if target.is_dir() else [target]
    results: list[dict] = []
    for file in files:
        doc = json.loads(file.read_text())
        results.extend(doc if isinstance(doc, list) else [doc])
    return [r for r in results if "workload" in r and not r.get("trace")]


def compare(a: str, b: str) -> int:
    """Per workload x end-to-end metric: each side's median and quartiles,
    the bound, and a verdict.  Non-zero exit on any ``worse``."""
    sys.path.insert(0, str(HERE))
    from stats import quartile_summary

    manifest = json.loads((REPO / "BENCHMARK.json").read_text())
    sides = [_load_results(a), _load_results(b)]
    worse = False
    header = (f"{'workload':<18}{'metric':<22}{'A q1/med/q3':>34}{'B q1/med/q3':>34}"
              f"{'bound':>7}{'change':>9}  verdict")
    print(header)
    for name in WORKLOAD_NAMES:
        for spec in manifest["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            values = [
                [r["metrics"][metric]["value"] for r in side if r["workload"] == name]
                for side in sides
            ]
            if not values[0] or not values[1]:
                continue
            (a1, am, a3, a_spread), (b1, bm, b3, b_spread) = map(quartile_summary, values)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            change = sign * (bm - am) / am  # positive = B is worse
            if sign > 0:
                clean_win = max(values[1]) < min(values[0])
            else:
                clean_win = min(values[1]) > max(values[0])
            if max(a_spread, b_spread) > bound:
                verdict = "better" if clean_win else "unresolved"
            elif change > bound:
                verdict = "worse"
            elif change < -bound:
                verdict = "better"
            else:
                verdict = "same"
            worse = worse or verdict == "worse"
            print(f"{name:<18}{metric:<22}"
                  f"{f'{a1:.4g}/{am:.4g}/{a3:.4g} (n={len(values[0])})':>34}"
                  f"{f'{b1:.4g}/{bm:.4g}/{b3:.4g} (n={len(values[1])})':>34}"
                  f"{bound:>7.2f}{change:>+9.3f}  {verdict}")
    return 1 if worse else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            print("usage: run.py compare A B", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", help="also write the full result (with provenance) here")
    args = parser.parse_args(argv)
    trace = 1 if args.traced else args.trace
    sys.path.insert(0, str(HERE))
    if args.workload is None:
        return run_all(args.seed, args.seconds, trace, args.out)
    return run_workload(args.workload, args.seed, args.seconds, trace, args.out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
