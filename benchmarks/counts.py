"""The perf ledger's logical work as one committed, exact file.

    python3 benchmarks/counts.py                 # rewrite BENCH_counts.json
    python3 benchmarks/counts.py --repeat 5      # run each workload 5 times, list what varies
    python3 benchmarks/counts.py --out FILE      # write FILE instead

Runs ``benchmarks/ledger/run.py --workload W --seed 1 --trace 1`` in a
subprocess per workload and keeps, from the JSON line it ends with,
every metric whose unit is ``count`` plus ``correct``, ``attempted`` and
``failed``.  The traced window is a fixed number of interactions, so
these are logical work — calls, rows, bytes, rewrites — not time, and
two runs of the same code write the same bytes: CI regenerates the file
and fails on any diff, so a change that moves a count commits the new
file and the diff names the rows it moved.

A count that differs between runs of the same code is listed in
:data:`VARYING` with its reason and left out of the file; it is never
rounded or given a tolerance.  ``--repeat N`` runs each workload N times
and exits non-zero when a kept count varies.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
RUN = REPO / "benchmarks" / "ledger" / "run.py"
OUT = REPO / "BENCH_counts.json"
WORKLOADS = ("crossfilter_scan", "drilldown_small", "ingest_explore", "sharded_mmap")
SEED = 1
#: ``workload.metric`` -> why it differs between runs of the same code;
#: five runs per workload found none
VARYING: dict[str, str] = {}


def measure(workload: str) -> dict:
    """One traced seed-1 run of ``workload``: its verdict and its counts."""
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED), "--trace", "1"],
        cwd=REPO, stdout=subprocess.PIPE, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload}: run.py printed nothing (exit {done.returncode})")
    last = json.loads(lines[-1])
    counts = {
        name: metric["value"]
        for name, metric in last["metrics"].items()
        if metric["unit"] == "count" and f"{workload}.{name}" not in VARYING
    }
    return {
        "correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
        "counts": dict(sorted(counts.items())),
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", default=str(OUT))
    args = parser.parse_args(argv)
    workloads, varies = {}, []
    for workload in WORKLOADS:
        runs = [measure(workload) for _ in range(args.repeat)]
        for name in runs[0]["counts"]:
            values = [run["counts"].get(name) for run in runs]
            if len(set(values)) > 1:
                varies.append(f"{workload}.{name}: {values}")
        workloads[workload] = runs[0]
        print(f"{workload}: correct={runs[0]['correct']} failed={runs[0]['failed']} "
              f"{len(runs[0]['counts'])} counts x {args.repeat} runs", file=sys.stderr)
    document = {
        "command": f"python3 benchmarks/ledger/run.py --workload W --seed {SEED} --trace 1",
        "varying": VARYING,
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for line in varies:
        print(f"varies: {line}", file=sys.stderr)
    correct = all(run["correct"] for run in workloads.values())
    return 0 if correct and not varies else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
