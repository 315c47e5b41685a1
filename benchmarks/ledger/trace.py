"""Outside-in tracing: spans around the engine's public layer boundaries.

Nothing under ``src/`` knows about this file.  :class:`Tracer.install`
wraps each callable in :data:`TARGETS` by rebinding its attribute on the
owning module or class *and* on every ``repro`` module that imported it
by name (``from repro.engine.expressions import truth_mask`` leaves a
second reference in ``executor``), and :meth:`Tracer.uninstall` puts the
originals back.  Each call records an in-memory span — name, start, end,
parent, query id — on a per-thread list; nothing is written until
:meth:`Tracer.dump`.

Accounting (:func:`summarize`):

- ``<layer>.<callable>.calls`` / ``.busy_ms`` sum over every thread;
- ``<layer>.self_ms`` is driver-thread only: a span's duration minus the
  part covered by its child spans, summed over the layer's callables.
  Spans opened on pool threads carry the query id but have no parent, so
  they add to ``busy_ms`` and are never subtracted from anything — the
  driver-side span that waited for them keeps that wall time as its own;
- ``driver.unattributed_ms`` is the session wall not inside any root
  span, so the layers' self times plus it add up to the wall.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from importlib import import_module
from typing import Any, Sequence

import numpy as np

#: (layer, module, owner class or None, attribute)
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("sql.parser", "repro.engine.sql.parser", None, "parse"),
    ("sql.parser", "repro.engine.sql.parser", None, "parse_statement"),
    ("planner", "repro.engine.planner", None, "plan_statement"),
    ("optimizer", "repro.engine.optimizer", None, "optimize_plan"),
    ("catalog", "repro.engine.catalog", "Database", "sql"),
    ("catalog", "repro.engine.catalog", "Database", "execute"),
    ("catalog", "repro.engine.catalog", "Database", "plan"),
    ("catalog", "repro.engine.catalog", "Database", "zone_map"),
    ("catalog", "repro.engine.catalog", "Database", "statistics"),
    ("catalog", "repro.engine.catalog", "Database", "checkpoint"),
    ("executor", "repro.engine.executor", None, "execute_plan"),
    ("zonemap", "repro.engine.zonemap", None, "pruned_truth_mask"),
    ("zonemap", "repro.engine.zonemap", None, "classify_ranges"),
    ("expressions", "repro.engine.expressions", None, "truth_mask"),
    ("operators", "repro.engine.operators", None, "filter_table"),
    ("operators", "repro.engine.operators", None, "project"),
    ("operators", "repro.engine.operators", None, "hash_aggregate"),
    ("operators", "repro.engine.operators", None, "sort_table"),
    ("operators", "repro.engine.operators", None, "hash_join"),
    ("operators", "repro.engine.operators", None, "distinct"),
    ("parallel", "repro.engine.parallel", None, "parallel_truth_mask"),
    ("parallel", "repro.engine.parallel", None, "parallel_filter"),
    ("parallel", "repro.engine.parallel", None, "streamed_filter"),
    ("parallel", "repro.engine.parallel", None, "parallel_hash_aggregate"),
    ("parallel", "repro.engine.parallel", None, "fused_filter_aggregate"),
    ("parallel", "repro.engine.parallel", None, "parallel_sort"),
    ("shards", "repro.engine.shards", None, "scatter_filter"),
    ("shards", "repro.engine.shards", None, "scatter_fused_aggregate"),
    ("shards", "repro.engine.shards", None, "scatter_sort"),
    ("delta", "repro.engine.delta", None, "tail_table"),
    ("delta", "repro.engine.delta", None, "merged_table"),
    ("delta", "repro.engine.delta", None, "extend_zone_map"),
    ("delta", "repro.engine.delta", None, "extend_statistics"),
    ("wal", "repro.engine.wal", "WriteAheadLog", "append"),
    ("wal", "repro.engine.wal", None, "write_checkpoint"),
    ("wal", "repro.engine.wal", None, "load_checkpoint"),
    ("storage.layouts", "repro.storage.layouts", None, "save_column_files"),
    ("storage.layouts", "repro.storage.layouts", None, "open_column_files"),
)

#: zone-map classifiers return ``(..., num_zones)``; summed for the prune ratio
_ZONE_CLASSIFIERS = {"pruned_truth_mask", "classify_ranges"}


def span_name(layer: str, owner: str | None, attr: str) -> str:
    return f"{layer}.{owner}.{attr}" if owner else f"{layer}.{attr}"


NAMES = tuple(span_name(layer, owner, attr) for layer, _mod, owner, attr in TARGETS)
LAYERS = tuple(dict.fromkeys(layer for layer, *_rest in TARGETS))


class Tracer:
    """Installs the wrappers and owns the recorded spans."""

    def __init__(self) -> None:
        self.qid = 0  # the driver sets this before each front-door statement
        self.zones_examined = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        #: per-thread span lists: (is_driver, [[name_id, start, end, parent, qid], ...])
        self.threads: list[tuple[bool, list[list]]] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._driver = threading.get_ident()

    def _state(self) -> tuple[list[list], list[int]]:
        try:
            return self._local.state
        except AttributeError:
            state = ([], [])
            self._local.state = state
            with self._lock:
                self.threads.append((threading.get_ident() == self._driver, state[0]))
            return state

    def _wrap(self, fn, name_id: int, count_zones: bool):
        clock = time.perf_counter
        state_of = self._state

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = state_of()
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.qid]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count_zones:
                self.zones_examined += result[-1]
            return result

        return traced

    def install(self) -> None:
        """Rebind every target to its traced wrapper."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        self._driver = threading.get_ident()
        for name_id, (_layer, module_name, owner, attr) in enumerate(TARGETS):
            module = import_module(module_name)
            holder = getattr(module, owner) if owner else module
            original = vars(holder)[attr]
            traced = self._wrap(original, name_id, attr in _ZONE_CLASSIFIERS)
            namespaces = [holder] + [
                m for name, m in list(sys.modules.items())
                if m is not None and m is not holder
                and (name == "repro" or name.startswith("repro."))
            ]
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, traced)
                        self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        """Put every original back (reverse order of installation)."""
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write the raw spans (times relative to the first span) as JSON."""
        starts = [spans[0][1] for _driver, spans in self.threads if spans]
        origin = min(starts) if starts else 0.0
        doc = {
            "meta": meta,
            "names": list(NAMES),
            "span_fields": ["name", "start_ms", "end_ms", "parent", "query"],
            "threads": [
                {
                    "driver": driver,
                    "spans": [
                        [s[0], round((s[1] - origin) * 1e3, 4), round((s[2] - origin) * 1e3, 4),
                         s[3], s[4]]
                        for s in spans
                    ],
                }
                for driver, spans in self.threads
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle, separators=(",", ":"))


def self_times(durations: Sequence[float], parents: Sequence[int]) -> np.ndarray:
    """Per-span self time on one thread: duration minus direct children.

    Children of one span run one after another on the same thread and
    never overlap, so the part of a span its children cover is the sum
    of their durations.  ``parents`` holds each span's parent index on
    the same thread, or -1 for a root.
    """
    durations = np.asarray(durations, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    covered = np.zeros_like(durations)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], durations[has_parent])
    return durations - covered


def summarize(threads: Sequence[tuple[bool, list[list]]], wall_ms: float) -> dict[str, float]:
    """Per-callable calls/busy, per-layer self time, and the unattributed rest."""
    calls = np.zeros(len(NAMES), dtype=np.int64)
    busy = np.zeros(len(NAMES))
    own = np.zeros(len(NAMES))
    rooted = 0.0
    for driver, spans in threads:
        if not spans:
            continue
        table = np.array([(s[0], s[2] - s[1], s[3]) for s in spans], dtype=np.float64)
        ids = table[:, 0].astype(np.int64)
        durations = table[:, 1] * 1e3
        calls += np.bincount(ids, minlength=len(NAMES))
        busy += np.bincount(ids, weights=durations, minlength=len(NAMES))
        if driver:
            parents = table[:, 2].astype(np.int64)
            own += np.bincount(
                ids, weights=self_times(durations, parents), minlength=len(NAMES)
            )
            rooted += float(durations[parents < 0].sum())
    metrics: dict[str, float] = {}
    for name, n, ms in zip(NAMES, calls, busy):
        metrics[f"{name}.calls"] = int(n)
        metrics[f"{name}.busy_ms"] = float(ms)
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = float(
            sum(own[i] for i, target in enumerate(TARGETS) if target[0] == layer)
        )
    metrics["driver.unattributed_ms"] = wall_ms - rooted
    return metrics
