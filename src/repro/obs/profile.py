"""Profiled plan execution: per-node wall time, row counts, bytes touched.

The executor stays profiling-free by default; when a :class:`PlanProfiler`
is passed in, it brackets every plan node with ``enter``/``exit`` calls
and the profiler assembles a :class:`NodeProfile` tree mirroring the plan.
:class:`ExplainAnalyzeReport` renders that tree the way ``EXPLAIN
ANALYZE`` does in a conventional engine.

This module deliberately knows nothing about the engine's node or table
classes beyond two duck-typed surfaces: nodes answer ``label()`` and
tables answer ``num_rows`` plus ``column(name)``/``column_names`` (used
to estimate payload bytes).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any


def table_nbytes(table: Any) -> int:
    """Estimated payload bytes of a table: data plus validity arrays.

    A STRING column counts its int32 codes, not its dictionary — a
    stable lower bound that keeps the estimate cheap.
    """
    total = 0
    for name in table.column_names:
        column = table.column(name)
        encoded = column.dictionary()
        total += int((column.data if encoded is None else encoded[0]).nbytes)
        if column.validity is not None:
            total += int(column.validity.nbytes)
    return total


@dataclass
class NodeProfile:
    """Measured execution of one plan node.

    ``wall_s`` includes time spent in child nodes; ``self_s`` is the
    node's own work.  ``rows_in``/``bytes_in`` sum over the node's inputs
    (child results plus any base tables it read directly).
    """

    label: str
    wall_s: float
    self_s: float
    rows_in: int
    rows_out: int
    bytes_in: int
    bytes_out: int
    children: list["NodeProfile"] = field(default_factory=list)
    annotations: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering of the subtree."""
        return {
            "label": self.label,
            "wall_s": self.wall_s,
            "self_s": self.self_s,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "annotations": list(self.annotations),
            "children": [c.as_dict() for c in self.children],
        }


class _Frame:
    __slots__ = (
        "node", "start_s", "child_wall_s", "rows_in", "bytes_in", "children",
        "annotations",
    )

    def __init__(self, node: Any) -> None:
        self.node = node
        self.start_s = 0.0
        self.child_wall_s = 0.0
        self.rows_in = 0
        self.bytes_in = 0
        self.children: list[NodeProfile] = []
        self.annotations: list[str] = []


class PlanProfiler:
    """Collects a :class:`NodeProfile` tree during one plan execution."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self.root: NodeProfile | None = None

    def enter(self, node: Any) -> None:
        """Begin measuring ``node`` (children recorded between enter/exit
        nest under it)."""
        frame = _Frame(node)
        self._stack.append(frame)
        frame.start_s = time.perf_counter()

    def exit(self, node: Any, result: Any) -> None:
        """Finish measuring ``node``, which produced ``result``."""
        end_s = time.perf_counter()
        frame = self._stack.pop()
        assert frame.node is node, "profiler enter/exit mismatch"
        wall_s = end_s - frame.start_s
        bytes_out = table_nbytes(result)
        profile = NodeProfile(
            label=node.label(),
            wall_s=wall_s,
            self_s=max(0.0, wall_s - frame.child_wall_s),
            rows_in=frame.rows_in,
            rows_out=result.num_rows,
            bytes_in=frame.bytes_in,
            bytes_out=bytes_out,
            children=frame.children,
            annotations=frame.annotations,
        )
        if self._stack:
            parent = self._stack[-1]
            parent.children.append(profile)
            parent.child_wall_s += wall_s
            parent.rows_in += result.num_rows
            parent.bytes_in += bytes_out
        else:
            self.root = profile

    def note_input(self, rows: int, nbytes: int) -> None:
        """Credit a direct base-table read to the current node (scans and
        the build side of joins, which bypass child plan nodes)."""
        if self._stack:
            frame = self._stack[-1]
            frame.rows_in += rows
            frame.bytes_in += nbytes

    def annotate(self, text: str) -> None:
        """Attach a free-form note to the current node (e.g. the task
        fan-out of a pooled scan); rendered after the node's
        measurements in the EXPLAIN ANALYZE report."""
        if self._stack:
            self._stack[-1].annotations.append(text)


@dataclass
class ExplainAnalyzeReport:
    """The result of profiled execution, renderable as text or JSON."""

    root: NodeProfile
    notes: list[str] = field(default_factory=list)

    @property
    def total_s(self) -> float:
        """End-to-end plan wall time."""
        return self.root.wall_s

    def lines(self) -> list[str]:
        """Indented per-node lines, root first."""
        out: list[str] = []

        def walk(profile: NodeProfile, depth: int) -> None:
            suffix = "".join(f" [{a}]" for a in profile.annotations)
            out.append(
                "  " * depth
                + f"{profile.label}  "
                + f"(time={profile.wall_s * 1e3:.3f}ms self={profile.self_s * 1e3:.3f}ms "
                + f"rows={profile.rows_in}->{profile.rows_out} "
                + f"bytes={profile.bytes_in}->{profile.bytes_out})"
                + suffix
            )
            for child in profile.children:
                walk(child, depth + 1)

        walk(self.root, 0)
        for note in self.notes:
            out.append(f"note: {note}")
        out.append(f"total time: {self.total_s * 1e3:.3f}ms")
        return out

    def render(self) -> str:
        """The full report as one newline-joined string."""
        return "\n".join(self.lines())

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready rendering."""
        return {
            "total_s": self.total_s,
            "notes": list(self.notes),
            "plan": self.root.as_dict(),
        }
