"""Hybrid adaptive indexing: crack-crack / crack-sort ([33]).

The hybrids of Idreos et al. split the column into initial *partitions*
(modelling the chunks in which data arrives or fits in memory).  Per query:

1. In each partition, the qualifying key range is located *adaptively* —
   either by cracking the partition (``crack`` flavour) or by fully sorting
   it on first touch (``sort`` flavour).
2. Qualifying keys are *merged out* of the partitions into a final,
   incrementally growing sorted index; later queries that hit already
   merged ranges are answered from the final index alone.

The practical upshot, reproduced by the S3 benchmark: hybrids pay modest
per-query costs early (like cracking) yet converge to full-index speed
much faster (like sort), because merged ranges never get touched again.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from repro.indexing.cracking import CrackerIndex, CrackingVariant


class _SortedRun:
    """The final index: a growing sorted run of (value, position) pairs,
    in the column's own dtype."""

    def __init__(self, dtype: np.dtype) -> None:
        self.values = np.empty(0, dtype=dtype)
        self.positions = np.empty(0, dtype=np.int64)

    def merge(self, values: np.ndarray, positions: np.ndarray) -> int:
        """Merge new pairs in; returns elements touched."""
        if len(values) == 0:
            return 0
        order = np.argsort(values, kind="stable")
        new_values = values[order]
        new_positions = positions[order]
        insert_at = np.searchsorted(self.values, new_values)
        self.values = np.insert(self.values, insert_at, new_values)
        self.positions = np.insert(self.positions, insert_at, new_positions)
        return len(values) + int(math.log2(max(2, len(self.values)))) * len(values)

    def lookup(
        self, low: Any, high: Any, low_inclusive: bool, high_inclusive: bool
    ) -> tuple[np.ndarray, int]:
        """Positions in range plus elements touched."""
        n = len(self.values)
        start, end = 0, n
        if low is not None:
            start = int(np.searchsorted(self.values, low, side="left" if low_inclusive else "right"))
        if high is not None:
            end = int(np.searchsorted(self.values, high, side="right" if high_inclusive else "left"))
        end = max(end, start)
        touched = int(2 * max(1.0, math.log2(max(2, n)))) + (end - start) if n else 0
        return self.positions[start:end].copy(), touched


class HybridCrackSortIndex:
    """Hybrid adaptive index with crack or sort initial-partition handling.

    Args:
        values: column payload.
        num_partitions: how many initial partitions to split into.
        flavour: ``"crack"`` (hybrid crack-crack: partitions are cracked)
            or ``"sort"`` (hybrid sort-sort: a partition is fully sorted the
            first time a query touches it).
    """

    def __init__(
        self,
        values: np.ndarray,
        num_partitions: int = 16,
        flavour: str = "crack",
    ) -> None:
        if flavour not in ("crack", "sort"):
            raise ValueError(f"unknown hybrid flavour {flavour!r}")
        self.flavour = flavour
        values = np.asarray(values)
        n = len(values)
        bounds = np.linspace(0, n, num_partitions + 1, dtype=np.int64)
        self._partitions: list[_Partition] = []
        for i in range(num_partitions):
            lo, hi = int(bounds[i]), int(bounds[i + 1])
            if hi > lo:
                self._partitions.append(_Partition(values[lo:hi], base_offset=lo, flavour=flavour))
        self._final = _SortedRun(values.dtype)
        # ranges already merged into the final index, as a sorted list of
        # disjoint intervals of bound keys (:func:`_bounds`)
        self._merged: list[tuple[tuple, tuple]] = []
        self.work_touched = 0

    def reset_counters(self) -> None:
        """Zero the work counter."""
        self.work_touched = 0

    def lookup_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row positions in range; merges newly touched ranges into the
        final sorted index as a side effect."""
        lo_key, hi_key = _bounds(low, high, low_inclusive, high_inclusive)
        if not self._covered(lo_key, hi_key):
            moved_values: list[np.ndarray] = []
            moved_positions: list[np.ndarray] = []
            for partition in self._partitions:
                vals, poss, touched = partition.extract(
                    low, high, low_inclusive, high_inclusive
                )
                self.work_touched += touched
                if len(vals):
                    moved_values.append(vals)
                    moved_positions.append(poss)
            if moved_values:
                self.work_touched += self._final.merge(
                    np.concatenate(moved_values), np.concatenate(moved_positions)
                )
            self._remember(lo_key, hi_key)
        positions, touched = self._final.lookup(low, high, low_inclusive, high_inclusive)
        self.work_touched += touched
        return positions

    # -- merged-range bookkeeping ----------------------------------------------------

    def _covered(self, lo: tuple, hi: tuple) -> bool:
        return any(mlo <= lo and hi <= mhi for mlo, mhi in self._merged)

    def _remember(self, lo: tuple, hi: tuple) -> None:
        intervals = self._merged + [(lo, hi)]
        intervals.sort()
        merged: list[tuple[tuple, tuple]] = []
        for interval in intervals:
            # contiguous when it starts no later than just past the last
            # one's end: [a, b) and [b, c) join, [a, b) and (b, c) do not
            if merged and interval[0] <= (merged[-1][1][0], merged[-1][1][1] + 1):
                merged[-1] = (merged[-1][0], max(merged[-1][1], interval[1]))
            else:
                merged.append(interval)
        self._merged = merged


def _bounds(low: Any, high: Any, low_inclusive: bool, high_inclusive: bool) -> tuple:
    """A range as two ``(value, side)`` keys, ordered so that ``x`` lies
    in it iff ``lo <= (x, 0) <= hi``: an exclusive low bound sits just
    above its value (side 1), an exclusive high one just below (side -1).
    The values stay exact — as floats, INT64 bounds beyond 2**53 would
    claim ranges covered that were never merged."""
    lo = (-math.inf, 0) if low is None else (low, 0 if low_inclusive else 1)
    hi = (math.inf, 0) if high is None else (high, 0 if high_inclusive else -1)
    return lo, hi


class _Partition:
    """One initial partition, organised adaptively."""

    def __init__(self, values: np.ndarray, base_offset: int, flavour: str) -> None:
        self._flavour = flavour
        self._base_offset = base_offset
        self._live = np.ones(len(values), dtype=bool)  # not yet merged out
        if flavour == "crack":
            self._cracker = CrackerIndex(values, variant=CrackingVariant.STANDARD)
            self._values = values
        else:
            self._values = np.asarray(values)
            self._order: np.ndarray | None = None
            self._sorted: np.ndarray | None = None

    def extract(
        self, low: Any, high: Any, low_inclusive: bool, high_inclusive: bool
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Remove and return qualifying (values, base positions); plus work."""
        if self._flavour == "crack":
            before = self._cracker.work_touched
            local = self._cracker.lookup_range(low, high, low_inclusive, high_inclusive)
            touched = self._cracker.work_touched - before
        else:
            touched = 0
            if self._sorted is None:
                self._order = np.argsort(self._values, kind="stable")
                self._sorted = self._values[self._order]
                n = len(self._values)
                touched += int(n * max(1.0, math.log2(max(2, n))))
            start, end = 0, len(self._sorted)
            if low is not None:
                start = int(np.searchsorted(self._sorted, low, side="left" if low_inclusive else "right"))
            if high is not None:
                end = int(np.searchsorted(self._sorted, high, side="right" if high_inclusive else "left"))
            end = max(end, start)
            local = self._order[start:end]
            touched += end - start
        fresh = local[self._live[local]]
        self._live[fresh] = False
        return self._values[fresh], fresh.astype(np.int64) + self._base_offset, touched
