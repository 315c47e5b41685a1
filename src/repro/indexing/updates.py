"""Cracking under updates ([30]).

New values are not pushed into the cracked column eagerly: they wait in a
*pending insertions* buffer (deletions in a *pending deletions* set) and
are merged lazily, only when a query's range actually touches them — the
core idea of "Updating a Cracked Database".  A query therefore pays for
exactly the updates relevant to it, and a cold region of the domain can
accumulate updates indefinitely at zero query cost.

This implementation merges by insertion into the cracked area, shifting
crack offsets after the insertion points; the ripple optimisation of the
original paper (shuffling only piece boundaries) is approximated by
charging work proportional to the merged values plus the shifted tail.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.indexing.cracking import CrackerIndex, CrackingVariant


class UpdatableCrackerIndex:
    """A cracker index that absorbs inserts and deletes adaptively.

    Positions handed out refer to a logical, append-only row id space:
    the initial rows get ids ``0..n-1`` and every insert gets the next id.
    """

    def __init__(
        self,
        values: np.ndarray,
        variant: CrackingVariant | str = CrackingVariant.STANDARD,
        seed: int = 0,
    ) -> None:
        self._cracker = CrackerIndex(values, variant=variant, seed=seed)
        self._next_row_id = len(self._cracker)
        # pending values as exact Python scalars of the column's dtype:
        # a float would fold INT64 keys beyond 2**53 into their neighbours
        self._pending_values: list[Any] = []
        self._pending_ids: list[int] = []
        self._deleted: set[int] = set()
        self.work_touched = 0
        self.merges_performed = 0

    def __len__(self) -> int:
        return self._next_row_id - len(self._deleted)

    @property
    def pending_count(self) -> int:
        """Number of inserts waiting to be merged."""
        return len(self._pending_values)

    def reset_counters(self) -> None:
        """Zero the work counters."""
        self.work_touched = 0
        self.merges_performed = 0
        self._cracker.reset_counters()

    def insert(self, value: Any) -> int:
        """Queue one insert; returns the new row id.  O(1)."""
        row_id = self._next_row_id
        self._next_row_id += 1
        self._pending_values.append(self._cracker._values.dtype.type(value).item())
        self._pending_ids.append(row_id)
        return row_id

    def delete(self, row_id: int) -> None:
        """Queue a delete by row id.  O(1)."""
        self._deleted.add(row_id)

    def lookup_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Row ids of live values in range, merging relevant pending inserts."""
        self._merge_relevant(low, high, low_inclusive, high_inclusive)
        before = self._cracker.work_touched
        positions = self._cracker.lookup_range(low, high, low_inclusive, high_inclusive)
        self.work_touched += self._cracker.work_touched - before
        if self._deleted:
            keep = np.asarray([p not in self._deleted for p in positions], dtype=bool)
            positions = positions[keep]
        return positions

    # -- internals --------------------------------------------------------------------

    def _in_range(self, value: Any, low: Any, high: Any, low_inc: bool, high_inc: bool) -> bool:
        if low is not None and (value < low or (value == low and not low_inc)):
            return False
        if high is not None and (value > high or (value == high and not high_inc)):
            return False
        return True

    def _merge_relevant(self, low: Any, high: Any, low_inc: bool, high_inc: bool) -> None:
        if not self._pending_values:
            return
        # scanning the pending buffer is part of the query's cost
        self.work_touched += len(self._pending_values)
        hits = [
            i
            for i, v in enumerate(self._pending_values)
            if self._in_range(v, low, high, low_inc, high_inc)
        ]
        if not hits:
            return
        merge_values = np.asarray(
            [self._pending_values[i] for i in hits], dtype=self._cracker._values.dtype
        )
        merge_ids = np.asarray([self._pending_ids[i] for i in hits], dtype=np.int64)
        hit_set = set(hits)
        self._pending_values = [v for i, v in enumerate(self._pending_values) if i not in hit_set]
        self._pending_ids = [p for i, p in enumerate(self._pending_ids) if i not in hit_set]
        self._insert_into_cracker(merge_values, merge_ids)
        self.merges_performed += 1

    def _insert_into_cracker(self, values: np.ndarray, row_ids: np.ndarray) -> None:
        cracker = self._cracker
        order = np.argsort(values, kind="stable")
        values = values[order]
        row_ids = row_ids[order]
        # place each value at the start of the piece it belongs to; since
        # `values` is ascending the target offsets are non-decreasing, which
        # keeps (offset, value) pairs aligned for the shift computation
        insert_offsets = np.asarray(
            [self._target_offset(v) for v in values.tolist()], dtype=np.int64
        )
        cracker._values = np.insert(cracker._values, insert_offsets, values)
        cracker._positions = np.insert(cracker._positions, insert_offsets, row_ids)
        new_cracks = []
        for crack_value, kind, offset in cracker._cracks:
            # a crack shifts right by one for every insert that lands
            # strictly before it, plus inserts landing exactly at its
            # boundary that satisfy its predicate (values belonging to an
            # empty piece on its left side)
            shift = int(np.searchsorted(insert_offsets, offset, side="left"))
            eq_hi = int(np.searchsorted(insert_offsets, offset, side="right"))
            if eq_hi > shift:
                side = "left" if kind == 0 else "right"
                shift += int(
                    np.searchsorted(values[shift:eq_hi], crack_value, side=side)
                )
            new_cracks.append((crack_value, kind, offset + shift))
        cracker._cracks = new_cracks
        # ripple-approximate cost: merged values + log-structured shifting
        self.work_touched += len(values) + len(cracker._cracks)

    def _target_offset(self, value: Any) -> int:
        """Offset of the piece a merged value belongs in (no new cracks).

        The value goes to the *start* of its piece: the offset of the last
        crack whose predicate it fails (or 0 when it satisfies them all).
        """
        cracks = self._cracker._cracks
        for j, (crack_value, kind, offset) in enumerate(cracks):
            belongs_left = value < crack_value if kind == 0 else value <= crack_value
            if belongs_left:
                return cracks[j - 1][2] if j > 0 else 0
        return cracks[-1][2] if cracks else 0

    def is_consistent(self) -> bool:
        """Validate the underlying cracker invariants (property tests)."""
        return self._cracker.is_consistent()
