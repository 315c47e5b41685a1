"""Partitioned adaptive indexing (HAIL / adaptive indexing in Hadoop [53]).

Big-data engines process data in *blocks/partitions*; [53] shows adaptive
indexing drops into that model naturally: each partition keeps cheap
min/max statistics (zone maps) for pruning, and builds its own adaptive
index incrementally as queries touch it.  Cold partitions never pay any
indexing cost; hot partitions converge like a normal cracker column.

:class:`PartitionedAdaptiveIndex` implements that block-local behaviour
and satisfies the engine's ``RangeIndex`` protocol, so it can serve as a
drop-in scan accelerator for partition-resident tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.indexing.cracking import CrackerIndex, CrackingVariant


@dataclass
class PartitionStats:
    """Zone-map entry for one partition."""

    start: int
    end: int
    min_value: Any
    max_value: Any
    queries_touched: int = 0


class PartitionedAdaptiveIndex:
    """Per-partition cracker indexes behind a zone map.

    Args:
        values: the column payload.
        partition_size: rows per partition (the HDFS-block analogue).
        variant: cracking variant used inside partitions.
        seed: RNG seed for stochastic variants.
    """

    def __init__(
        self,
        values: np.ndarray,
        partition_size: int = 65_536,
        variant: CrackingVariant | str = CrackingVariant.STANDARD,
        seed: int = 0,
    ) -> None:
        if partition_size <= 0:
            raise ValueError("partition_size must be positive")
        values = np.asarray(values)
        self.partition_size = partition_size
        self._stats: list[PartitionStats] = []
        self._crackers: dict[int, CrackerIndex] = {}
        self._values = values
        self._variant = variant
        self._seed = seed
        for start in range(0, len(values), partition_size):
            end = min(start + partition_size, len(values))
            chunk = values[start:end]
            self._stats.append(
                PartitionStats(
                    start=start,
                    end=end,
                    # exact Python scalars: as floats, INT64 bounds beyond
                    # 2**53 would prune partitions holding qualifying rows
                    min_value=chunk.min().item(),
                    max_value=chunk.max().item(),
                )
            )
        self.partitions_pruned = 0
        self.partitions_scanned = 0
        self.work_touched = 0

    @property
    def num_partitions(self) -> int:
        """Partitions in the zone map."""
        return len(self._stats)

    @property
    def partitions_indexed(self) -> int:
        """Partitions that have built (any) adaptive index so far."""
        return len(self._crackers)

    def reset_counters(self) -> None:
        """Zero the work counters."""
        self.partitions_pruned = 0
        self.partitions_scanned = 0
        self.work_touched = 0
        for cracker in self._crackers.values():
            cracker.reset_counters()

    def _cracker_for(self, partition: int) -> CrackerIndex:
        if partition not in self._crackers:
            stats = self._stats[partition]
            self._crackers[partition] = CrackerIndex(
                self._values[stats.start : stats.end],
                variant=self._variant,
                seed=self._seed + partition,
            )
        return self._crackers[partition]

    def lookup_range(
        self,
        low: Any,
        high: Any,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> np.ndarray:
        """Global row positions in range; prunes partitions via the zone
        map and cracks only the touched partitions."""
        chunks: list[np.ndarray] = []
        for partition, stats in enumerate(self._stats):
            if low is not None and (
                stats.max_value < low or (stats.max_value == low and not low_inclusive)
            ):
                self.partitions_pruned += 1
                continue
            if high is not None and (
                stats.min_value > high
                or (stats.min_value == high and not high_inclusive)
            ):
                self.partitions_pruned += 1
                continue
            self.partitions_scanned += 1
            stats.queries_touched += 1
            cracker = self._cracker_for(partition)
            before = cracker.work_touched
            local = cracker.lookup_range(low, high, low_inclusive, high_inclusive)
            self.work_touched += cracker.work_touched - before
            if len(local):
                chunks.append(local + stats.start)
        if not chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(chunks)

    def hot_partitions(self, k: int = 5) -> list[PartitionStats]:
        """The k most frequently touched partitions."""
        ranked = sorted(self._stats, key=lambda s: -s.queries_touched)
        return ranked[:k]
