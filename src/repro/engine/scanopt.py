"""Scan-path acceleration knobs: dictionary encoding, zone maps, plan cache.

One process-wide :class:`ScanAccelConfig` instance (mirroring
:mod:`repro.engine.parallel`) gates the three techniques of the scan
acceleration layer:

- **dictionary encoding** (``dict_encode``): STRING columns carry an
  int32 code array plus a sorted value dictionary, and comparisons,
  DISTINCT, group keys and sort keys operate on codes instead of
  materialising Python strings;
- **zone maps** (``zone_rows``): per-zone min/max/null summaries let
  scans skip whole row ranges whose zone provably fails (or wholesale
  accept ranges that provably pass) a range predicate; ``zone_rows=0``
  disables skipping;
- **plan cache** (``plan_cache``): a catalog-versioned LRU keyed on SQL
  text that skips parse/bind/plan on repeat queries;
- **plan optimizer** (``optimizer``): the rule-based rewrite pass of
  :mod:`repro.engine.optimizer` (constant folding, predicate pushdown,
  probe merging, projection pruning, join reordering, filter+aggregate
  fusion) runs between planning and execution.

All default to on and are tunable per process via ``PRAGMA
dict_encode``, ``PRAGMA zone_rows``, ``PRAGMA plan_cache`` and ``PRAGMA
optimizer`` (or the ``REPRO_DICT_ENCODE`` / ``REPRO_ZONE_ROWS`` /
``REPRO_PLAN_CACHE`` / ``REPRO_OPTIMIZER`` environment variables).
Every accelerated path is bit-identical to the unaccelerated one — the
knobs trade build/bookkeeping cost against scan latency, never answers.
"""

from __future__ import annotations

from repro.env import env_int

DEFAULT_ZONE_ROWS = 65_536
DEFAULT_PLAN_CACHE_SIZE = 256


class ScanAccelConfig:
    """Tunables of the scan acceleration layer (one process-wide instance).

    Attributes:
        dict_encode: build and use dictionary encodings for STRING columns.
        zone_rows: rows per zone-map zone; 0 disables zone-map skipping.
        plan_cache: cache bound plans keyed on SQL text.
        plan_cache_size: LRU capacity of the plan cache.
        optimizer: run the rule-based plan optimizer before execution.
    """

    __slots__ = ("dict_encode", "zone_rows", "plan_cache", "plan_cache_size", "optimizer")

    def __init__(self) -> None:
        self.dict_encode = env_int("REPRO_DICT_ENCODE", 1) != 0
        self.zone_rows = max(0, env_int("REPRO_ZONE_ROWS", DEFAULT_ZONE_ROWS))
        self.plan_cache = env_int("REPRO_PLAN_CACHE", 1) != 0
        self.plan_cache_size = max(1, env_int("REPRO_PLAN_CACHE_SIZE", DEFAULT_PLAN_CACHE_SIZE))
        self.optimizer = env_int("REPRO_OPTIMIZER", 1) != 0


_config = ScanAccelConfig()


def get_config() -> ScanAccelConfig:
    """The process-wide scan-acceleration configuration."""
    return _config


def configure(
    dict_encode: int | bool | None = None,
    zone_rows: int | None = None,
    plan_cache: int | bool | None = None,
    plan_cache_size: int | None = None,
    optimizer: int | bool | None = None,
) -> ScanAccelConfig:
    """Update the scan-acceleration config; omitted fields keep their value."""
    if dict_encode is not None:
        _config.dict_encode = bool(dict_encode)
    if zone_rows is not None:
        if zone_rows < 0:
            raise ValueError("zone_rows must be >= 0 (0 disables zone maps)")
        _config.zone_rows = zone_rows
    if plan_cache is not None:
        _config.plan_cache = bool(plan_cache)
    if plan_cache_size is not None:
        if plan_cache_size < 1:
            raise ValueError("plan_cache_size must be >= 1")
        _config.plan_cache_size = plan_cache_size
    if optimizer is not None:
        _config.optimizer = bool(optimizer)
    return _config
