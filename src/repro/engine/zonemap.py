"""Zone-map data skipping for scan predicates.

A :class:`~repro.engine.statistics.ZoneMap` summarises contiguous row
ranges ("zones") of a base table with per-column min/max/null/NaN
counts.  Before a scan evaluates its predicate row by row, each range
conjunct (recognised by :func:`~repro.engine.planner.extract_probe`) is
tested against the zone summaries, classifying every zone as:

- **FAIL** — no row of the zone can satisfy the conjunct as TRUE, so the
  whole predicate can't be TRUE there: the zone is skipped outright;
- **PASS** — every row provably satisfies *all* conjuncts (which requires
  every conjunct to be a recognised probe and the zone to carry no NULLs
  or NaNs): the zone is accepted wholesale;
- **MAYBE** — anything else: the predicate is evaluated per row, exactly
  as the unpruned scan would.

Soundness rests on two facts: NULL and NaN rows never satisfy a range
probe as TRUE (``extract_probe`` never emits ``<>`` probes), and zone
bounds are kept in the column's native dtype so decisions use the same
arithmetic as the expression kernels.  A pruned scan is bit-identical
to the serial ``truth_mask`` filter — FAIL zones would have produced
all-False, PASS zones all-True, and MAYBE zones are computed by the same
row-local kernel (serially or on the worker pool).
"""

from __future__ import annotations

import numpy as np

from repro.engine.expressions import Expression, truth_mask
from repro.engine.planner import RangeProbe, extract_probe, split_conjuncts
from repro.engine.statistics import ColumnZones, ZoneMap

#: Zone classifications, ordered so that ``min`` combines conjuncts:
#: a zone is as good as its worst conjunct.
FAIL, MAYBE, PASS = 0, 1, 2
_FAIL, _MAYBE, _PASS = FAIL, MAYBE, PASS


def _probe_statuses(probe: RangeProbe, zones: ColumnZones) -> np.ndarray:
    """Per-zone FAIL/MAYBE/PASS of one range conjunct."""
    num_zones = len(zones.mins)
    empty = zones.real_counts == 0
    # a zone of only NULL/NaN rows can't satisfy a range probe anywhere
    fail = empty.copy()
    can_pass = (zones.null_counts == 0) & (zones.nan_counts == 0) & ~empty
    if probe.low is not None:
        if probe.low_inclusive:
            fail |= ~empty & (zones.maxs < probe.low)
            can_pass &= zones.mins >= probe.low
        else:
            fail |= ~empty & (zones.maxs <= probe.low)
            can_pass &= zones.mins > probe.low
    if probe.high is not None:
        if probe.high_inclusive:
            fail |= ~empty & (zones.mins > probe.high)
            can_pass &= zones.maxs <= probe.high
        else:
            fail |= ~empty & (zones.mins >= probe.high)
            can_pass &= zones.maxs < probe.high
    status = np.full(num_zones, _MAYBE, dtype=np.int8)
    status[can_pass] = _PASS
    status[fail] = _FAIL
    return status


def zone_statuses(predicate: Expression, zone_map: ZoneMap) -> np.ndarray:
    """Per-zone FAIL/MAYBE/PASS classification of a whole scan predicate.

    Every range conjunct narrows the classification (``min``); conjuncts
    the probe extractor cannot read degrade PASS to MAYBE but leave FAIL
    standing — a single disproved conjunct disproves the conjunction.
    """
    statuses = np.full(zone_map.num_zones, _PASS, dtype=np.int8)
    for conj in split_conjuncts(predicate):
        probe = extract_probe(conj)
        zones = zone_map.column(probe.column) if probe is not None else None
        if zones is None:
            # unprovable conjunct: PASS degrades to MAYBE, FAIL stands
            np.minimum(statuses, _MAYBE, out=statuses)
        else:
            np.minimum(statuses, _probe_statuses(probe, zones), out=statuses)
    return statuses


def classify_ranges(
    predicate: Expression, zone_map: ZoneMap
) -> tuple[list[tuple[int, int, bool]], int, int, int]:
    """Zone-aligned row ranges that survive pruning, FAIL zones omitted.

    Returns ``(ranges, zones_pruned, zones_passed, num_zones)``.  Each
    range is ``(start, stop, evaluate)`` where ``evaluate`` is False for
    PASS zones (every row qualifies — no predicate evaluation needed)
    and True for MAYBE zones.  Because FAIL zones are never emitted, a
    consumer that only slices the returned ranges never reads the
    skipped rows at all — on a memory-mapped table the pruned pages are
    never faulted in, which is where zone pruning pays at the I/O level.
    """
    statuses = zone_statuses(predicate, zone_map)
    ranges = [
        (*zone_map.zone_bounds(int(zone)), bool(statuses[zone] != _PASS))
        for zone in np.flatnonzero(statuses != _FAIL)
    ]
    pruned = int((statuses == _FAIL).sum())
    passed = int((statuses == _PASS).sum())
    return ranges, pruned, passed, zone_map.num_zones


def pruned_truth_mask(
    predicate: Expression, table, zone_map: ZoneMap
) -> tuple[np.ndarray, int, int, int]:
    """Zone-pruned equivalent of ``truth_mask(predicate, table)``.

    Returns ``(mask, zones_pruned, zones_passed, num_zones)`` where the
    mask is bit-identical to the unpruned serial mask.  This is the mask
    form of :func:`classify_ranges` for callers that want a full-length
    mask; the executor's scans consume the ranges directly and never
    allocate one.
    """
    # Type errors are dtype-dependent, not data-dependent: surface them
    # exactly as the unpruned path would even when every zone is skipped.
    truth_mask(predicate, table.slice(0, 0))
    ranges, pruned, passed, num_zones = classify_ranges(predicate, zone_map)
    mask = np.zeros(zone_map.row_count, dtype=bool)
    for start, stop, evaluate in ranges:
        mask[start:stop] = (
            truth_mask(predicate, table.slice(start, stop)) if evaluate else True
        )
    return mask, pruned, passed, num_zones
