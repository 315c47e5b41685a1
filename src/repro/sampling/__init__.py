"""Approximate query processing by sampling (paper §2.2 and §2.3).

- :mod:`repro.sampling.estimators` — the one closed-form (CLT) estimator
  under every approximate answer: COUNT/SUM/AVG with confidence intervals
  per group from a stratified sample, a uniform one being the
  one-stratum case.
- :class:`OnlineAggregator` — online aggregation ([25], CONTROL [24]):
  running estimates whose intervals shrink as data streams in, with
  group-by support and stopping conditions.
- :mod:`repro.sampling.reservoir` — reservoir sampling (algorithms R & L).
- :class:`StratifiedSample` — BlinkDB-style per-group-capped samples ([7]).
- :class:`SampleCatalog` (module ``blinkdb``) — query-time sample
  selection under error or latency bounds.
- :mod:`repro.sampling.bootstrap` — bootstrap CIs for arbitrary
  statistics ("knowing when you're wrong" [6]).
- :class:`WeightedSampler` (module ``weighted``) — SciBORQ impressions
  ([59, 60]): biased sampling under a hard row budget.
"""

from repro.sampling.estimators import Estimate, srs_estimate, stratified_estimate
from repro.sampling.online_agg import OnlineAggregator, OnlineResult
from repro.sampling.reservoir import ReservoirSampler, reservoir_sample
from repro.sampling.stratified import StratifiedSample, build_stratified_sample
from repro.sampling.blinkdb import ApproximateQueryEngine, SampleCatalog, StoredSample
from repro.sampling.bootstrap import bootstrap_ci
from repro.sampling.ripple import RippleJoin, RippleSnapshot
from repro.sampling.selection import SelectionReport, WorkloadEntry, choose_samples
from repro.sampling.weighted import Impression, WeightedSampler

__all__ = [
    "ApproximateQueryEngine",
    "Estimate",
    "Impression",
    "OnlineAggregator",
    "OnlineResult",
    "ReservoirSampler",
    "RippleJoin",
    "RippleSnapshot",
    "SampleCatalog",
    "SelectionReport",
    "WorkloadEntry",
    "choose_samples",
    "StoredSample",
    "StratifiedSample",
    "WeightedSampler",
    "bootstrap_ci",
    "build_stratified_sample",
    "reservoir_sample",
    "srs_estimate",
    "stratified_estimate",
]
