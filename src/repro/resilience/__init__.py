"""Query governance and fault tolerance.

The survey's middleware layer keeps exploration interactive under
resource pressure — BlinkDB bounds time by accepting bounded error,
online aggregation degrades to a running estimate instead of blocking.
This package is the substrate beneath those behaviours for our engine:

- :mod:`repro.resilience.context` — per-query deadlines, cancellation
  tokens and memory budgets, checked at operator and scan-task boundaries;
- :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (task crashes, slow tasks, malformed rows, allocation
  spikes) driven by ``REPRO_FAULTS`` / ``PRAGMA faults=...``;
- :mod:`repro.resilience.degrade` — the graceful-degradation policy:
  a doomed aggregate re-routes through a bounded uniform sample and
  returns an answer tagged with confidence bounds.

Everything reports through :mod:`repro.obs` as the ``resilience.*``
metrics family (timeouts, cancellations, degradations, retries) and
``resilience.*`` spans.

The degradation module is imported lazily (``repro.resilience.degrade``)
because it pulls in the sampling estimators; the context and fault
surfaces below are dependency-light and safe to import from the engine.
"""

from repro.resilience.context import (
    CancellationToken,
    QueryContext,
    activate,
    context_from_config,
    current_context,
)
from repro.resilience.faults import (
    CRASH_POINTS,
    FAULT_POINTS,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    SimulatedCrashError,
    get_injector,
    parse_faults,
)

__all__ = [
    "CRASH_POINTS",
    "CancellationToken",
    "FAULT_POINTS",
    "FaultInjector",
    "FaultSpec",
    "InjectedFault",
    "QueryContext",
    "SimulatedCrashError",
    "activate",
    "context_from_config",
    "current_context",
    "get_injector",
    "parse_faults",
]
