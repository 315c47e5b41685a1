"""Per-query governance: deadlines, cancellation tokens, memory budgets.

A :class:`QueryContext` is created when a query starts (from the
process-wide :class:`ResilienceConfig`, tuned via ``PRAGMA timeout_ms``
and friends) and installed in a thread-local slot for the duration of
execution.  The executor calls :meth:`QueryContext.check` between plan
operators and the morsel pool calls it at morsel boundaries, so a
deadline or cancellation surfaces within roughly one morsel's work (see
DESIGN.md for the latency model).

Memory is governed by *estimated allocation accounting*: every operator
output is charged against the budget via :meth:`QueryContext.charge`
(cumulative intermediate bytes, a conservative over-estimate of peak
footprint), and exceeding the budget raises
:class:`~repro.errors.MemoryBudgetError` instead of letting the process
OOM.
"""

from __future__ import annotations

import os
import threading
import time

from repro.env import env_int
from repro.errors import MemoryBudgetError, QueryCancelledError, QueryTimeoutError


class ResilienceConfig:
    """Tunables of the query governor (one process-wide instance).

    Attributes:
        timeout_ms: per-query deadline in milliseconds; 0 means none.
        memory_budget_kb: per-query budget for estimated intermediate
            allocations, in KiB; 0 means unlimited.
        degrade: when truthy, a query that hits its deadline or memory
            budget and is a degradable aggregate returns an approximate
            answer with confidence bounds instead of failing.
        degrade_rows: row budget of the uniform sample a degraded answer
            is computed from.
        max_retries: serial retries of a morsel whose worker crashed.
        retry_backoff_s: base backoff before the second retry (doubles).
        faults: fault-injection spec, e.g. ``"worker_crash:0.05,slow_morsel:0.1:20"``
            (see :mod:`repro.resilience.faults`); empty disables injection.
        fault_seed: seed of the deterministic injection hash.
    """

    __slots__ = (
        "timeout_ms",
        "memory_budget_kb",
        "degrade",
        "degrade_rows",
        "max_retries",
        "retry_backoff_s",
        "faults",
        "fault_seed",
    )

    def __init__(self) -> None:
        self.timeout_ms = max(0, env_int("REPRO_TIMEOUT_MS", 0))
        self.memory_budget_kb = max(0, env_int("REPRO_MEMORY_BUDGET_KB", 0))
        self.degrade = bool(env_int("REPRO_DEGRADE", 0))
        self.degrade_rows = max(1, env_int("REPRO_DEGRADE_ROWS", 10_000))
        self.max_retries = max(0, env_int("REPRO_MAX_RETRIES", 2))
        self.retry_backoff_s = 0.001
        self.faults = os.environ.get("REPRO_FAULTS", "")
        self.fault_seed = env_int("REPRO_FAULT_SEED", 0)


_config = ResilienceConfig()


def get_config() -> ResilienceConfig:
    """The process-wide governor configuration."""
    return _config


def configure(
    timeout_ms: int | None = None,
    memory_budget_kb: int | None = None,
    degrade: int | bool | None = None,
    degrade_rows: int | None = None,
    max_retries: int | None = None,
    faults: str | None = None,
    fault_seed: int | None = None,
) -> ResilienceConfig:
    """Update the governor configuration; omitted fields keep their value.

    ``faults`` accepts a spec string (validated immediately), or any of
    ``""``/``"off"``/``"none"`` to disable injection.
    """
    if timeout_ms is not None:
        if timeout_ms < 0:
            raise ValueError("timeout_ms must be >= 0 (0 = no deadline)")
        _config.timeout_ms = timeout_ms
    if memory_budget_kb is not None:
        if memory_budget_kb < 0:
            raise ValueError("memory_budget_kb must be >= 0 (0 = unlimited)")
        _config.memory_budget_kb = memory_budget_kb
    if degrade is not None:
        _config.degrade = bool(degrade)
    if degrade_rows is not None:
        if degrade_rows < 1:
            raise ValueError("degrade_rows must be >= 1")
        _config.degrade_rows = degrade_rows
    if max_retries is not None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        _config.max_retries = max_retries
    if faults is not None:
        from repro.resilience.faults import parse_faults

        if faults.strip().lower() in ("off", "none"):
            faults = ""
        parse_faults(faults)  # validate eagerly; raises ValueError
        _config.faults = faults
    if fault_seed is not None:
        _config.fault_seed = fault_seed
    return _config


class CancellationToken:
    """A thread-safe one-way cancellation flag shared with the query."""

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation; every subsequent checkpoint raises."""
        self._event.set()

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` was called."""
        return self._event.is_set()


class QueryContext:
    """The governance state of one running query.

    Args:
        timeout_ms: deadline relative to construction time; None disables.
        memory_budget_bytes: allocation budget; None disables.
        token: cancellation token; one is created when omitted.
    """

    def __init__(
        self,
        timeout_ms: int | None = None,
        memory_budget_bytes: int | None = None,
        token: CancellationToken | None = None,
    ) -> None:
        self.timeout_ms = timeout_ms
        self.deadline_s = (
            time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None
        )
        self.memory_budget_bytes = memory_budget_bytes or None
        self.token = token if token is not None else CancellationToken()
        self.bytes_charged = 0
        self.peak_bytes = 0
        self._charge_seq = 0

    # -- checkpoints -------------------------------------------------------------

    def cancel(self) -> None:
        """Cancel the query (checked at the next checkpoint)."""
        self.token.cancel()

    @property
    def cancelled(self) -> bool:
        """True once cancellation was requested."""
        return self.token.cancelled

    def remaining_s(self) -> float | None:
        """Seconds until the deadline (None without one; may be negative)."""
        if self.deadline_s is None:
            return None
        return self.deadline_s - time.monotonic()

    def check(self) -> None:
        """Raise if the query was cancelled or ran past its deadline.

        Called between plan operators and at morsel boundaries; the cost
        of the happy path is one Event check plus one clock read.
        """
        if self.token.cancelled:
            raise QueryCancelledError("query cancelled")
        if self.deadline_s is not None and time.monotonic() > self.deadline_s:
            raise QueryTimeoutError(
                f"query exceeded its {self.timeout_ms} ms deadline"
            )

    # -- memory accounting ---------------------------------------------------------

    def charge(self, nbytes: int, what: str = "") -> None:
        """Register an estimated allocation against the budget.

        Raises:
            MemoryBudgetError: when the cumulative estimate exceeds the
                budget.  The charge is still recorded, so diagnostics can
                report how far over the query went.
        """
        from repro.resilience.faults import get_injector

        injector = get_injector()
        if injector is not None:
            nbytes = int(nbytes * injector.alloc_multiplier(("alloc", self._charge_seq)))
        self._charge_seq += 1
        self.bytes_charged += int(nbytes)
        if self.bytes_charged > self.peak_bytes:
            self.peak_bytes = self.bytes_charged
        if (
            self.memory_budget_bytes is not None
            and self.bytes_charged > self.memory_budget_bytes
        ):
            suffix = f" (at {what})" if what else ""
            raise MemoryBudgetError(
                f"estimated allocations {self.bytes_charged} B exceed the "
                f"{self.memory_budget_bytes} B budget{suffix}"
            )

    def release(self, nbytes: int) -> None:
        """Return previously charged bytes to the budget."""
        self.bytes_charged = max(0, self.bytes_charged - int(nbytes))


def context_from_config(config: ResilienceConfig | None = None) -> QueryContext:
    """A fresh :class:`QueryContext` initialised from the configuration."""
    config = config if config is not None else _config
    return QueryContext(
        timeout_ms=config.timeout_ms or None,
        memory_budget_bytes=config.memory_budget_kb * 1024 or None,
    )


# -- the active context --------------------------------------------------------------

_active = threading.local()


def current_context() -> QueryContext | None:
    """The calling thread's active query context, if any."""
    return getattr(_active, "context", None)


class _Activation:
    """Context manager installing a query context on the calling thread."""

    __slots__ = ("_context", "_previous")

    def __init__(self, context: QueryContext) -> None:
        self._context = context
        self._previous: QueryContext | None = None

    def __enter__(self) -> QueryContext:
        self._previous = current_context()
        _active.context = self._context
        return self._context

    def __exit__(self, *exc: object) -> None:
        _active.context = self._previous


def activate(context: QueryContext) -> _Activation:
    """``with activate(ctx): ...`` governs the enclosed execution."""
    return _Activation(context)
