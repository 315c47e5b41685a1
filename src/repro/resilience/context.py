"""Per-query governance: deadlines, cancellation tokens, memory budgets.

A :class:`QueryContext` is created when a query starts (from the
``timeout_ms`` / ``memory_budget_kb`` rows of :mod:`repro.settings`) and
installed in a thread-local slot for the duration of execution.  The
executor calls :meth:`QueryContext.check` between plan operators and the
parallel module before and after every scan task, on either runner, so a
deadline or cancellation surfaces within roughly one span's work (see
DESIGN.md for the latency model).

Memory is governed by *estimated allocation accounting*: every operator
output is charged against the budget via :meth:`QueryContext.charge`
(cumulative intermediate bytes, a conservative over-estimate of peak
footprint), and exceeding the budget raises
:class:`~repro.errors.MemoryBudgetError` instead of letting the process
OOM.
"""

from __future__ import annotations

import threading
import time

from repro import settings
from repro.errors import MemoryBudgetError, QueryCancelledError, QueryTimeoutError


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

        Called between plan operators and around every scan task; the cost
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


def context_from_config() -> QueryContext:
    """A fresh :class:`QueryContext` initialised from the settings."""
    config = settings.current
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
