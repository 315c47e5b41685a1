"""Exception hierarchy for the :mod:`repro` data exploration engine.

Every error raised by the library derives from :class:`ReproError`, so
applications can catch a single base class.  Subclasses mirror the major
subsystems: the SQL front end, the planner/executor, the catalog, and the
approximation layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SQLError(ReproError):
    """Base class for errors raised by the SQL front end."""


class LexerError(SQLError):
    """Raised when the SQL lexer encounters an invalid character sequence."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ParseError(SQLError):
    """Raised when the SQL parser cannot build a statement from the tokens."""


class BindError(SQLError):
    """Raised when a name in a query cannot be resolved against the catalog."""


class TypeMismatchError(ReproError):
    """Raised when an expression combines incompatible column types."""


class CatalogError(ReproError):
    """Raised for catalog violations (unknown/duplicate tables or columns)."""


class ExecutionError(ReproError):
    """Raised when a physical plan fails during execution."""


class ApproximationError(ReproError):
    """Raised when an approximate-query request cannot be satisfied.

    For example: asking BlinkDB-style execution for an error bound that no
    available sample can meet within the given time budget.
    """


class ResourceError(ReproError):
    """Base class for query-governor violations (time, cancellation, memory).

    The governor (:mod:`repro.resilience`) raises these at scan-task and
    operator boundaries; they deliberately do **not** derive from
    :class:`ExecutionError`, so resource exhaustion is distinguishable
    from a genuinely broken plan.
    """


class QueryTimeoutError(ResourceError):
    """Raised when a query runs past its deadline (``PRAGMA timeout_ms``)."""


class QueryCancelledError(ResourceError):
    """Raised when a query's cancellation token is triggered (shell
    interrupt, explicit :meth:`~repro.resilience.CancellationToken.cancel`)."""


class MemoryBudgetError(ResourceError):
    """Raised when a query's estimated allocations exceed its memory budget."""


class WalError(ReproError):
    """Raised by the durability layer for write-ahead-log misuse (writing
    to a closed log, invalid sync policy, unusable log directory)."""


class RecoveryError(ReproError):
    """Raised when crash recovery finds *mid-log* corruption: a record
    whose CRC fails (or whose frame is malformed) with further bytes
    after it.  A torn **tail** — an incomplete or CRC-invalid final
    record, the signature of a crash during the last append — is never
    an error; recovery discards it and keeps the durable prefix."""


class LoadingError(ReproError):
    """Raised by the adaptive (raw-file) loading layer for malformed input."""


class InterfaceError(ReproError):
    """Raised by the novel-interface layer (gestures, touch, keyword)."""
