"""Column type system for the repro engine.

The engine supports four logical types, each backed by a NumPy dtype:

========= ================ =========================================
Logical    NumPy backing    Notes
========= ================ =========================================
INT64      ``int64``        exact integers
FLOAT64    ``float64``      IEEE doubles
BOOL       ``bool_``        predicates and flags
STRING     ``int32``        codes into a sorted ``object`` dictionary
                            of Python ``str`` values (``numpy_dtype``
                            is ``object``, the values' dtype)
========= ================ =========================================

Nulls are represented out-of-band with a boolean validity mask on each
:class:`~repro.engine.column.Column`, so the payload arrays stay dense and
vectorisable.

A fifth type, ``UNKNOWN``, is a bare ``NULL``'s until binding gives it its
context's (:meth:`~repro.engine.expressions.Expression.bind`); no column,
checkpoint or WAL record ever carries it.
"""

from __future__ import annotations

import enum
from typing import Any

import numpy as np

from repro.errors import TypeMismatchError


class DataType(enum.Enum):
    """Logical data types supported by the engine."""

    INT64 = "int64"
    FLOAT64 = "float64"
    BOOL = "bool"
    STRING = "string"
    UNKNOWN = "unknown"

    @property
    def numpy_dtype(self) -> np.dtype:
        """The NumPy dtype used to store values of this logical type."""
        return _NUMPY_DTYPES[self]

    @property
    def is_numeric(self) -> bool:
        """True for INT64 and FLOAT64."""
        return self in (DataType.INT64, DataType.FLOAT64)

    @property
    def is_orderable(self) -> bool:
        """True if values of this type support ``<``/``>`` comparisons."""
        return self is not DataType.BOOL

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DataType.{self.name}"


_NUMPY_DTYPES = {
    DataType.INT64: np.dtype(np.int64),
    DataType.FLOAT64: np.dtype(np.float64),
    DataType.BOOL: np.dtype(np.bool_),
    DataType.STRING: np.dtype(object),
}


def infer_type(values: Any) -> DataType:
    """Infer the logical type of a NumPy array or Python sequence.

    Booleans are checked before integers because ``bool`` is a subclass of
    ``int`` in Python.

    Raises:
        TypeMismatchError: if the values mix incompatible kinds.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        arr = values
        if arr.dtype == np.bool_:
            return DataType.BOOL
        if np.issubdtype(arr.dtype, np.integer):
            return DataType.INT64
        if np.issubdtype(arr.dtype, np.floating):
            return DataType.FLOAT64
        if arr.dtype.kind in ("U", "S"):
            return DataType.STRING
        raise TypeMismatchError(f"unsupported dtype {arr.dtype!r}")
    # Python sequence (or object array): inspect the value kinds directly —
    # np.asarray would silently stringify mixed input, masking type errors
    items = values.ravel().tolist() if isinstance(values, np.ndarray) else list(values)
    kinds = {type(v) for v in items if v is not None}
    numpy_bool = {k for k in kinds if issubclass(k, np.bool_)}
    numpy_int = {k for k in kinds if issubclass(k, np.integer)}
    numpy_float = {k for k in kinds if issubclass(k, np.floating)}
    kinds = (kinds - numpy_bool - numpy_int - numpy_float) | (
        {bool} if numpy_bool else set()
    ) | ({int} if numpy_int else set()) | ({float} if numpy_float else set())
    if not kinds:
        return DataType.FLOAT64  # empty / all-null: the permissive default
    if kinds <= {bool}:
        return DataType.BOOL
    if kinds <= {int, bool}:
        return DataType.INT64
    if kinds <= {int, float, bool}:
        return DataType.FLOAT64
    if kinds <= {str}:
        return DataType.STRING
    raise TypeMismatchError(f"cannot infer a column type for value kinds {kinds}")


def common_type(left: DataType, right: DataType) -> DataType:
    """Return the type two operands promote to in arithmetic/comparison.

    INT64 and FLOAT64 promote to FLOAT64; identical types promote to
    themselves; UNKNOWN (a bare NULL) takes the other side's type.
    Anything else is a type error.
    """
    if left is right or right is DataType.UNKNOWN:
        return left
    if left is DataType.UNKNOWN:
        return right
    if left.is_numeric and right.is_numeric:
        return DataType.FLOAT64
    raise TypeMismatchError(f"no common type for {left.name} and {right.name}")


def aggregate_type(function: str, argument: DataType | None) -> DataType:
    """The result type of ``function`` over an ``argument`` column (None
    for ``COUNT(*)``): COUNT, MIN and MAX take every type; SUM and AVG
    reject STRING."""
    if function == "COUNT":
        return DataType.INT64
    if function in ("MIN", "MAX"):
        return argument
    if function not in ("SUM", "AVG"):
        raise TypeMismatchError(f"unknown aggregate function {function}")
    if argument is DataType.STRING:
        raise TypeMismatchError(f"{function} requires a numeric argument, got STRING")
    return DataType.FLOAT64 if function == "AVG" or argument is DataType.FLOAT64 else DataType.INT64


def assignable(source: DataType, target: DataType) -> bool:
    """True when values of ``source`` may be stored in a ``target`` column:
    the same type, a bare NULL, or a number into a number (whether each
    FLOAT64 value fits an INT64 column is asked when it is stored)."""
    return source is target or source is DataType.UNKNOWN or (
        source.is_numeric and target.is_numeric
    )


def coerce_array(values: Any, dtype: DataType) -> np.ndarray:
    """Coerce ``values`` into a NumPy array of the given logical type.

    Nulls (``None``) are not handled here; callers strip or mask them first.
    """
    if dtype is DataType.STRING:
        arr = np.empty(len(values), dtype=object)
        arr[:] = [None if v is None else str(v) for v in values]
        return arr
    try:
        return np.asarray(values, dtype=dtype.numpy_dtype)
    except (ValueError, TypeError) as exc:
        raise TypeMismatchError(f"cannot coerce values to {dtype.name}: {exc}") from exc


def python_value(value: Any) -> Any:
    """Convert a NumPy scalar to the closest native Python value."""
    if isinstance(value, np.generic):
        return value.item()
    return value
