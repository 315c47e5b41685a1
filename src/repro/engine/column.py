"""NumPy-backed columns with out-of-band null masks.

A :class:`Column` is the unit of storage in the engine: a dense payload
array plus an optional boolean validity mask (True = valid).  Columns are
treated as immutable by the query layer; all operations return new columns.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.engine.types import DataType, coerce_array, infer_type, python_value
from repro.errors import TypeMismatchError


class Column:
    """An immutable typed column of values with optional nulls.

    Every STRING column has a *dictionary*: an int32 code per row (−1 in
    null slots) indexing a sorted array of distinct values, built from
    the valid rows on the first :meth:`dictionary` call and kept.  Codes
    are order-isomorphic to the strings they stand for, so comparisons,
    LIKE, DISTINCT, group keys and sort keys operate on the codes without
    materialising Python strings.  ``take``/``filter``/``slice`` pass a
    built dictionary on, and :func:`concat_columns` maps one into the
    union of its pieces'.

    Args:
        values: payload values; ``None`` entries become nulls.
        dtype: logical type; inferred from the data when omitted.
        validity: boolean mask, True where the value is valid.  When omitted
            it is derived from ``None`` entries in ``values``.
    """

    __slots__ = ("_data", "_validity", "_dtype", "_dictionary", "_backing")

    def __init__(
        self,
        values: Sequence[Any] | np.ndarray,
        dtype: DataType | None = None,
        validity: np.ndarray | None = None,
    ) -> None:
        inferred_validity = None
        # enum attribute lookups are slow: one here, none when inferring
        string = dtype is not None and dtype is DataType.STRING
        if string and _plain_strings(values):
            # what a loader hands over: the array is its own payload, with
            # no per-value NULL scan and no per-value coercion
            data = values.copy()
        else:
            if not isinstance(values, np.ndarray) or values.dtype == object:
                values = list(values)
                # lists of plain numbers/bools convert in one vectorised
                # call; a None, a string or mixed kinds land on object/str
                # dtype and take the per-element path
                numbers = None
                if not string:
                    try:
                        numbers = np.asarray(values)
                    except (ValueError, TypeError, OverflowError):
                        pass
                if numbers is not None and numbers.ndim == 1 and numbers.dtype.kind in "biuf":
                    values = numbers
                elif any(v is None for v in values):
                    inferred_validity = np.array([v is not None for v in values], dtype=bool)
            if dtype is None:  # infer_type skips NULLs; no value at all reads FLOAT64
                dtype = infer_type(values) if len(values) else DataType.FLOAT64
            if inferred_validity is not None:
                fill = _null_fill_value(dtype)
                values = [fill if v is None else v for v in values]
            data = coerce_array(values, dtype)

        if validity is None:
            validity = inferred_validity
        elif validity.dtype != bool or len(validity) != len(data):
            raise TypeMismatchError("validity mask must be a bool array matching the data length")
        if validity is not None and bool(validity.all()):
            validity = None

        self._data = data
        self._validity = validity
        self._dtype = dtype
        self._dictionary = None
        self._backing = None

    # -- dictionary encoding ---------------------------------------------------

    def dictionary(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(codes, values)`` of a STRING column; None for other types.

        ``codes`` is an int32 array aligned with the column (−1 in null
        slots); ``values`` is the sorted object array of distinct strings,
        so ``values[codes[i]]`` reproduces row ``i`` and code order equals
        string order.  Built on first call as ``np.unique`` of the valid
        values and its inverse, and kept as one tuple, so a concurrent
        reader sees the whole pair or none.  A dictionary passed on by
        ``take``/``filter``/``slice`` or read from a checkpoint is used as
        it is, and may hold values no row of this column holds.
        """
        pair = self._dictionary
        if pair is None and self._dtype is DataType.STRING:
            pair = self._dictionary = _encode(self._data, self._validity)
        return pair

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_numpy(cls, array: np.ndarray, dtype: DataType | None = None) -> "Column":
        """Wrap an existing NumPy array (no copy for non-object dtypes)."""
        return cls(array, dtype=dtype)

    @classmethod
    def empty(cls, dtype: DataType) -> "Column":
        """An empty column of the given type."""
        return cls(np.empty(0, dtype=dtype.numpy_dtype), dtype=dtype)

    # -- basic accessors -------------------------------------------------------

    @property
    def dtype(self) -> DataType:
        """Logical type of the column."""
        return self._dtype

    @property
    def data(self) -> np.ndarray:
        """The dense payload array.  Null slots hold an arbitrary fill value."""
        return self._data

    @property
    def validity(self) -> np.ndarray | None:
        """Boolean validity mask, or None when every value is valid."""
        return self._validity

    @property
    def backing(self):
        """The on-disk :class:`~repro.storage.layouts.ColumnBacking`, or None.

        Only set by the storage layer when this exact column was opened
        as memory-mapped part files; derived columns (slices, filters,
        concats) never carry a backing, so a non-None backing guarantees
        the column's logical content equals the file bytes.
        """
        return self._backing

    @property
    def is_mapped(self) -> bool:
        """True when the column is an mmap view over checkpoint files."""
        return self._backing is not None

    @property
    def has_nulls(self) -> bool:
        """True if the column contains at least one null."""
        return self._validity is not None and not bool(self._validity.all())

    def null_count(self) -> int:
        """Number of null values."""
        if self._validity is None:
            return 0
        return int((~self._validity).sum())

    def __len__(self) -> int:
        return len(self._data)

    def __getitem__(self, index: int) -> Any:
        """Value at ``index`` as a native Python value, or None for null."""
        if self._validity is not None and not self._validity[index]:
            return None
        return python_value(self._data[index])

    def __iter__(self) -> Iterator[Any]:
        for i in range(len(self)):
            yield self[i]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Column):
            return NotImplemented
        return (
            self._dtype == other._dtype
            and len(self) == len(other)
            and all(a == b for a, b in zip(self, other))
        )

    def __hash__(self) -> int:  # pragma: no cover - columns are not hashable
        raise TypeError("Column objects are not hashable")

    def __repr__(self) -> str:
        preview = ", ".join(repr(v) for v in list(self)[:6])
        suffix = ", ..." if len(self) > 6 else ""
        return f"Column<{self._dtype.name}>[{preview}{suffix}] (n={len(self)})"

    # -- vectorised operations -------------------------------------------------

    def to_list(self) -> list[Any]:
        """Materialise as a Python list (nulls become None)."""
        return list(self)

    def valid_data(self) -> np.ndarray:
        """Payload restricted to valid (non-null) slots."""
        if self._validity is None:
            return self._data
        return self._data[self._validity]

    def take(self, indices: np.ndarray | slice) -> "Column":
        """Gather rows by position; a ``slice`` is a zero-copy view."""
        data = self._data[indices]
        validity = self._validity[indices] if self._validity is not None else None
        pair = self._dictionary
        if pair is not None:
            pair = (pair[0][indices], pair[1])
        return _wrap(data, self._dtype, validity, pair)

    def filter(self, mask: np.ndarray) -> "Column":
        """Keep rows where the boolean ``mask`` is True: one take of its
        positions (numpy's boolean index is the slower copy)."""
        return self.take(np.flatnonzero(mask))

    def slice(self, start: int, stop: int) -> "Column":
        """Contiguous row range ``[start, stop)``."""
        return self.take(slice(start, stop))

    def is_null_mask(self) -> np.ndarray:
        """Boolean array, True where the value is null."""
        if self._validity is None:
            return np.zeros(len(self), dtype=bool)
        return ~self._validity

    def concat(self, other: "Column") -> "Column":
        """Append ``other`` (same logical type) after this column."""
        return concat_columns([self, other])

    # -- statistics -------------------------------------------------------------

    def min(self) -> Any:
        """Minimum valid value, or None for an all-null/empty column."""
        valid = self.valid_data()
        if len(valid) == 0:
            return None
        if valid.dtype.kind == "U":
            # numpy's minimum ufunc has no loop for fixed-width unicode
            # (mapped string payloads); builtin min compares identically.
            return python_value(min(valid.tolist()))
        return python_value(valid.min())

    def max(self) -> Any:
        """Maximum valid value, or None for an all-null/empty column."""
        valid = self.valid_data()
        if len(valid) == 0:
            return None
        if valid.dtype.kind == "U":
            return python_value(max(valid.tolist()))
        return python_value(valid.max())

    def distinct_count(self) -> int:
        """Number of distinct valid values: one sort, then a count of
        adjacent differences (a STRING column sorts its codes).

        Equal to ``len(np.unique(valid))`` on every input — NaNs count as
        one value, and so do ``-0.0`` and ``0.0`` — without the hash path
        that numpy 2.4's ``np.unique`` takes, which needs ~30x the sort for
        200k distinct int64 values.
        """
        if self._dtype is DataType.STRING:
            codes = self.dictionary()[0]
            values = codes if self._validity is None else codes[self._validity]
        else:
            values = self.valid_data()
        return int(np.count_nonzero(_run_heads(np.sort(values))))


def factorize_sorted(data: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(data, return_inverse=True)`` as ``(values, int32 codes)``.

    An object payload (Python strings) is hashed through a ``dict`` and
    only its distinct values are sorted, not every row's object (~7x
    faster at 1M rows); codes stay in value order, which every kernel
    relies on.  A typed payload (a mapped ``U`` array) keeps ``np.unique``.
    """
    if data.dtype != object:
        values, inverse = np.unique(data, return_inverse=True)
        return values, inverse.astype(np.int32).reshape(-1)
    items = data.tolist()
    distinct = sorted(set(items))
    index = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(map(index.__getitem__, items), np.int32, len(items))
    return np.array(distinct, dtype=object), codes


def _encode(data: np.ndarray, validity: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The ``(codes, values)`` of a STRING payload's valid rows, −1 elsewhere."""
    if validity is None:
        values, codes = factorize_sorted(data)
    else:
        values, valid_codes = factorize_sorted(data[validity])
        codes = np.full(len(data), -1, dtype=np.int32)
        codes[validity] = valid_codes
    return codes, values.astype(object, copy=False)


def _run_heads(ordered: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values of a sorted
    array, NaNs (sorted last) one run — ``np.unique``'s own mask."""
    heads = np.empty(len(ordered), dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    if ordered.dtype.kind == "f":
        heads[int(np.searchsorted(ordered, np.nan)) + 1 :] = False
    return heads


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a non-object array, bit for bit, by one sort
    and an adjacent compare: numpy 2.4 hashes integers instead, ~30x the
    sort for 200k distinct int64 values."""
    ordered = np.sort(values)
    return ordered[_run_heads(ordered)]


def _plain_strings(values: Any) -> bool:
    """True for a 1-D object array holding nothing but plain ``str``."""
    return (
        isinstance(values, np.ndarray)
        and values.dtype == object
        and values.ndim == 1
        and set(map(type, values.tolist())) == {str}
    )


def _null_fill_value(dtype: DataType) -> Any:
    """A harmless payload value to park in null slots."""
    if dtype is DataType.STRING:
        return ""
    if dtype is DataType.BOOL:
        return False
    return 0


def _wrap(
    data: np.ndarray,
    dtype: DataType,
    validity: np.ndarray | None,
    dictionary: tuple[np.ndarray, np.ndarray] | None = None,
) -> Column:
    """Build a Column around prepared arrays without re-inference."""
    col = Column.__new__(Column)
    if validity is not None and bool(validity.all()):
        validity = None
    col._data = data
    col._validity = validity
    col._dtype = dtype
    col._dictionary = dictionary
    col._backing = None
    return col


def column_from_parts(
    data: np.ndarray,
    dtype: DataType,
    validity: np.ndarray | None = None,
    codes: np.ndarray | None = None,
    dictionary: np.ndarray | None = None,
) -> Column:
    """Public wrapper for building a column from prepared arrays.

    Used by operators that compute payload and validity separately and want
    to avoid the inference cost of the main constructor, and by the storage
    layer, which hands a STRING column the ``codes`` and sorted object
    ``dictionary`` it read.
    """
    return _wrap(data, dtype, validity, None if codes is None else (codes, dictionary))


def concat_columns(columns: Sequence[Column]) -> Column:
    """Stack same-typed columns in one pass — the engine's only column concat.

    When any piece has a dictionary built, the result carries the pieces'
    codes mapped into the union of their dictionaries
    (:func:`merge_dictionaries`): slices and filters of one base column,
    which is what every scan gathers, share its dictionary object and stack
    their codes as they are; a delta tail after them is encoded once and
    only its distinct values are placed.  Pieces none of which has a
    dictionary yet give a result without one.
    """
    first = columns[0]
    if len(columns) == 1:
        return first
    for other in columns:
        if other._dtype != first._dtype:
            raise TypeMismatchError(
                f"cannot concat {other._dtype.name} column onto {first._dtype.name}"
            )
    data = np.concatenate([c._data for c in columns])
    if all(c._validity is None for c in columns):
        validity = None
    else:
        validity = np.concatenate([
            c._validity if c._validity is not None else np.ones(len(c), bool)
            for c in columns
        ])
    if all(c._dictionary is None for c in columns):
        return _wrap(data, first._dtype, validity)
    codes, values = merge_dictionaries(columns)
    return _wrap(data, first._dtype, validity, (np.concatenate(codes), values))


def merge_dictionaries(columns: Sequence[Column]) -> tuple[list[np.ndarray], np.ndarray]:
    """STRING ``columns``' codes mapped into the sorted union of their
    dictionaries, and that union: equal codes mean equal strings across
    the columns.

    Each column's dictionary is built at most once, and never again once
    it has one.  The union starts from the first dictionary and takes in
    only the distinct values the others add, placed by ``searchsorted``;
    a column whose dictionary is the union keeps its codes, and when no
    column adds a value the union is the first dictionary object itself.
    """
    pairs = [column.dictionary() for column in columns]
    merged = pairs[0][1]
    for _, values in pairs[1:]:
        if values is not merged:
            at = np.searchsorted(merged, values)
            new = np.append(merged, None)[at] != values
            if new.any():
                merged = np.insert(merged, at[new], values[new])
    mapped = []
    for codes, values in pairs:
        if values is not merged:
            remap = np.append(np.searchsorted(merged, values), -1).astype(np.int32)
            codes = remap[codes]  # a NULL's −1 picks the appended −1
        mapped.append(codes)
    return mapped, merged
