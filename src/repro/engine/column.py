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

    STRING columns may additionally carry a *dictionary encoding*: an
    int32 code per row (−1 in null slots) indexing a sorted array of
    distinct values.  Codes are order-isomorphic to the strings they
    stand for, so comparisons, DISTINCT, group keys and sort keys can
    operate on the codes without materialising Python strings.  The
    encoding is a cache — it never changes the column's logical value —
    and is propagated for free through ``take``/``filter``/``slice``.

    Args:
        values: payload values; ``None`` entries become nulls.
        dtype: logical type; inferred from the data when omitted.
        validity: boolean mask, True where the value is valid.  When omitted
            it is derived from ``None`` entries in ``values``.
    """

    __slots__ = ("_data", "_validity", "_dtype", "_codes", "_dict", "_backing")

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
        self._codes = None
        self._dict = None
        self._backing = None

    # -- dictionary encoding ---------------------------------------------------

    def dictionary(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(codes, values)`` dictionary view, or None when unencoded.

        ``codes`` is an int32 array aligned with the column (−1 in null
        slots); ``values`` is the sorted object array of distinct payload
        strings, so ``values[codes[i]]`` reproduces row ``i`` and code
        order equals string order.
        """
        if self._codes is None:
            return None
        return self._codes, self._dict

    def string_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(codes, values)`` of a STRING column: its encoding, or one
        built now and not kept (null slots code −1 and read as ``""``).

        Raises TypeError for a payload whose values do not sort.
        """
        if self._codes is not None:
            return self._codes, self._dict
        data, valid = self._data, self._validity
        if valid is not None:  # null slots may hold None; park a harmless string
            data = np.where(valid, data, "")
        values, codes = factorize_sorted(data)
        if valid is not None:
            codes[~valid] = -1
        return codes, values

    def encode_dictionary(self) -> bool:
        """Build (and cache) the dictionary encoding of a STRING column.

        Returns True when an encoding is present afterwards.  Non-STRING
        columns, and pathological payloads that fail to sort, are left
        unencoded — the encoding is an optimisation, never a requirement.
        """
        if self._dtype is not DataType.STRING:
            return False
        try:
            self._codes, self._dict = self.string_codes()
        except TypeError:
            return False
        return True

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
        codes = self._codes[indices] if self._codes is not None else None
        return _wrap(data, self._dtype, validity, codes, self._dict)

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
        adjacent differences (a dictionary-encoded column sorts its codes).

        Equal to ``len(np.unique(valid))`` on every input — NaNs count as
        one value, and so do ``-0.0`` and ``0.0`` — without the hash path
        that numpy 2.4's ``np.unique`` takes, which needs ~30x the sort for
        200k distinct int64 values.  Python strings (an object payload)
        count through a set: sorting them is ~25x slower than hashing them.
        """
        if self._codes is not None:
            codes = self._codes
            values = codes if self._validity is None else codes[self._validity]
        else:
            values = self.valid_data()
        if values.dtype == object:
            return len(set(values.tolist()))
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
    codes: np.ndarray | None = None,
    dictionary: np.ndarray | None = None,
) -> Column:
    """Build a Column around prepared arrays without re-inference."""
    col = Column.__new__(Column)
    if validity is not None and bool(validity.all()):
        validity = None
    col._data = data
    col._validity = validity
    col._dtype = dtype
    col._codes = codes
    col._dict = dictionary
    col._backing = None
    return col


def column_from_parts(data: np.ndarray, dtype: DataType, validity: np.ndarray | None = None) -> Column:
    """Public wrapper for building a column from prepared arrays.

    Used by operators that compute payload and validity separately and want
    to avoid the inference cost of the main constructor.
    """
    return _wrap(data, dtype, validity)


def concat_columns(columns: Sequence[Column]) -> Column:
    """Stack same-typed columns in one pass — the engine's only column concat.

    A dictionary encoding survives whenever the pieces can share one.
    Pieces carrying the first piece's dictionary *object* (slices and
    filters of one base column, which is what every scan gathers) stack
    their codes directly.  Pieces after that encoded head (a delta tail,
    built unencoded) are factorized and only their distinct values are
    placed in the sorted dictionary, so the head's payload is never read.
    Dropping the encoding here would silently make every downstream
    GROUP BY / DISTINCT / ORDER BY factorize the strings again.
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
    dictionary = first._dict
    if dictionary is None:
        return _wrap(data, first._dtype, validity)
    head = 1
    while head < len(columns) and columns[head]._dict is dictionary:
        head += 1
    codes = [c._codes for c in columns[:head]]
    if head < len(columns):
        start = sum(len(c) for c in columns[:head])
        try:
            dictionary, codes = _extend_dictionary(
                dictionary, codes, data[start:],
                None if validity is None else validity[start:],
            )
        except TypeError:  # unsortable payload: the result stays unencoded
            return _wrap(data, first._dtype, validity)
    return _wrap(data, first._dtype, validity, np.concatenate(codes), dictionary)


def _extend_dictionary(
    dictionary: np.ndarray,
    codes: list[np.ndarray],
    tail_data: np.ndarray,
    tail_valid: np.ndarray | None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Codes for unencoded ``tail_data`` appended to an encoded head.

    The tail is factorized and only its distinct values are placed in the
    sorted dictionary by ``searchsorted``; head codes are remapped with
    one gather.  A tail that brings no new value keeps the dictionary
    object itself.
    """
    valid = slice(None) if tail_valid is None else tail_valid
    tail_values, tail_ids = factorize_sorted(tail_data[valid])
    at = np.searchsorted(dictionary, tail_values)
    known = np.append(dictionary, None)[at] == tail_values
    merged = dictionary
    if not known.all():
        merged = np.insert(dictionary.astype(object), at[~known], tail_values[~known])
        remap = np.append(np.searchsorted(merged, dictionary), -1).astype(np.int32)
        codes = [remap[c] for c in codes]  # a NULL's −1 picks the appended −1
        at = np.searchsorted(merged, tail_values)
    tail_codes = np.full(len(tail_data), -1, dtype=np.int32)
    tail_codes[valid] = at[tail_ids]
    return merged, codes + [tail_codes]
