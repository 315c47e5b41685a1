"""NumPy-backed columns with out-of-band null masks.

A :class:`Column` is the unit of storage in the engine: a dense payload
array plus an optional boolean validity mask (True = valid).  Columns are
treated as immutable by the query layer; all operations return new columns.
"""

from __future__ import annotations

from itertools import compress
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.engine.types import DataType, coerce_array, infer_type, python_value
from repro.errors import TypeMismatchError


class Column:
    """An immutable typed column of values with optional nulls.

    A STRING column is its *dictionary*: ``_data`` holds an int32 code
    per row (−1 in null slots) indexing ``_dictionary``, a sorted object
    array of distinct values, both built once when the column is.  Codes
    are order-isomorphic to the strings they stand for, so comparisons,
    LIKE, DISTINCT, group keys and sort keys operate on the codes without
    materialising Python strings; :attr:`data` decodes on each read.
    ``take``/``filter``/``slice`` gather codes under the same dictionary,
    and :func:`concat_columns` maps the pieces' codes into the union of
    their dictionaries.

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
        dictionary = None
        # enum attribute lookups are slow: one here, none when inferring
        string = dtype is not None and dtype is DataType.STRING
        if not string:
            if not isinstance(values, np.ndarray) or values.dtype == object:
                values = list(values)
                # lists of plain numbers/bools convert in one vectorised
                # call; a None, a string or mixed kinds land on object/str
                # dtype and take the per-element path
                try:
                    numbers = np.asarray(values)
                except (ValueError, TypeError, OverflowError):
                    numbers = None
                if numbers is not None and numbers.ndim == 1 and numbers.dtype.kind in "biuf":
                    values = numbers
            if dtype is None:  # infer_type skips NULLs; no value at all reads FLOAT64
                dtype = infer_type(values) if len(values) else DataType.FLOAT64
            string = dtype is DataType.STRING
        if validity is not None and (validity.dtype != bool or len(validity) != len(values)):
            raise TypeMismatchError("validity mask must be a bool array matching the data length")
        if string:
            data, dictionary, validity = _encode_strings(values, validity)
        else:
            if not isinstance(values, np.ndarray) and any(v is None for v in values):
                if validity is None:
                    validity = np.array([v is not None for v in values], dtype=bool)
                fill = _null_fill_value(dtype)
                values = [fill if v is None else v for v in values]
            data = coerce_array(values, dtype)
        if validity is not None and bool(validity.all()):
            validity = None

        self._data = data
        self._validity = validity
        self._dtype = dtype
        self._dictionary = dictionary
        self._backing = None

    # -- dictionary encoding ---------------------------------------------------

    def dictionary(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The ``(codes, values)`` of a STRING column; None for other types.

        ``codes`` is the column's int32 array (−1 in null slots);
        ``values`` is the sorted object array of distinct strings, so
        ``values[codes[i]]`` reproduces row ``i`` and code order equals
        string order.  A column gathered by ``take``/``filter``/``slice``
        or read from a checkpoint keeps its source's dictionary, which may
        hold values no row of this column holds.
        """
        return None if self._dictionary is None else (self._data, self._dictionary)

    # -- construction helpers -------------------------------------------------

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
        """The dense payload array.  Null slots hold an arbitrary fill value.

        A STRING column decodes its codes into a fresh object array on
        each read (``""`` in null slots); kernels read the codes instead
        (:meth:`dictionary`).
        """
        if self._dictionary is None:
            return self._data
        return np.append(self._dictionary, "")[self._data]

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
        value = self._data[index]
        return python_value(value) if self._dictionary is None else self._dictionary[value]

    def __iter__(self) -> Iterator[Any]:
        return iter(self.to_list())

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
        values = self.data.tolist()
        if self._validity is not None:
            for i in np.flatnonzero(~self._validity).tolist():
                values[i] = None
        return values

    def valid_data(self) -> np.ndarray:
        """Payload restricted to valid (non-null) slots."""
        valid = self._valid_payload()
        return valid if self._dictionary is None else self._dictionary[valid]

    def take(self, indices: np.ndarray | slice) -> "Column":
        """Gather rows by position; a ``slice`` is a zero-copy view."""
        validity = self._validity[indices] if self._validity is not None else None
        return column_from_parts(self._data[indices], self._dtype, validity, self._dictionary)

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
        return self._extreme(np.min)

    def max(self) -> Any:
        """Maximum valid value, or None for an all-null/empty column."""
        return self._extreme(np.max)

    def _extreme(self, reduce: Callable[[np.ndarray], Any]) -> Any:
        """``reduce`` of the valid payload (a STRING column's codes, whose
        order is its values')."""
        valid = self._valid_payload()
        if len(valid) == 0:
            return None
        extreme = reduce(valid)
        return python_value(extreme) if self._dictionary is None else self._dictionary[extreme]

    def _valid_payload(self) -> np.ndarray:
        """``_data`` at the valid slots: codes for a STRING column."""
        return self._data if self._validity is None else self._data[self._validity]

    def distinct_count(self) -> int:
        """Number of distinct valid values: one sort, then a count of
        adjacent differences (a STRING column sorts its codes).

        Equal to ``len(np.unique(valid))`` on every input — NaNs count as
        one value, and so do ``-0.0`` and ``0.0`` — without the hash path
        that numpy 2.4's ``np.unique`` takes, which needs ~30x the sort for
        200k distinct int64 values.
        """
        return int(np.count_nonzero(_run_heads(np.sort(self._valid_payload()))))


def factorize_sorted(data: np.ndarray | list) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(data, return_inverse=True)`` as ``(values, int32 codes)``.

    A list of Python strings is hashed through a ``dict`` and only its
    distinct values are sorted, not every row's object (~7x faster at 1M
    rows); codes stay in value order, which every kernel relies on.  A
    typed array (an older checkpoint's unicode payload) keeps ``np.unique``.
    """
    if isinstance(data, np.ndarray):
        values, inverse = np.unique(data, return_inverse=True)
        return values, inverse.astype(np.int32).reshape(-1)
    distinct = sorted(set(data))
    index = {value: code for code, value in enumerate(distinct)}
    codes = np.fromiter(map(index.__getitem__, data), np.int32, len(data))
    return np.array(distinct, dtype=object), codes


def _encode_strings(
    values: Sequence[Any] | np.ndarray, validity: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(codes, dictionary, validity)`` of STRING ``values``: the valid
    rows factorized (:func:`factorize_sorted`), −1 elsewhere.

    Values are read as one list, and scanned for ``None`` and coerced
    through ``str`` only when they are not all plain ``str`` (what a
    loader hands over).  A ``None`` is a NULL whatever ``validity`` says.
    """
    typed = isinstance(values, np.ndarray) and values.dtype.kind == "U"
    if not typed:
        values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        if values and set(map(type, values)) != {str}:  # NULLs or other kinds
            present = np.array([v is not None for v in values], dtype=bool)
            if not present.all():
                validity = present if validity is None else validity & present
            values = ["" if v is None else v for v in values]
            values = coerce_array(values, DataType.STRING).tolist()
    if validity is not None and bool(validity.all()):
        validity = None
    if validity is None:
        dictionary, codes = factorize_sorted(values)
    else:
        kept = values[validity] if typed else list(compress(values, validity.tolist()))
        dictionary, valid_codes = factorize_sorted(kept)
        codes = np.full(len(validity), -1, dtype=np.int32)
        codes[validity] = valid_codes
    return codes, dictionary.astype(object, copy=False), validity


def _run_heads(ordered: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values of a sorted
    array, NaNs (sorted last) one run — ``np.unique``'s own mask."""
    heads = np.empty(len(ordered), dtype=bool)
    heads[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=heads[1:])
    if ordered.dtype.kind == "f":
        heads[int(np.searchsorted(ordered, np.nan)) + 1 :] = False
    return heads


def _null_fill_value(dtype: DataType) -> Any:
    """A harmless payload value to park in null slots."""
    if dtype is DataType.STRING:
        return ""
    if dtype is DataType.BOOL:
        return False
    return 0


def column_from_parts(
    data: np.ndarray,
    dtype: DataType,
    validity: np.ndarray | None = None,
    dictionary: np.ndarray | None = None,
) -> Column:
    """Public wrapper for building a column from prepared arrays.

    Used by operators that compute payload and validity separately and want
    to avoid the inference cost of the main constructor, and by the storage
    layer.  A STRING column's ``data`` is its int32 codes (−1 in null
    slots) into ``dictionary``, the sorted object array of its values.
    """
    col = Column.__new__(Column)
    if validity is not None and bool(validity.all()):
        validity = None
    col._data = data
    col._validity = validity
    col._dtype = dtype
    col._dictionary = dictionary
    col._backing = None
    return col


def null_column(dtype: DataType, length: int) -> Column:
    """``length`` NULLs of ``dtype`` (STRING: codes −1 over no value)."""
    nulls = np.zeros(length, bool)
    if dtype is DataType.STRING:
        return column_from_parts(np.full(length, -1, np.int32), dtype, nulls, np.empty(0, object))
    return column_from_parts(np.zeros(length, dtype.numpy_dtype), dtype, nulls)


def concat_columns(columns: Sequence[Column]) -> Column:
    """Stack same-typed columns in one pass — the engine's only column concat.

    STRING pieces' codes are mapped into the union of their dictionaries
    (:func:`merge_dictionaries`): slices and filters of one base column,
    which is what every scan gathers, share its dictionary object and stack
    their codes as they are; a delta tail after them places only its
    distinct values.
    """
    first = columns[0]
    if len(columns) == 1:
        return first
    for other in columns:
        if other._dtype != first._dtype:
            raise TypeMismatchError(
                f"cannot concat {other._dtype.name} column onto {first._dtype.name}"
            )
    if all(c._validity is None for c in columns):
        validity = None
    else:
        validity = np.concatenate([
            c._validity if c._validity is not None else np.ones(len(c), bool)
            for c in columns
        ])
    if first._dictionary is None:
        pieces, values = [c._data for c in columns], None
    else:
        pieces, values = merge_dictionaries(columns)
    return column_from_parts(np.concatenate(pieces), first._dtype, validity, values)


def merge_dictionaries(columns: Sequence[Column]) -> tuple[list[np.ndarray], np.ndarray]:
    """STRING ``columns``' codes mapped into the sorted union of their
    dictionaries, and that union: equal codes mean equal strings across
    the columns.

    The union starts from the first dictionary and takes in only the
    distinct values the others add, placed by ``searchsorted``; a column
    whose dictionary is the union keeps its codes, and when no column adds
    a value the union is the first dictionary object itself.
    """
    dictionaries = [column._dictionary for column in columns]
    merged = dictionaries[0]
    for values in dictionaries[1:]:
        if values is not merged:
            at = np.searchsorted(merged, values)
            new = np.append(merged, None)[at] != values
            if new.any():
                merged = np.insert(merged, at[new], values[new])
    mapped = []
    for column, values in zip(columns, dictionaries):
        codes = column._data
        if values is not merged:
            placed = np.append(np.searchsorted(merged, values), -1).astype(np.int32)
            codes = placed[codes]  # a NULL's −1 picks the appended −1
        mapped.append(codes)
    return mapped, merged


def compact_dictionary(column: Column) -> Column:
    """STRING ``column`` with the dictionary values no row holds dropped
    and its codes remapped: one count over the codes, and ``column``
    itself when every value is in use."""
    codes, values = column._data, column._dictionary
    used = np.bincount(codes[codes >= 0], minlength=len(values)) > 0
    if used.all():
        return column
    remap = np.append(np.cumsum(used, dtype=np.int32) - 1, np.int32(-1))
    return column_from_parts(remap[codes], column._dtype, column._validity, values[used])
