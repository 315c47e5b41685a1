"""Storage layouts, their access-cost model, and column serialization.

Costs are measured in *cells touched* — the machine-independent unit the
adaptive-storage literature reasons in.  The model captures the three
classical effects:

- a row store reads whole tuples, so narrow scans over many rows are
  expensive but wide access to few rows is cheap;
- a column store reads exactly the scanned columns, but materialising
  wide outputs pays a tuple-reconstruction penalty per column stitched
  back together;
- column groups interpolate: columns co-accessed by the workload share a
  group and are read together.

This module is also the engine's physical (de)serialization seam: the
durability layer (:mod:`repro.engine.wal`) persists every column through
:func:`save_column_files`/:func:`open_column_files` — raw per-part
``.npy`` files (the dense payload or a STRING column's codes and
dictionary, and the validity mask) that the out-of-core tier can reopen
as read-only ``np.memmap`` views instead of materialised arrays (the
``storage`` row of :mod:`repro.settings` selects the mode).  Two older
``.npz`` forms are only read: one archive per column (:func:`load_column`,
v1 checkpoints) and one per table (:func:`table_from_bytes`, the blobs of
older WAL records).  No pickle anywhere: STRING dictionaries round-trip
through NumPy unicode arrays, which keeps checkpoint files inert data
(plus a lengths part when a value ends in NUL, which a unicode array
would drop).
"""

from __future__ import annotations

import abc
import io
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

#: Random-access penalty for stitching a tuple together across storage
#: units (relative to a sequential cell read).
RECONSTRUCTION_PENALTY = 4.0


@dataclass(frozen=True)
class QueryProfile:
    """What one query touches, as far as storage cost is concerned.

    Attributes:
        filter_columns: columns evaluated for every row.
        project_columns: columns materialised for qualifying rows.
        selectivity: fraction of rows qualifying, in [0, 1].
    """

    filter_columns: frozenset[str]
    project_columns: frozenset[str]
    selectivity: float = 0.1

    @classmethod
    def make(
        cls,
        filters: Iterable[str],
        projects: Iterable[str],
        selectivity: float = 0.1,
    ) -> "QueryProfile":
        """Convenience constructor from any iterables."""
        return cls(
            filter_columns=frozenset(filters),
            project_columns=frozenset(projects),
            selectivity=float(selectivity),
        )

    @property
    def all_columns(self) -> frozenset[str]:
        """Every column the query touches."""
        return self.filter_columns | self.project_columns


class Layout(abc.ABC):
    """A physical layout of a table with ``columns``."""

    def __init__(self, columns: Sequence[str]) -> None:
        self.columns = list(columns)

    @abc.abstractmethod
    def scan_cost(self, profile: QueryProfile, num_rows: int) -> float:
        """Cells touched to execute one query under this layout."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable layout description."""

    def reorganisation_cost(self, num_rows: int) -> float:
        """Cells touched to rewrite the table into this layout."""
        return float(num_rows * len(self.columns))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.describe()})"


class RowLayout(Layout):
    """All columns stored together, tuple at a time (NSM)."""

    def scan_cost(self, profile: QueryProfile, num_rows: int) -> float:
        width = len(self.columns)
        # the filter phase drags in whole tuples; projection is then free
        # because qualifying tuples were already read
        return float(num_rows * width)

    def describe(self) -> str:
        return "row(" + ", ".join(self.columns) + ")"


class ColumnLayout(Layout):
    """Every column stored separately (DSM)."""

    def scan_cost(self, profile: QueryProfile, num_rows: int) -> float:
        filter_cost = num_rows * len(profile.filter_columns & set(self.columns))
        project_only = (profile.project_columns - profile.filter_columns) & set(
            self.columns
        )
        reconstruction = (
            profile.selectivity
            * num_rows
            * len(project_only)
            * RECONSTRUCTION_PENALTY
        )
        return float(filter_cost + reconstruction)

    def describe(self) -> str:
        return "column(" + ", ".join(self.columns) + ")"


class ColumnGroupLayout(Layout):
    """Columns partitioned into groups stored together (PAX-like hybrids).

    Args:
        groups: a partition of the table's columns.
    """

    def __init__(self, groups: Sequence[Sequence[str]]) -> None:
        flattened = [column for group in groups for column in group]
        if len(set(flattened)) != len(flattened):
            raise ValueError("column groups must be disjoint")
        super().__init__(flattened)
        self.groups = [list(group) for group in groups if group]

    def scan_cost(self, profile: QueryProfile, num_rows: int) -> float:
        cost = 0.0
        groups_touched_for_projection = 0
        for group in self.groups:
            group_set = set(group)
            if group_set & profile.filter_columns:
                # the whole group is read for the filter scan
                cost += num_rows * len(group)
            elif group_set & profile.project_columns:
                groups_touched_for_projection += 1
                cost += (
                    profile.selectivity
                    * num_rows
                    * len(group)
                    * RECONSTRUCTION_PENALTY
                )
        return float(cost)

    def describe(self) -> str:
        rendered = "; ".join("{" + ", ".join(g) + "}" for g in self.groups)
        return f"groups({rendered})"


# -- column serialization (the durability layer's physical seam) ----------------------
#
# The arrays of one column: ``data``, or a STRING column's ``codes`` and
# ``dictionary`` (as NumPy unicode, so nothing needs pickle), plus an
# optional ``validity``.  Part sets of older writers also hold a STRING
# ``data`` payload, and some hold nothing else.  The logical dtype travels
# out of band (checkpoint manifest / WAL record metadata) — the arrays
# alone do not distinguish INT64 from a sequence of integers that happens
# to back a FLOAT64 column.


def _strings_from_unicode(unicode: np.ndarray, lengths: np.ndarray | None) -> np.ndarray:
    """The object array of ``str`` a unicode part holds, trailing NULs
    (which a unicode array drops) restored from its lengths part."""
    values = unicode.astype(object)
    if lengths is not None:
        for i in np.flatnonzero(np.char.str_len(unicode) != lengths):
            values[i] += "\x00" * int(lengths[i] - len(values[i]))
    return values


def column_to_arrays(column: "Column") -> dict[str, np.ndarray]:
    """The dense arrays that fully describe ``column`` (pickle-free)."""
    encoded = column.dictionary()
    if encoded is None:
        arrays = {"data": column.data}
    else:
        codes, values = encoded
        unicode = np.asarray(values, dtype=np.str_) if len(values) else np.empty(0, "U1")
        arrays = {"codes": codes, "dictionary": unicode}
        if sum(map(len, values)) != int(np.char.str_len(unicode).sum()):  # a NUL dropped
            arrays["dictionary_lengths"] = np.fromiter(map(len, values), np.int64, len(values))
    if column.validity is not None:
        arrays["validity"] = column.validity
    return arrays


def column_from_arrays(arrays: dict[str, np.ndarray], dtype: "DataType") -> "Column":
    """Rebuild a column from :func:`column_to_arrays` output, or from an
    older writer's part set: a STRING payload without codes is encoded
    here, one beside codes is not read."""
    from repro.engine.column import Column, column_from_parts
    from repro.engine.types import DataType

    validity = arrays.get("validity")
    if validity is not None:
        validity = validity.astype(bool)
    if dtype is not DataType.STRING:
        return column_from_parts(np.ascontiguousarray(arrays["data"]), dtype, validity)
    if "codes" in arrays:
        dictionary = _strings_from_unicode(arrays["dictionary"], arrays.get("dictionary_lengths"))
        return column_from_parts(arrays["codes"].astype(np.int32), dtype, validity, dictionary)
    payload = _strings_from_unicode(arrays["data"], arrays.get("data_lengths"))
    return Column(payload, dtype, validity)


def load_column(source: str | IO[bytes], dtype: "DataType") -> "Column":
    """Load a column :func:`column_to_arrays` wrote as one ``.npz``
    (``allow_pickle=False``), as a v1 checkpoint holds it."""
    with np.load(source, allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    return column_from_arrays(arrays, dtype)


def table_from_bytes(blob: bytes) -> "Table":
    """Rebuild a table from the whole-table ``.npz`` blob of an older WAL
    record: ``__names`` and ``__dtypes``, then column ``i``'s arrays
    keyed ``c{i}.{part}``."""
    from repro.engine.table import Table
    from repro.engine.types import DataType

    with np.load(io.BytesIO(blob), allow_pickle=False) as npz:
        arrays = {key: npz[key] for key in npz.files}
    names = [str(n) for n in arrays.pop("__names")]
    dtypes = [DataType[str(d)] for d in arrays.pop("__dtypes")]
    columns = []
    for i, (name, dtype) in enumerate(zip(names, dtypes)):
        prefix = f"c{i}."
        parts = {
            key[len(prefix):]: array
            for key, array in arrays.items()
            if key.startswith(prefix)
        }
        columns.append((name, column_from_arrays(parts, dtype)))
    return Table(columns)


# -- out-of-core storage tier ---------------------------------------------------------
#
# Checkpoints since v2 store each column as raw per-part ``.npy`` files
# (``{stem}.data.npy``, or a STRING column's ``codes``/``dictionary``,
# plus an optional ``validity``).  Unlike the ``.npz`` zip container, a
# raw ``.npy`` can be reopened as a read-only ``np.memmap`` view, so cold
# tables never have to be materialised: the scan path faults in only the
# pages it actually slices, and zone-map pruning skips the read itself.
# The dictionary part is always loaded into RAM — it is tiny (distinct
# values only) and every comparison kernel touches it.

#: The modes :func:`open_column_files` accepts.
STORAGE_MODES = ("memory", "mmap")


def _fsync_save(path: Path, array: np.ndarray) -> None:
    """``np.save`` with the bytes flushed to disk before returning."""
    with open(path, "wb") as handle:
        np.save(handle, array)
        handle.flush()
        os.fsync(handle.fileno())


def save_column_files(directory: Path, stem: str, column: "Column") -> dict[str, str]:
    """Write ``column`` as raw per-part ``.npy`` files under ``directory``.

    Returns a mapping from part name (``data``, or ``codes``/``dictionary``
    /``dictionary_lengths``, and ``validity``) to the file name written,
    suitable for a checkpoint manifest and for :func:`open_column_files`.
    """
    files: dict[str, str] = {}
    for part, array in column_to_arrays(column).items():
        filename = f"{stem}.{part}.npy"
        _fsync_save(Path(directory) / filename, array)
        files[part] = filename
    return files


class ColumnBacking:
    """Handle onto the on-disk part files backing a mapped column.

    Keeps the memmap'd arrays (and through them the OS-level ``mmap``
    objects) reachable so :meth:`release` can drop them explicitly —
    required for checkpoint directories to be deletable on platforms
    with strict open-file semantics.
    """

    __slots__ = ("directory", "files", "arrays")

    def __init__(
        self,
        directory: Path,
        files: Mapping[str, str],
        arrays: Sequence[np.ndarray],
    ) -> None:
        self.directory = Path(directory)
        self.files = dict(files)
        self.arrays = list(arrays)

    def paths(self) -> dict[str, Path]:
        """Part name -> absolute path of the backing file."""
        return {part: self.directory / name for part, name in self.files.items()}

    def mmap_handles(self) -> list:
        """The OS-level mmap objects still held by the backing arrays."""
        return [
            array._mmap
            for array in self.arrays
            if hasattr(array, "_mmap") and array._mmap is not None
        ]

    def release(self) -> None:
        """Drop the array references so the underlying maps can close."""
        self.arrays = []


def open_column_files(
    directory: Path,
    files: Mapping[str, str],
    dtype: "DataType",
    mode: str = "memory",
) -> "Column":
    """Open a column written by :func:`save_column_files`.

    ``mode="memory"`` materialises every part it reads.  ``mode="mmap"``
    opens the data (a STRING column's codes) and validity parts as
    read-only ``np.memmap`` views and records a :class:`ColumnBacking`
    over the parts it read; the dictionary is small and always loaded
    into RAM.  An older writer's STRING payload is not read when codes
    sit beside it; one without codes is encoded in RAM and carries no
    backing, since the column is then no longer its file bytes.
    """
    from repro.engine.column import column_from_parts
    from repro.engine.types import DataType

    directory = Path(directory)
    if mode not in STORAGE_MODES:
        raise ValueError(f"unknown storage mode {mode!r}")
    string = dtype is DataType.STRING
    if string and "codes" in files:  # a payload beside the codes: unread
        files = {part: name for part, name in files.items() if not part.startswith("data")}
    if mode == "memory" or (string and "codes" not in files):
        arrays = {
            part: np.load(directory / name, allow_pickle=False)
            for part, name in files.items()
        }
        return column_from_arrays(arrays, dtype)

    mapped: list[np.ndarray] = []

    def _map(part: str) -> np.ndarray:
        array = np.load(directory / files[part], mmap_mode="r", allow_pickle=False)
        mapped.append(array)
        return array

    validity = _map("validity").astype(bool, copy=False) if "validity" in files else None
    if string:
        lengths = files.get("dictionary_lengths")
        dictionary = _strings_from_unicode(
            np.load(directory / files["dictionary"], allow_pickle=False),
            None if lengths is None else np.load(directory / lengths, allow_pickle=False),
        )
        column = column_from_parts(_map("codes"), dtype, validity, dictionary)
    else:
        column = column_from_parts(_map("data"), dtype, validity)
    column._backing = ColumnBacking(directory, files, mapped)
    return column
