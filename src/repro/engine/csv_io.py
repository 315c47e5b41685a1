"""CSV reading and writing.

Two readers are provided:

- :func:`read_csv` — eager: parse the whole file into a :class:`Table`.
  This is the "traditional full load" baseline of the adaptive-loading
  experiments (NoDB, S5).
- :func:`scan_lines` — lazy line access used by
  :mod:`repro.loading` to parse only the fields a query touches.

Real-world exploration data is dirty, so :func:`read_csv` takes an
``on_error`` policy for malformed rows: ``raise`` (default, surfaces
:class:`~repro.errors.LoadingError`), ``skip`` (drop the row, counted by
the ``loading.rows_skipped`` metric) or ``null`` (keep the row with the
unparseable fields as NULL).  The ``malformed_row`` fault point of
:mod:`repro.resilience.faults` exercises these policies in tests.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Any, Iterator, Sequence

from repro.engine.column import Column
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import LoadingError
from repro.obs.metrics import get_registry
from repro.resilience import get_injector


def write_csv(table: Table, path: str | Path, header: bool = True) -> None:
    """Write a table to a CSV file."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        if header:
            writer.writerow(table.column_names)
        for row in table.rows():
            writer.writerow(["" if v is None else v for v in row])


def parse_field(text: str, dtype: DataType) -> Any:
    """Parse one CSV field into a typed value (empty string = NULL)."""
    if text == "":
        return None
    try:
        if dtype is DataType.INT64:
            return int(text)
        if dtype is DataType.FLOAT64:
            return float(text)
        if dtype is DataType.BOOL:
            lowered = text.strip().lower()
            if lowered in ("true", "1", "t", "yes"):
                return True
            if lowered in ("false", "0", "f", "no"):
                return False
            raise ValueError(text)
        return text
    except ValueError as exc:
        raise LoadingError(f"cannot parse {text!r} as {dtype.name}") from exc


def infer_field_type(samples: Sequence[str]) -> DataType:
    """Infer a column type from sample field texts (most specific wins)."""
    non_empty = [s for s in samples if s != ""]
    if not non_empty:
        return DataType.STRING

    def all_parse(dtype: DataType) -> bool:
        try:
            for s in non_empty:
                parse_field(s, dtype)
            return True
        except LoadingError:
            return False

    for dtype in (DataType.INT64, DataType.FLOAT64, DataType.BOOL):
        if all_parse(dtype):
            return dtype
    return DataType.STRING


def read_header(path: str | Path) -> list[str]:
    """Column names from the first line of a CSV file."""
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            return next(reader)
        except StopIteration:
            raise LoadingError(f"{path} is empty") from None


def read_csv(
    path: str | Path,
    dtypes: Sequence[DataType] | None = None,
    sample_rows: int = 100,
    on_error: str = "raise",
) -> Table:
    """Eagerly parse a CSV file with a header row into a table.

    Args:
        path: file to read.
        dtypes: per-column types; inferred from the first ``sample_rows``
            data rows when omitted.
        sample_rows: how many rows to examine for type inference.
        on_error: malformed-row policy — ``"raise"`` surfaces
            :class:`~repro.errors.LoadingError`; ``"skip"`` drops the row
            (counted by ``loading.rows_skipped``); ``"null"`` keeps the
            row with unparseable fields as NULL.  A row of the wrong
            width counts as malformed.
    """
    if on_error not in ("raise", "skip", "null"):
        raise ValueError("on_error must be 'raise', 'skip' or 'null'")
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            names = next(reader)
        except StopIteration:
            raise LoadingError(f"{path} is empty") from None
        rows = list(reader)
    if dtypes is None:
        samples = [
            [row[i] for row in rows[:sample_rows] if i < len(row)]
            for i in range(len(names))
        ]
        dtypes = [infer_field_type(s) for s in samples]
    if len(dtypes) != len(names):
        raise LoadingError("dtypes length does not match the header width")
    width = len(names)
    injector = get_injector()
    parsed: list[list[Any]] = []
    skipped = 0
    for row_index, row in enumerate(rows):
        injected = injector is not None and injector.malformed_row(
            ("csv_row", row_index)
        )
        values = _parse_row(
            row, dtypes, width, on_error, injected, f"row {row_index + 2} of {path}"
        )
        if values is None:
            skipped += 1
            continue
        parsed.append(values)
    if skipped:
        get_registry().counter("loading.rows_skipped").inc(skipped)
    return Table([
        (name, Column([row[i] for row in parsed], dtype=dtype))
        for i, (name, dtype) in enumerate(zip(names, dtypes))
    ])


def _parse_row(
    row: list[str],
    dtypes: Sequence[DataType],
    width: int,
    on_error: str,
    injected: bool,
    where: str,
) -> list[Any] | None:
    """Parse one data row under the ``on_error`` policy; None means skip."""
    if injected or len(row) != width:
        if on_error == "raise":
            detail = (
                "injected malformed row"
                if injected
                else f"expected {width} fields, got {len(row)}"
            )
            raise LoadingError(f"malformed {where}: {detail}")
        if on_error == "skip":
            return None
        return [None] * width
    values: list[Any] = []
    for field, dtype in zip(row, dtypes):
        try:
            values.append(parse_field(field, dtype))
        except LoadingError:
            if on_error == "raise":
                raise
            if on_error == "skip":
                return None
            values.append(None)
    return values


def scan_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """Yield ``(byte offset, raw line)`` for each data line after the header."""
    with open(path, "rb") as handle:
        header = handle.readline()
        offset = len(header)
        for raw in handle:
            yield offset, raw.decode("utf-8").rstrip("\r\n")
            offset += len(raw)


def split_line(line: str) -> list[str]:
    """Split one CSV line into fields, honouring quoting."""
    return next(csv.reader(io.StringIO(line)))
