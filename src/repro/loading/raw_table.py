"""In-situ querying of raw CSV files (NoDB [28, 8]).

A :class:`RawTable` never loads the file up front.  The first access reads
raw lines into memory (charged as ``bytes_read``); each query then parses
only the columns it needs, for only the rows it needs, caching parsed
values so later queries touching the same columns are as fast as a loaded
table.  This reproduces NoDB's headline behaviour: the first query is
slower than on a loaded system, but the *cumulative* time to the N-th
query is far lower when the workload touches a fraction of the columns.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

import numpy as np

from repro.engine.column import Column
from repro.engine.csv_io import infer_field_type, parse_field, split_line
from repro.engine.table import Table
from repro.engine.types import DataType
from repro.errors import LoadingError
from repro.loading.positional_map import PositionalMap


class RawTable:
    """A CSV file queryable in place with lazy, cached parsing.

    Args:
        path: CSV file with a header row.
        dtypes: per-column types; inferred from a sample when omitted.
        type_sample_rows: rows examined for type inference.
    """

    def __init__(
        self,
        path: str | Path,
        dtypes: Sequence[DataType] | None = None,
        type_sample_rows: int = 50,
    ) -> None:
        self.path = Path(path)
        self._lines: list[str] | None = None
        self._map: PositionalMap | None = None
        self._names: list[str] | None = None
        self._dtypes = list(dtypes) if dtypes is not None else None
        self._type_sample_rows = type_sample_rows
        # parsed-value cache: column index -> list of values (None = NULL)
        self._parsed: dict[int, list] = {}
        self.bytes_read = 0
        self.fields_parsed = 0

    # -- lazy file access -----------------------------------------------------------

    def _ensure_lines(self) -> list[str]:
        if self._lines is None:
            text = self.path.read_text()
            self.bytes_read += len(text)
            raw_lines = text.splitlines()
            if not raw_lines:
                raise LoadingError(f"{self.path} is empty")
            self._names = split_line(raw_lines[0])
            self._lines = raw_lines[1:]
            self._map = PositionalMap(len(self._lines), len(self._names))
            if self._dtypes is None:
                sample = [
                    split_line(line) for line in self._lines[: self._type_sample_rows]
                ]
                self._dtypes = [
                    infer_field_type([row[i] for row in sample])
                    for i in range(len(self._names))
                ]
        return self._lines

    @property
    def column_names(self) -> list[str]:
        """Column names from the header."""
        self._ensure_lines()
        assert self._names is not None
        return list(self._names)

    @property
    def num_rows(self) -> int:
        """Number of data rows."""
        return len(self._ensure_lines())

    @property
    def fields_tokenized(self) -> int:
        """Delimiter-scanning work performed so far."""
        return self._map.fields_tokenized if self._map is not None else 0

    @property
    def columns_parsed(self) -> list[str]:
        """Names of columns whose values are fully cached."""
        self._ensure_lines()
        assert self._names is not None
        return [self._names[i] for i in sorted(self._parsed)]

    def _column_index(self, name: str) -> int:
        names = self.column_names
        try:
            return names.index(name)
        except ValueError:
            raise LoadingError(f"raw file has no column {name!r}") from None

    # -- parsing --------------------------------------------------------------------

    def fetch_column(self, name: str) -> Column:
        """Parse (or fetch from cache) one full column."""
        lines = self._ensure_lines()
        assert self._map is not None and self._dtypes is not None
        index = self._column_index(name)
        if index not in self._parsed:
            dtype = self._dtypes[index]
            values = []
            for row, line in enumerate(lines):
                if '"' in line:
                    # quoted fields can hide delimiters from the positional
                    # map; fall back to a full tokenise for this line
                    field = split_line(line)[index]
                    self.fields_parsed += 1
                    values.append(parse_field(field, dtype))
                    continue
                start, end = self._map.field_bounds(row, index, line)
                values.append(parse_field(line[start:end], dtype))
                self.fields_parsed += 1
            self._parsed[index] = values
        return Column(self._parsed[index], dtype=self._dtypes[index])

    def fetch(self, names: Sequence[str]) -> Table:
        """Parse the requested columns and return them as a table."""
        return Table([(name, self.fetch_column(name)) for name in names])

    def to_table(self) -> Table:
        """Parse every column (equivalent to a full load)."""
        return self.fetch(self.column_names)

    def sql_over(self, db, table_name: str, query: str) -> Table:
        """Run a SQL query, materialising only the columns it references.

        The referenced columns are parsed via the positional map and
        registered (or refreshed) in ``db`` under ``table_name``; this is
        the adaptive part — unreferenced columns are never parsed.
        """
        from repro.engine.sql.parser import parse

        statement = parse(query)
        needed = statement.referenced_columns()
        if any(item.star for item in statement.items):
            needed.update(self.column_names)
        available = set(self.column_names)
        needed = {n.split(".", 1)[-1] for n in needed} & available
        self.fetch(sorted(needed) or self.column_names[:1])
        # register everything parsed so far (cached, so this is free) —
        # the invisible-loading behaviour: effort is never thrown away
        partial = self.fetch(self.columns_parsed)
        if db.has_table(table_name):
            db.replace_table(table_name, partial)
        else:
            db.create_table(table_name, partial)
        return db.sql(query)
