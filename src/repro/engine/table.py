"""Tables: ordered collections of equal-length named columns."""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.engine.column import Column, concat_columns
from repro.engine.types import DataType
from repro.errors import CatalogError


class Schema:
    """An ordered mapping of column names to logical types."""

    __slots__ = ("_names", "_types")

    def __init__(self, fields: Sequence[tuple[str, DataType]]) -> None:
        names = [name for name, _ in fields]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names in schema: {names}")
        self._names = tuple(names)
        self._types = tuple(dtype for _, dtype in fields)

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in order."""
        return self._names

    @property
    def types(self) -> tuple[DataType, ...]:
        """Column types in order."""
        return self._types

    def fields(self) -> list[tuple[str, DataType]]:
        """(name, type) pairs in order."""
        return list(zip(self._names, self._types))

    def type_of(self, name: str) -> DataType:
        """Type of the named column.

        Raises:
            CatalogError: if the column does not exist.
        """
        try:
            return self._types[self._names.index(name)]
        except ValueError:
            raise CatalogError(f"unknown column {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._names

    def __len__(self) -> int:
        return len(self._names)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schema):
            return NotImplemented
        return self._names == other._names and self._types == other._types

    def __repr__(self) -> str:
        cols = ", ".join(f"{n}:{t.name}" for n, t in self.fields())
        return f"Schema({cols})"


class Table:
    """An in-memory table of named, equal-length columns.

    Tables are the unit of query input and output.  They are immutable from
    the query layer's point of view; mutating operations return new tables.
    """

    def __init__(self, columns: Mapping[str, Column] | Sequence[tuple[str, Column]]) -> None:
        items = list(columns.items()) if isinstance(columns, Mapping) else list(columns)
        if not items:
            raise CatalogError("a table needs at least one column")
        lengths = {len(col) for _, col in items}
        if len(lengths) > 1:
            raise CatalogError(f"columns have differing lengths: {sorted(lengths)}")
        names = [name for name, _ in items]
        if len(set(names)) != len(names):
            raise CatalogError(f"duplicate column names: {names}")
        self._columns: dict[str, Column] = dict(items)
        self._schema = Schema([(name, col.dtype) for name, col in items])

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Sequence[Any]]) -> "Table":
        """Build a table from ``{name: values}``; types are inferred."""
        return cls({name: Column(values) for name, values in data.items()})

    @classmethod
    def from_rows(
        cls, rows: Sequence[Sequence[Any]], names: Sequence[str]
    ) -> "Table":
        """Build a table from row tuples and column names."""
        if rows and any(len(row) != len(names) for row in rows):
            raise CatalogError("row width does not match the number of column names")
        columns = {
            name: Column([row[i] for row in rows]) for i, name in enumerate(names)
        }
        return cls(columns)

    # -- accessors --------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The table schema."""
        return self._schema

    @property
    def num_rows(self) -> int:
        """Number of rows."""
        return len(next(iter(self._columns.values())))

    @property
    def num_columns(self) -> int:
        """Number of columns."""
        return len(self._columns)

    @property
    def column_names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return self._schema.names

    @property
    def is_mapped(self) -> bool:
        """True when any column is an mmap view over checkpoint files."""
        return any(col.is_mapped for col in self._columns.values())

    def column(self, name: str) -> Column:
        """The named column.

        Raises:
            CatalogError: if the column does not exist.
        """
        try:
            return self._columns[name]
        except KeyError:
            raise CatalogError(f"unknown column {name!r}") from None

    def __getitem__(self, name: str) -> Column:
        return self.column(name)

    def __contains__(self, name: str) -> bool:
        return name in self._columns

    def __len__(self) -> int:
        return self.num_rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Table):
            return NotImplemented
        return self._schema == other._schema and all(
            self._columns[n] == other._columns[n] for n in self.column_names
        )

    def row(self, index: int) -> tuple[Any, ...]:
        """Row at ``index`` as a tuple of Python values."""
        return tuple(self._columns[name][index] for name in self.column_names)

    def rows(self) -> Iterator[tuple[Any, ...]]:
        """Iterate rows as tuples."""
        return zip(*(self._columns[name].to_list() for name in self.column_names))

    def to_dicts(self) -> list[dict[str, Any]]:
        """Materialise as a list of ``{column: value}`` dicts."""
        names = self.column_names
        return [dict(zip(names, row)) for row in self.rows()]

    def __repr__(self) -> str:
        return f"Table({self._schema!r}, rows={self.num_rows})"

    def pretty(self, limit: int = 20) -> str:
        """A fixed-width textual rendering, for examples and debugging."""
        names = self.column_names
        shown = [tuple("NULL" if v is None else str(v) for v in row)
                 for _, row in zip(range(limit), self.rows())]
        widths = [
            max(len(names[i]), *(len(r[i]) for r in shown)) if shown else len(names[i])
            for i in range(len(names))
        ]
        header = " | ".join(n.ljust(w) for n, w in zip(names, widths))
        rule = "-+-".join("-" * w for w in widths)
        body = "\n".join(
            " | ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in shown
        )
        footer = "" if self.num_rows <= limit else f"\n... ({self.num_rows} rows total)"
        return "\n".join(x for x in (header, rule, body) if x) + footer

    # -- relational operations ----------------------------------------------------

    def select(self, names: Sequence[str]) -> "Table":
        """Project onto the named columns, in the given order."""
        return Table([(name, self.column(name)) for name in names])

    def filter(self, mask: np.ndarray) -> "Table":
        """Keep rows where the boolean ``mask`` is True: its positions are
        computed once and every column takes them."""
        return self.take(np.flatnonzero(mask))

    def take(self, indices: np.ndarray | slice) -> "Table":
        """Gather rows by position; a ``slice`` is a zero-copy view."""
        return Table([(n, c.take(indices)) for n, c in self._columns.items()])

    def slice(self, start: int, stop: int) -> "Table":
        """Contiguous row range ``[start, stop)``."""
        return self.take(slice(start, stop))

    def rename(self, mapping: Mapping[str, str]) -> "Table":
        """Rename columns according to ``mapping`` (missing names unchanged)."""
        return Table([(mapping.get(n, n), c) for n, c in self._columns.items()])

    def with_column(self, name: str, column: Column) -> "Table":
        """Return a table with ``column`` added or replaced under ``name``."""
        if len(column) != self.num_rows:
            raise CatalogError("new column length does not match the table")
        items = [(n, c) for n, c in self._columns.items() if n != name]
        items.append((name, column))
        return Table(items)

    def drop(self, names: Iterable[str]) -> "Table":
        """Return a table without the listed columns."""
        drop_set = set(names)
        keep = [(n, c) for n, c in self._columns.items() if n not in drop_set]
        if not keep:
            raise CatalogError("cannot drop every column of a table")
        return Table(keep)

    def concat(self, other: "Table") -> "Table":
        """Stack another table with the same schema underneath this one."""
        if other.schema != self._schema:
            raise CatalogError("cannot concat tables with different schemas")
        return concat_tables([self, other])

    def head(self, n: int = 5) -> "Table":
        """First ``n`` rows."""
        return self.slice(0, min(n, self.num_rows))


def concat_tables(tables: Sequence[Table]) -> Table:
    """Stack same-schema tables in one pass per column — every gather.

    Empty pieces are dropped first, so a scan with one surviving piece
    returns it as is; columns keep a shared dictionary encoding (see
    :func:`~repro.engine.column.concat_columns`).
    """
    tables = [t for t in tables if t.num_rows] or tables[:1]
    if len(tables) == 1:
        return tables[0]
    return Table([
        (n, concat_columns([t.column(n) for t in tables]))
        for n in tables[0].column_names
    ])
