"""The column-store engine substrate.

Public surface::

    from repro.engine import Database, Table, Column, col, lit

    db = Database()
    db.create_table("t", {"a": [1, 2, 3], "b": [10.0, 20.0, 30.0]})
    result = db.sql("SELECT a, b FROM t WHERE a >= 2 ORDER BY b DESC")
"""

from repro.engine.catalog import Database, RangeIndex
from repro.engine.column import Column
from repro.engine.csv_io import read_csv, write_csv
from repro.engine.expressions import Expression, col, lit, truth_mask
from repro.engine.planner import Plan, RangeProbe
from repro.engine.statistics import ColumnStatistics, TableStatistics, ZoneMap
from repro.engine.table import Schema, Table
from repro.engine.types import DataType

__all__ = [
    "Column",
    "ColumnStatistics",
    "Database",
    "DataType",
    "Expression",
    "Plan",
    "RangeIndex",
    "RangeProbe",
    "Schema",
    "Table",
    "TableStatistics",
    "ZoneMap",
    "col",
    "lit",
    "read_csv",
    "truth_mask",
    "write_csv",
]
