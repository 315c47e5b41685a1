"""Vectorised physical operators.

Each operator is a pure function from tables/columns to tables/columns.
The executor composes them according to the plan produced by the planner.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.engine.column import (
    Column,
    _run_heads,
    column_from_parts,
    merge_dictionaries,
    null_column,
)
from repro.engine.expressions import Expression, strip_outer_parens, truth_mask
from repro.engine.sql.ast import AggregateCall, OrderItem, SelectItem
from repro.engine.table import Table
from repro.engine.types import DataType, aggregate_type
from repro.errors import ExecutionError
from repro.obs.metrics import get_registry
from repro.obs.tracing import trace


def filter_table(table: Table, predicate: Expression) -> Table:
    """Keep rows where ``predicate`` is strictly TRUE (SQL WHERE rule)."""
    with trace("op.filter", rows=table.num_rows):
        return table.filter(truth_mask(predicate, table))


def project(table: Table, items: Sequence[SelectItem]) -> Table:
    """Evaluate a non-aggregate select list."""
    columns: list[tuple[str, Column]] = []
    for item in items:
        if item.star:
            columns.extend((name, table.column(name)) for name in table.column_names)
            continue
        if item.aggregate is not None:
            raise ExecutionError("project() cannot evaluate aggregates")
        assert item.expression is not None
        columns.append((item.output_name(), item.expression.evaluate(table)))
    return Table(columns)


def limit(table: Table, n: int) -> Table:
    """First ``n`` rows; a negative ``n`` behaves like LIMIT 0."""
    return table.slice(0, min(max(0, n), table.num_rows))


# -- deduplication -----------------------------------------------------------------


def distinct(table: Table) -> Table:
    """Drop duplicate rows, keeping the first occurrence of each (in order):
    the group kernel over every column (:func:`group_rows`).

    Equality semantics: NULL equals NULL and NaN equals NaN, so at most
    one all-NULL duplicate and one NaN duplicate survive per key
    combination; NULL, NaN and real values are mutually distinct.
    """
    if table.num_rows <= 1:
        return table
    with trace("op.distinct", rows=table.num_rows):
        columns = [table.column(name) for name in table.column_names]
        order, starts, _ = group_rows(columns, table.num_rows)
        return table.take(first_appearance(order, starts)[0])


def key_array(column: Column) -> np.ndarray:
    """The column's payload as keys that compare the way its values do.

    Numeric columns keep their own dtype: through float64, INT64 keys
    beyond 2**53 (every epoch-nanosecond timestamp) fold into their
    neighbours, and GROUP BY and WHERE — which compare natively — stop
    agreeing with whoever cast.  STRING columns give their dictionary
    codes (order-isomorphic to the strings, but only within one column:
    a join maps both sides into one dictionary first).  NULL slots hold
    harmless placeholders; the caller decides NULL from the validity
    mask and NaN behind a ``dtype.kind == "f"`` check.
    """
    if column.dtype is DataType.STRING:
        return column.dictionary()[0]
    return column.data


# -- sorting -----------------------------------------------------------------------


def _argsort_with_nulls(
    keys: np.ndarray, nulls: np.ndarray, ascending: bool
) -> np.ndarray:
    """Stable argsort that orders NULL below every real value.

    NULLs come first under ASC and last under DESC, keeping their
    original relative order; valid keys are sorted stably, NaN counting
    as the largest value (last under ASC, first under DESC).
    """
    null_idx = np.flatnonzero(nulls)
    valid_idx = np.flatnonzero(~nulls)
    valid_keys = keys[valid_idx]
    if ascending:
        order = np.argsort(valid_keys, kind="stable")
        return np.concatenate([null_idx, valid_idx[order]])
    # stable descending: a stable ascending sort of the reversed keys,
    # read backwards, visits equal keys (NaNs included) in original order
    order = (len(valid_keys) - 1) - np.argsort(valid_keys[::-1], kind="stable")[::-1]
    return np.concatenate([valid_idx[order], null_idx])


def order_keys(
    table: Table, order_by: Sequence[OrderItem]
) -> list[tuple[np.ndarray, np.ndarray, bool]]:
    """Evaluate ORDER BY keys to ``(payload, null_mask, ascending)`` triples.

    The payload/null arrays are positionally aligned with ``table``.  NULL
    ordering is decided from the mask (see :func:`_argsort_with_nulls`), so
    real ``-inf`` floats and real empty strings sort correctly relative to
    NULL.
    """
    keys = []
    for item in order_by:
        column = item.expression.evaluate(table)
        keys.append((key_array(column), column.is_null_mask(), item.ascending))
    return keys


def sort_positions(
    keys: Sequence[tuple[np.ndarray, np.ndarray, bool]], positions: np.ndarray
) -> np.ndarray:
    """Stable multi-key sort of a row subset, returned as row positions.

    ``positions`` selects (and orders) the rows to sort; key arrays are
    indexed globally.  Ties on every key keep the order of ``positions``,
    so over ascending positions the result is a total order on
    ``(keys..., row position)``.
    """
    get_registry().counter("sort.rows_sorted").inc(len(positions))
    indices = positions
    # numpy's stable sort applied from the least-significant key backwards
    for key_arr, nulls, ascending in reversed(list(keys)):
        indices = indices[_argsort_with_nulls(key_arr[indices], nulls[indices], ascending)]
    return indices


def sort_table(table: Table, order_by: Sequence[OrderItem]) -> Table:
    """Stable multi-key sort."""
    if not order_by:
        return table
    with trace("op.sort", rows=table.num_rows, keys=len(order_by)):
        positions = sort_positions(
            order_keys(table, order_by), np.arange(table.num_rows)
        )
        return table.take(positions)


def _top_candidates(
    key: tuple[np.ndarray, np.ndarray, bool], k: int
) -> np.ndarray:
    """Ascending positions of every row that sorts at or before the
    ``k``-th row on the primary key alone (``0 < k < len``), ties included.

    Mirrors :func:`_argsort_with_nulls`: NULLs lead under ASC and trail
    under DESC, NaN is the largest value (``np.partition`` agrees).
    """
    key_arr, nulls, ascending = key
    num_rows = len(nulls)
    num_null = int(np.count_nonzero(nulls))
    num_valid = num_rows - num_null
    if ascending:
        if num_null >= k:
            return np.flatnonzero(nulls)
        rank = k - num_null - 1
    else:
        if num_valid < k:  # the k-th row is a NULL: every row ties or precedes
            return np.arange(num_rows)
        rank = num_valid - k
    values = key_arr[~nulls] if num_null else key_arr
    threshold = np.partition(values, rank)[rank]
    is_float = key_arr.dtype.kind == "f"
    if ascending:
        if is_float and np.isnan(threshold):
            return np.arange(num_rows)
        return np.flatnonzero((key_arr <= threshold) | nulls)
    keep = key_arr >= threshold
    if is_float:
        keep |= np.isnan(key_arr)  # NaN precedes every threshold, NaN included
    return np.flatnonzero(keep & ~nulls)


def top_n(
    table: Table, order_by: Sequence[OrderItem], k: int
) -> tuple[Table, int]:
    """``sort_table(table, order_by).slice(0, k)`` without the full sort.

    The sort order is total on ``(keys..., row position)``, so the first
    ``k`` rows of any row-ordered superset of the answer are the answer:
    only the rows at or before the ``k``-th primary-key value (ties
    included) enter the stable sort.  Returns the result and the number
    of those candidate rows.
    """
    with trace("op.top_n", rows=table.num_rows, k=k):
        if k <= 0:
            return table.slice(0, 0), 0
        keys = order_keys(table, order_by)
        if k >= table.num_rows:
            candidates = np.arange(table.num_rows)
        else:
            candidates = _top_candidates(keys[0], k)
        positions = sort_positions(keys, candidates)[:k]
        return table.take(positions), len(candidates)


# -- joins --------------------------------------------------------------------------


def hash_join(
    left: Table,
    right: Table,
    left_key: str,
    right_key: str,
    kind: str = "inner",
) -> Table:
    """Equi-join two tables on one key column each.

    Columns of the right table that clash with left column names are
    prefixed with ``right_`` in the output; if the prefixed name is
    itself taken (a left column literally named ``right_<x>``), further
    ``right_`` prefixes are prepended until the name is unique, so the
    output never carries duplicate columns.  ``kind`` is ``inner`` or
    ``left``; a left join emits unmatched left rows with NULL right columns.
    """
    if kind not in ("inner", "left"):
        raise ExecutionError(f"unsupported join kind {kind!r}")
    with trace("op.hash_join", left_rows=left.num_rows, right_rows=right.num_rows, kind=kind):
        left_idx, right_idx = _match_join_keys(
            left.column(left_key), right.column(right_key), kind
        )
        out: list[tuple[str, Column]] = [
            (name, left.column(name).take(left_idx)) for name in left.column_names
        ]
        pad_mask = right_idx < 0
        padded = bool(pad_mask.any())
        # a left-join padding row takes right row 0, then is made NULL
        rows = np.where(pad_mask, 0, right_idx) if padded else right_idx
        used_names = set(left.column_names)
        for name in right.column_names:
            out_name = name
            while out_name in used_names:
                out_name = f"right_{out_name}"
            used_names.add(out_name)
            source = right.column(name)
            if right.num_rows == 0:  # every output row (if any) is padding
                out.append((out_name, null_column(source.dtype, len(left_idx))))
                continue
            taken = source.take(rows)
            if padded:  # NULL validity, and a STRING code −1, at the padding
                pair = taken.dictionary()  # None but for STRING
                data = taken.data if pair is None else np.where(pad_mask, np.int32(-1), pair[0])
                values = None if pair is None else pair[1]
                validity = ~pad_mask if taken.validity is None else taken.validity & ~pad_mask
                taken = column_from_parts(data, taken.dtype, validity, values)
            out.append((out_name, taken))
        if left.num_rows and not out:
            raise ExecutionError("join produced no columns")
        return Table(out) if out else left


def _match_join_keys(
    left_col: Column, right_col: Column, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised equi-join matching.

    Returns aligned (left row, right row) index arrays in left-row order,
    with matches for one left row in right-row order; a right index of -1
    marks left-join padding.  Null keys never match.  Keys compare in
    their own dtype; an INT64 key against a FLOAT64 one compares in
    float64, as numpy promotes the pair.
    """
    if (left_col.dtype is DataType.STRING) != (right_col.dtype is DataType.STRING):
        # incomparable key types: nothing joins
        n_left = len(left_col)
        if kind == "left":
            return (
                np.arange(n_left, dtype=np.int64),
                np.full(n_left, -1, dtype=np.int64),
            )
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)

    if left_col.dtype is DataType.STRING:
        left_vals, right_vals = merge_dictionaries([left_col, right_col])[0]
    else:
        left_vals, right_vals = left_col.data, right_col.data
    left_valid = ~left_col.is_null_mask()
    right_valid = ~right_col.is_null_mask()

    # group right rows by key (valid rows only)
    right_rows = np.flatnonzero(right_valid)
    unique_keys, inverse = (
        np.unique(right_vals[right_rows], return_inverse=True)
        if len(right_rows)
        else (right_vals[:0], np.empty(0, dtype=np.int64))
    )
    order = np.argsort(inverse, kind="stable")
    grouped_rows = right_rows[order]  # right row ids, grouped by key, ascending
    counts_per_key = np.bincount(inverse, minlength=len(unique_keys))
    group_starts = np.concatenate([[0], np.cumsum(counts_per_key)[:-1]])

    # probe: locate each left key among the unique right keys
    if len(unique_keys) == 0:
        matched = np.zeros(len(left_vals), dtype=bool)
        match_counts = np.zeros(len(left_vals), dtype=np.int64)
        clipped = np.zeros(len(left_vals), dtype=np.int64)
    else:
        positions = np.searchsorted(unique_keys, left_vals)
        clipped = np.clip(positions, 0, len(unique_keys) - 1)
        matched = (
            left_valid
            & (positions < len(unique_keys))
            & (unique_keys[clipped] == left_vals)
        )
        match_counts = np.where(matched, counts_per_key[clipped], 0)
    if kind == "left":
        out_counts = np.maximum(match_counts, 1)  # unmatched rows emit padding
    else:
        out_counts = match_counts

    total = int(out_counts.sum())
    left_idx = np.repeat(np.arange(len(left_vals), dtype=np.int64), out_counts)
    right_idx = np.full(total, -1, dtype=np.int64)
    # fill matched slots: for each matched left row, a contiguous run of
    # its key group in `grouped_rows`
    run_starts = np.cumsum(out_counts) - out_counts
    matched_rows = np.flatnonzero(matched & (match_counts > 0))
    if len(matched_rows):
        starts = group_starts[clipped[matched_rows]]
        counts = match_counts[matched_rows]
        flat_targets = np.repeat(run_starts[matched_rows], counts)
        flat_sources = np.repeat(starts, counts)
        intra = np.arange(int(counts.sum())) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        right_idx[flat_targets + intra] = grouped_rows[flat_sources + intra]
    return left_idx, right_idx


# -- aggregation ------------------------------------------------------------------------
#
# One group kernel serves every grouped aggregation, serial or after a
# pooled scan (:mod:`repro.engine.parallel`): :func:`group_rows` sorts
# the rows into group order once, :func:`aggregate_groups` reduces each
# aggregate over that order, :func:`grouped_output` builds the result table
# from arrays.  DESIGN.md, "Grouped aggregation kernel".

#: up to this many combined ids the stable argsort runs over uint16 (over
#: uint8 up to 256), where numpy's stable sort is a radix sort
_RADIX_SORT_IDS = 1 << 16

#: ``(order, starts, counts)``: see :func:`group_ids`
Grouping = tuple[np.ndarray | None, np.ndarray, np.ndarray]


def aggregate_columns(
    group_exprs: Sequence[Expression], aggregates: Sequence[tuple[str, AggregateCall]]
) -> set[str]:
    """The input columns an aggregation reads: its keys' and arguments'."""
    names: set[str] = set()
    for expr in group_exprs:
        names |= expr.referenced_columns()
    for _, call in aggregates:
        if call.argument is not None:
            names |= call.argument.referenced_columns()
    return names


def _key_ids(column: Column, span: int | None = None) -> tuple[np.ndarray, int]:
    """``(ids, radix)``: non-negative ints below ``radix`` that order as the
    values do — NaN after every number, NULL after NaN — and are equal iff
    the values are GROUP BY-equal (one NULL, one NaN, ±0.0 one value).

    The cheapest source that is exact wins: dictionary codes as they are;
    a BOOL as 0/1; an integer column as ``data - min`` when its observed
    range is below ``span`` (default its row count, so a group sort never
    touches a wider id space than its rows); an ``np.unique`` inverse
    otherwise.
    """
    data, encoded = key_array(column), column.dictionary()
    if encoded is not None:
        ids, radix = data, len(encoded[1])
    elif data.dtype.kind == "b":
        ids, radix = data.view(np.uint8), 2
    elif data.dtype.kind == "i" and (
        (high := int(data.max())) - (low := int(data.min())) < (span or len(data))
    ):
        ids, radix = (data - low if low else data), high - low + 1
    else:
        values, ids = np.unique(data, return_inverse=True)
        radix = len(values)
    if column.has_nulls:
        ids, radix = np.where(column.validity, ids, radix), radix + 1
    return ids, radix


def _combine_ids(
    ids: np.ndarray, space: int, more: np.ndarray, radix: int
) -> tuple[np.ndarray, int]:
    """Mixed-radix ``ids * radix + more``, and its id space; the wider
    operand is re-densified first when the product could leave int64."""
    if space * radix >= 1 << 63 and space >= radix:
        distinct, ids = np.unique(ids, return_inverse=True)
        space = len(distinct)
    if space * radix >= 1 << 63:
        distinct, more = np.unique(more, return_inverse=True)
        radix = len(distinct)
    wide = np.int32 if space * radix < 1 << 31 else np.int64  # half the bytes to sort
    return ids.astype(wide) * radix + more.astype(wide, copy=False), space * radix


def group_ids(ids: np.ndarray, space: int) -> Grouping:
    """Rows with ids below ``space`` sorted into groups: ``(order, starts,
    counts)`` with ``order[starts[g] : starts[g] + counts[g]]`` the rows of
    the group with the ``g``-th smallest id, ascending."""
    if space <= _RADIX_SORT_IDS:  # a stable sort's permutation is one, whatever the width
        ids = ids.astype(np.uint8 if space <= 1 << 8 else np.uint16, copy=False)
    order = np.argsort(ids, kind="stable")
    starts = np.flatnonzero(_run_heads(ids[order]))
    return order, starts, np.diff(starts, append=len(ids))


def group_rows(key_columns: Sequence[Column], num_rows: int) -> Grouping:
    """The group kernel: one stable argsort of the rows by key tuple.

    Key columns combine mixed-radix into one id per row
    (:func:`_combine_ids`).  No key columns is the global group: ``order``
    None stands for the identity.
    """
    if not key_columns:
        return None, np.zeros(1, dtype=np.int64), np.array([num_rows], dtype=np.int64)
    if num_rows == 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    ids, space = _key_ids(key_columns[0])
    for column in key_columns[1:]:
        ids, space = _combine_ids(ids, space, *_key_ids(column))
    return group_ids(ids, space)


def row_group_ids(
    order: np.ndarray | None, counts: np.ndarray, labels: np.ndarray | None = None
) -> np.ndarray:
    """Per row of a :data:`Grouping`, the label of its group (default: the
    group's rank)."""
    if labels is None:
        labels = np.arange(len(counts), dtype=np.int32)
    if order is None:  # the global group
        return np.repeat(labels, counts)
    ids = np.empty(len(order), dtype=labels.dtype)
    ids[order] = np.repeat(labels, counts)
    return ids


def _distinct_counts(column: Column, order: np.ndarray | None, counts: np.ndarray) -> np.ndarray:
    """COUNT(DISTINCT): each group's number of distinct valid values — one
    sort of the packed (group, value id) pairs of the valid rows; integer
    ids are ``data - min`` over any range that packs (no factorize)."""
    groups, (ids, radix) = row_group_ids(order, counts), _key_ids(column, 1 << 62)
    if column.validity is not None:
        groups, ids = groups[column.validity], ids[column.validity]
    pairs, space = _combine_ids(groups, len(counts), ids, radix)
    pairs = np.sort(pairs)
    return np.bincount(pairs[_run_heads(pairs)] // (space // len(counts)), minlength=len(counts))


def _distinct_values(
    column: Column, order: np.ndarray | None, starts: np.ndarray, counts: np.ndarray
) -> tuple[Column, np.ndarray]:
    """Each group's distinct values, ascending (NaN last, its NULLs one more
    after them), in group order, and each group's number of them: rows in
    value order by one unstable argsort, then in group order by one sort of
    the packed (group, value position) keys, so groups keep their ``starts``."""
    data, labels, space = key_array(column), row_group_ids(order, counts), len(counts)
    valid = column.validity
    if valid is not None:  # a group's NULLs sort after its values
        labels, space = labels * 2 + column.is_null_mask(), 2 * space
    by_value = np.argsort(data)
    pairs, _ = _combine_ids(labels[by_value], space, np.arange(len(data)), len(data))
    rows = by_value[np.sort(pairs) % len(data)]
    values = data[rows]
    heads = np.ones(len(values), dtype=bool)
    heads[1:] = values[1:] != values[:-1]
    if data.dtype.kind == "f":
        heads[1:] &= ~(np.isnan(values[1:]) & np.isnan(values[:-1]))
    if valid is not None:
        valid = valid[rows]
        heads &= valid
        heads[1:] |= valid[:-1] & ~valid[1:]  # a group's NULLs are one pair
    heads[starts] = True
    # a run's rows hold equal bits but for ±0.0, and a sum of zeros is +0.0
    distinct = column_from_parts(values[heads], column.dtype, None if valid is None else valid[heads])
    return distinct, np.add.reduceat(heads, starts, dtype=np.int64)


def aggregate_groups(
    function: str,
    distinct: bool,
    column: Column | None,
    order: np.ndarray | None,
    starts: np.ndarray,
    counts: np.ndarray,
) -> Column:
    """One aggregate over every group of a :data:`Grouping`, in its order.

    ``column`` None is COUNT(*).  The argument is taken into group order
    once; COUNT(x), integer SUM and MIN/MAX (a STRING's over its codes)
    are ``reduceat`` over it, float SUM and AVG sum each group's contiguous
    slice — numpy's pairwise ``.sum()`` over the rows in ascending order,
    which ``np.add.reduceat`` (sequential) does not reproduce.  DISTINCT
    runs the same reductions over each group's distinct values.
    """
    if column is None:
        return column_from_parts(counts, DataType.INT64)
    result_type = aggregate_type(function, column.dtype)
    if len(column) == 0:  # no group, or the global group over no rows
        if function == "COUNT":
            return column_from_parts(np.zeros(len(counts), dtype=np.int64), DataType.INT64)
        return null_column(result_type, len(counts))
    if distinct and function == "COUNT":
        return column_from_parts(_distinct_counts(column, order, counts), DataType.INT64)
    if distinct and function in ("SUM", "AVG"):
        column, counts = _distinct_values(column, order, starts, counts)
        order, starts = None, np.cumsum(counts) - counts
    data, valid = key_array(column), column.validity
    if order is not None and valid is not None:
        valid = valid[order]
    present = counts if valid is None else np.add.reduceat(valid, starts, dtype=np.int64)
    if function == "COUNT":
        return column_from_parts(present, DataType.INT64)
    if order is not None:
        data = data[order]
    if function in ("MIN", "MAX"):
        if valid is not None:
            data = np.where(valid, data, _reduce_identity(data.dtype, function == "MIN"))
        reduce = np.minimum if function == "MIN" else np.maximum
        values = reduce.reduceat(data, starts)
        if values.dtype.kind == "f":
            values = values + 0.0  # a zero extreme is +0.0 (numpy picks by SIMD lane)
        elif column.dtype is DataType.STRING:  # codes, −1 where a group has no value
            values[present == 0] = -1
            return column_from_parts(values, result_type, present > 0, column.dictionary()[1])
    elif result_type is DataType.INT64:  # SUM of INT64 / BOOL: exact in any order
        data = data.astype(np.int64, copy=False)
        values = np.add.reduceat(data if valid is None else np.where(valid, data, 0), starts)
    else:
        data = data.astype(np.float64, copy=False)
        if valid is not None:
            data, starts = data[valid], np.cumsum(present) - present
        sizes = zip(starts.tolist(), present.tolist())  # Python ints slice faster
        values = np.array([np.add.reduce(data[start : start + size]) for start, size in sizes])
        if function == "AVG":
            values = values / np.maximum(present, 1)
    return column_from_parts(values, result_type, None if valid is None else present > 0)


def _reduce_identity(dtype: np.dtype, is_min: bool) -> Any:
    """The value MIN (or MAX) ignores, parked in NULL slots."""
    if dtype.kind == "f":
        return np.inf if is_min else -np.inf
    if dtype.kind == "b":
        return is_min
    info = np.iinfo(dtype)
    return info.max if is_min else info.min


def first_appearance(order: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(first_rows, appearance)``: each group's first row, ascending, and
    the permutation of the kernel's groups that puts them in that order."""
    first_rows = order[starts]  # the sort is stable: a group's first row leads it
    appearance = np.argsort(first_rows)
    return first_rows[appearance], appearance


def grouped_output(
    names: Sequence[str],
    key_columns: Sequence[Column],
    columns: Sequence[Column],
    order: np.ndarray | None,
    starts: np.ndarray,
) -> Table:
    """The result table: groups in first-appearance order, key columns
    (each group's first row) before the aggregates' ``columns``.  Every
    column keeps its kernel's type — the key's, the aggregate's result
    type — however many rows or NULLs it holds."""
    if key_columns:
        first_rows, appearance = first_appearance(order, starts)
        columns = [key.take(first_rows) for key in key_columns] + [
            column.take(appearance) for column in columns
        ]
    return Table(list(zip(names, columns)))


def group_output_names(
    group_exprs: Sequence[Expression], group_names: Sequence[str] | None
) -> list[str]:
    """Output names of the group keys: the given ones, else the expressions' SQL."""
    if group_names is not None:
        return list(group_names)
    return [strip_outer_parens(e.to_sql()) for e in group_exprs]


def hash_aggregate(
    table: Table,
    group_exprs: Sequence[Expression],
    aggregates: Sequence[tuple[str, AggregateCall]],
    group_names: Sequence[str] | None = None,
) -> Table:
    """GROUP BY over materialised key columns.

    Args:
        table: input rows (already WHERE-filtered).
        group_exprs: grouping expressions; empty means a single global group.
        aggregates: (output name, call) pairs.
        group_names: output names for the group keys; defaults to the
            expressions' SQL text.

    Returns:
        One row per group: key columns first, aggregate columns after.
    """
    with trace("op.hash_aggregate", rows=table.num_rows, keys=len(group_exprs)):
        names = group_output_names(group_exprs, group_names)
        key_columns = [expr.evaluate(table) for expr in group_exprs]
        order, starts, counts = group_rows(key_columns, table.num_rows)
        columns = [
            aggregate_groups(
                call.function,
                call.distinct,
                None if call.argument is None else call.argument.evaluate(table),
                order, starts, counts,
            )
            for _, call in aggregates
        ]
        return grouped_output(
            names + [name for name, _ in aggregates], key_columns, columns, order, starts
        )
