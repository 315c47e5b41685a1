"""The :class:`ExplorationSession` facade.

One object wiring the stack together the way the paper's architecture
diagram does: SQL goes through the engine (whose scans use any adaptive
indexes registered); approximate answers go through the sample catalog;
view recommendation, steering, facets and query suggestion all feed off
the shared session history.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.history import QueryHistory
from repro.core.steering import SteeringSuggestion, ZoomSteering
from repro.engine.catalog import Database
from repro.engine.expressions import Expression
from repro.engine.sql.parser import parse
from repro.engine.table import Table
from repro.errors import CatalogError
from repro.explore.aide import AideExplorer, AideResult
from repro.explore.facets import FacetRecommender, InterestingFacet
from repro.explore.seedb import SeeDB, ViewRecommendation
from repro.explore.suggest import QuerySuggester, Suggestion
from repro.indexing.cracking import CrackerIndex
from repro.sampling.blinkdb import ApproximateAnswer, ApproximateQueryEngine, SampleCatalog


class ExplorationSession:
    """An interactive exploration session over one database.

    Args:
        db: the database (create tables on it first, or use
            :meth:`load_table`).
        enable_cracking: automatically register a cracker index on a
            numeric column the first time a range query filters on it —
            the adaptive-indexing behaviour of the paper's §2.3.
    """

    def __init__(self, db: Database | None = None, enable_cracking: bool = True) -> None:
        self.db = db or Database()
        self.history = QueryHistory()
        self.enable_cracking = enable_cracking
        self.suggester = QuerySuggester()
        self._catalogs: dict[str, SampleCatalog] = {}
        self._session_queries: list[str] = []

    # -- data management ---------------------------------------------------------------

    def load_table(self, name: str, data: Table | dict) -> Table:
        """Create a table from a Table or a ``{column: values}`` dict."""
        return self.db.create_table(name, data)

    # -- exact querying -----------------------------------------------------------------

    def sql(self, query: str) -> Table:
        """Run a SQL query; history is recorded and adaptive indexes are
        created/refined as a side effect."""
        statement = parse(query)
        if self.enable_cracking:
            self._maybe_crack(statement.table, statement)
        result = self.db.sql(query)
        self.history.record(
            query,
            result.num_rows,
            tables=frozenset({statement.table}),
            columns=frozenset(statement.referenced_columns(("select", "where"))),
        )
        self._session_queries.append(query)
        return result

    def _maybe_crack(self, table_name: str, statement) -> None:
        """Register cracker indexes for range-filtered numeric columns."""
        if statement.where is None or not self.db.has_table(table_name):
            return
        table = self.db.get_table(table_name)
        for column in statement.where.referenced_columns():
            bare = column.split(".", 1)[-1]
            if bare not in table.column_names:
                continue
            if not table.column(bare).dtype.is_numeric:
                continue
            if self.db.index_for(table_name, bare) is None:
                values = np.asarray(table.column(bare).data)
                self.db.register_index(table_name, bare, CrackerIndex(values))

    # -- approximate querying -------------------------------------------------------------

    def build_samples(
        self,
        table: str,
        uniform_fractions: Sequence[float] = (0.01, 0.1),
        stratified_on: Sequence[Sequence[str]] = (),
        cap: int = 500,
        seed: int = 0,
    ) -> SampleCatalog:
        """Build a BlinkDB-style sample catalog for a table."""
        catalog = SampleCatalog(self.db.get_table(table))
        for i, fraction in enumerate(uniform_fractions):
            catalog.add_uniform(fraction, seed=seed + i)
        for i, columns in enumerate(stratified_on):
            catalog.add_stratified(list(columns), cap=cap, seed=seed + 100 + i)
        self._catalogs[table] = catalog
        return catalog

    def approx(
        self,
        table: str,
        aggregate: str,
        value_column: str | None = None,
        where: Expression | None = None,
        group_by: Sequence[str] | None = None,
        error_bound: float | None = None,
        time_bound_rows: int | None = None,
    ) -> ApproximateAnswer:
        """Answer an aggregate approximately from the table's samples.

        Raises:
            CatalogError: if :meth:`build_samples` was not called for the
                table, or the table has been written to since — the
                samples hold row positions of the table they were drawn
                from.
        """
        if table not in self._catalogs:
            raise CatalogError(
                f"no sample catalog for {table!r}; call build_samples first"
            )
        catalog = self._catalogs[table]
        # every write installs or presents a new Table object, so identity is the check
        if self.db.get_table(table) is not catalog.table:
            raise CatalogError(
                f"table {table!r} has changed since build_samples; "
                "its samples index the old rows — call build_samples again"
            )
        engine = ApproximateQueryEngine(catalog.table, catalog)
        return engine.query(
            aggregate,
            value_column=value_column,
            where=where,
            group_by=group_by,
            error_bound=error_bound,
            time_bound_rows=time_bound_rows,
        )

    # -- interaction-layer assistants ------------------------------------------------------

    def recommend_views(
        self,
        table: str,
        target: Expression,
        dimensions: Sequence[str],
        measures: Sequence[str],
        k: int = 5,
    ) -> list[ViewRecommendation]:
        """SeeDB: the k most deviating views of the target subset."""
        seedb = SeeDB(self.db.get_table(table), dimensions, measures)
        return seedb.recommend(target, k=k)

    def explore_by_example(
        self,
        table: str,
        columns: Sequence[str],
        oracle,
        max_iterations: int = 10,
        seed: int = 0,
    ) -> AideResult:
        """AIDE: learn the user's interest region from labels."""
        data = self.db.get_table(table)
        features = np.column_stack(
            [np.asarray(data.column(c).data, dtype=np.float64) for c in columns]
        )
        explorer = AideExplorer(features, oracle, seed=seed)
        return explorer.run(max_iterations=max_iterations)

    def interesting_facets(
        self, table: str, predicate: Expression, min_ratio: float = 1.5
    ) -> list[InterestingFacet]:
        """YmalDB: facet values over-represented in a result."""
        return FacetRecommender(self.db.get_table(table)).interesting_facets(
            predicate, min_ratio=min_ratio
        )

    def steer(self, table: str, k: int = 3) -> list[SteeringSuggestion]:
        """Drill-down steering suggestions from the session history."""
        return ZoomSteering(self.db, table).suggest(self.history, k=k)

    def suggest_next(self, k: int = 3) -> list[Suggestion]:
        """SQL suggestions for the live session (needs trained logs via
        :meth:`observe_log_sessions`)."""
        return self.suggester.suggest(self._session_queries, k=k)

    def observe_log_sessions(self, sessions: Sequence[Sequence[str]]) -> None:
        """Train the query suggester on historical session logs."""
        for session in sessions:
            self.suggester.observe_session(session)
