"""Interactive SQL query suggestion from query logs ([21]).

SnipSuggest-style session-based recommendation: past sessions are mined
for *query fragments* (tables, predicate columns, grouping columns,
aggregates); given the live session's fragments so far, the system ranks
candidate next fragments (or whole past queries) by smoothed conditional
probability.  The S19 benchmark measures hit-rate@k of predicting the
analyst's actual next query on held-out synthetic sessions.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

from repro.engine.sql.parser import parse
from repro.errors import SQLError


def query_fragments(sql: str) -> frozenset[str]:
    """Decompose a query into its characteristic fragments.

    Fragments: ``table:X``, ``where:col``, ``group:col``, ``agg:F(col)``,
    ``select:col``.  Unparseable queries yield an empty set.
    """
    try:
        statement = parse(sql)
    except SQLError:
        return frozenset()
    fragments: set[str] = {f"table:{statement.table}"}
    for item in statement.items:
        if item.aggregate is not None:
            arg = (
                item.aggregate.argument.to_sql()
                if item.aggregate.argument is not None
                else "*"
            )
            fragments.add(f"agg:{item.aggregate.function}({arg})")
    for clause, expression, _ in statement.expressions():
        if clause in ("select", "where", "group"):
            for column in expression.referenced_columns():
                fragments.add(f"{clause}:{column}")
    return frozenset(fragments)


@dataclass
class Suggestion:
    """One ranked suggestion."""

    query: str
    score: float


class QuerySuggester:
    """Learns from logged sessions; suggests likely next queries.

    Args:
        smoothing: additive smoothing for fragment co-occurrence.
    """

    def __init__(self, smoothing: float = 0.1) -> None:
        self.smoothing = smoothing
        # fragment -> Counter of next-query texts
        self._next_query: dict[str, Counter] = defaultdict(Counter)
        self._query_popularity: Counter = Counter()
        self.sessions_observed = 0

    def observe_session(self, queries: Sequence[str]) -> None:
        """Train on one completed session (ordered query texts)."""
        for i, query in enumerate(queries):
            self._query_popularity[query] += 1
            if i == 0:
                continue
            previous_fragments = query_fragments(queries[i - 1])
            for fragment in previous_fragments:
                self._next_query[fragment][query] += 1
        self.sessions_observed += 1

    def suggest(self, session_so_far: Sequence[str], k: int = 3) -> list[Suggestion]:
        """Rank likely next queries given the live session.

        Votes from the current query's fragments are combined; cold-start
        sessions fall back to global query popularity.
        """
        votes: Counter = Counter()
        if session_so_far:
            fragments = query_fragments(session_so_far[-1])
            for fragment in fragments:
                for query, count in self._next_query.get(fragment, {}).items():
                    votes[query] += count
        if not votes:
            votes = Counter(self._query_popularity)
        seen = set(session_so_far)
        total = sum(votes.values()) + self.smoothing * max(1, len(votes))
        ranked = [
            Suggestion(query, (count + self.smoothing) / total)
            for query, count in votes.items()
            if query not in seen
        ]
        ranked.sort(key=lambda s: (-s.score, s.query))
        return ranked[:k]

    def hit_rate(
        self, sessions: Sequence[Sequence[str]], k: int = 3
    ) -> float:
        """Fraction of held-out transitions whose true next query is in
        the top-k suggestions."""
        hits = 0
        total = 0
        for session in sessions:
            for i in range(1, len(session)):
                suggestions = self.suggest(session[:i], k=k)
                if any(s.query == session[i] for s in suggestions):
                    hits += 1
                total += 1
        return hits / total if total else 0.0
