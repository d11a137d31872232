"""Reference answers: each PXQL statement mapped to its Section 6 call.

The parity and property suites check the engine (planner, rewrite
rules, caches, structural index, abstract interpreter) against the
paper's local algorithms called directly, one call per statement and
nothing in between.  :class:`Oracle` keeps the same catalog surface as
:class:`~repro.pxql.Interpreter` (``database``, ``execute(text)``
returning a :class:`~repro.pxql.interpreter.Result`), so a test can run
one statement list through both and compare.
"""

from __future__ import annotations

from repro.algebra.product import cartesian_product
from repro.algebra.projection_more import (
    descendant_projection_local,
    single_projection_local,
)
from repro.algebra.projection_prob import ancestor_projection_local
from repro.algebra.selection import (
    ObjectCardinalityCondition,
    ObjectCondition,
    ObjectValueCondition,
    select_local,
)
from repro.core.cardinality import CardinalityInterval
from repro.engine.executor import check_probability_guard
from repro.pxql import ast
from repro.pxql.interpreter import Result
from repro.pxql.parser import parse
from repro.queries.aggregates import (
    expected_match_count,
    match_count_distribution,
)
from repro.queries.engine import QueryEngine
from repro.storage.database import Database

_PROJECTIONS = {
    "ancestor": ancestor_projection_local,
    "descendant": descendant_projection_local,
    "single": single_projection_local,
}


class Oracle:
    """Runs algebra and query statements as direct Section 6 calls."""

    def __init__(self, database: Database | None = None) -> None:
        self.database = database if database is not None else Database()
        self._counter = 0

    def execute(self, text: str) -> Result:
        stmt = parse(text)
        if isinstance(stmt, (ast.ProjectStatement, ast.SelectStatement,
                             ast.ProductStatement)):
            value = self._algebra(stmt)
            name = stmt.target
            if name is None:
                self._counter += 1
                name = f"_result{self._counter}"
            self.database.register(name, value, replace=True)
            return Result(value, name, "")
        return Result(self._query(stmt), None, "")

    def _algebra(self, stmt):
        if isinstance(stmt, ast.ProjectStatement):
            source = self.database.get(stmt.source)
            return _PROJECTIONS[stmt.kind](source, stmt.path)
        if isinstance(stmt, ast.SelectStatement):
            selection = select_local(
                self.database.get(stmt.source), _condition(stmt)
            )
            check_probability_guard(
                selection.probability, stmt.prob_op, stmt.prob_bound
            )
            return selection.instance
        return cartesian_product(
            self.database.get(stmt.left),
            self.database.get(stmt.right),
            stmt.new_root,
        )

    def _query(self, stmt):
        source = self.database.get(stmt.source)
        if isinstance(stmt, ast.CountStatement):
            return expected_match_count(source, stmt.path)
        if isinstance(stmt, ast.DistStatement):
            return match_count_distribution(source, stmt.path)
        queries = QueryEngine(source)
        if isinstance(stmt, ast.PointStatement):
            return queries.point(stmt.path, stmt.oid)
        if isinstance(stmt, ast.ExistsStatement):
            return queries.exists(stmt.path)
        if isinstance(stmt, ast.ChainStatement):
            return queries.chain(list(stmt.chain))
        if isinstance(stmt, ast.ProbStatement):
            return queries.object_exists(stmt.oid)
        raise TypeError(f"no Section 6 call for {type(stmt).__name__}")


def _condition(stmt: ast.SelectStatement):
    if stmt.card_label is not None:
        low, high = stmt.card_bounds
        return ObjectCardinalityCondition(
            stmt.path, stmt.oid, stmt.card_label, CardinalityInterval(low, high)
        )
    if stmt.value is not None:
        return ObjectValueCondition(stmt.path, stmt.oid, stmt.value)
    return ObjectCondition(stmt.path, stmt.oid)
