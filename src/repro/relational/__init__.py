"""A relational engine for conjunctive SPJ queries with ranking.

The paper evaluates refinements over a DBMS (DuckDB).  This subpackage is the
stand-in substrate: schemas, relations (a NumPy column store every operator
runs on, with row tuples as input and as a lazily built view), selection
predicates, and Select-Project-Join queries with ``ORDER BY`` and
``DISTINCT``.

Queries run through :class:`QueryExecutor`, which offers two byte-identical
execution backends: the in-memory columnar engine and a sqlite pushdown
backend that evaluates selection, ordering and DISTINCT inside sqlite and
only gathers result row coordinates back into Python.  The parity tests hold
the columnar engine to the sqlite backend.  Select a backend per executor
(``QueryExecutor(db, backend="sqlite")``) or process-wide via the
``REPRO_EXECUTOR_BACKEND`` environment variable.
"""

from repro.relational.database import Database
from repro.relational.executor import (
    EXECUTOR_BACKENDS,
    PreparedQuery,
    QueryExecutor,
    RankedResult,
)
from repro.relational.predicates import (
    CategoricalPredicate,
    Conjunction,
    NumericalPredicate,
    Operator,
)
from repro.relational.query import OrderBy, SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeKind, Schema
from repro.relational.sqlgen import render_sql
from repro.relational.sqlite_backend import SQLiteExecutor

__all__ = [
    "Attribute",
    "AttributeKind",
    "CategoricalPredicate",
    "Conjunction",
    "Database",
    "EXECUTOR_BACKENDS",
    "NumericalPredicate",
    "Operator",
    "OrderBy",
    "PreparedQuery",
    "QueryExecutor",
    "RankedResult",
    "Relation",
    "SPJQuery",
    "SQLiteExecutor",
    "Schema",
    "render_sql",
]
