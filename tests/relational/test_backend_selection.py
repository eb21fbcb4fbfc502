"""Executor backend selection and searches on the sqlite backend."""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, NaiveProvenanceSearch, NaiveSearch, at_least
from repro.datasets import load_dataset, scale_database
from repro.exceptions import QueryError
from repro.relational.executor import QueryExecutor


def _bundle():
    return load_dataset("meps", num_rows=200)


# -- backend selection -----------------------------------------------------------------


def test_invalid_backend_argument_raises_clear_error():
    bundle = _bundle()
    with pytest.raises(QueryError, match="unknown executor backend 'duckdb'"):
        QueryExecutor(bundle.database, backend="duckdb")


def test_invalid_backend_env_var_raises_clear_error(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "postgres")
    bundle = _bundle()
    with pytest.raises(QueryError, match="unknown executor backend 'postgres'"):
        QueryExecutor(bundle.database)


def test_backend_env_var_selects_sqlite(monkeypatch):
    monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "sqlite")
    assert QueryExecutor(_bundle().database).backend == "sqlite"


@pytest.mark.parametrize("search_class", [NaiveSearch, NaiveProvenanceSearch])
def test_search_on_the_sqlite_backend_matches_the_memory_backend(search_class):
    """An exhaustive search on the sqlite backend answers as on the memory
    backend."""
    bundle = load_dataset("meps", num_rows=400)
    constraints = ConstraintSet([at_least(2, 10, Sex="F")])

    def run(**options):
        result = search_class(
            bundle.database, bundle.query, constraints, max_candidates=150, **options
        ).search()
        return (
            result.feasible,
            result.refinement,
            result.distance_value,
            result.deviation,
            result.candidates_examined,
            result.exhausted,
            result.timed_out,
        )

    assert run(executor_backend="sqlite") == run(executor_backend="memory")


def test_executors_over_same_named_relations_keep_their_own_rows():
    """Two sqlite executors in one process over different ``Students``
    relations, evaluated alternately: each answers over its own database,
    as the memory engine does.  Their stores share nothing, so loading one
    never rewrites the table the other reads."""
    bundle = load_dataset("students")
    databases = (bundle.database, scale_database(bundle.database, 1.0, seed=1))
    expected = [
        QueryExecutor(database, backend="memory").evaluate(bundle.query).relation.rows
        for database in databases
    ]
    assert expected[0] != expected[1]
    executors = [QueryExecutor(database, backend="sqlite") for database in databases]
    for _ in range(2):
        for executor, rows in zip(executors, expected):
            assert executor.evaluate(bundle.query).relation.rows == rows
