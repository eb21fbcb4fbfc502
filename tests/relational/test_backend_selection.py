"""Executor backend selection and the persistent on-disk sqlite store."""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, NaiveProvenanceSearch, NaiveSearch, at_least
from repro.datasets import load_dataset
from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor
from repro.relational.relation import Relation
from repro.relational.schema import Attribute, AttributeKind, Schema


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


def test_db_env_var_implies_sqlite_backend(monkeypatch, tmp_path):
    path = str(tmp_path / "exec.sqlite")
    monkeypatch.setenv("REPRO_EXECUTOR_DB", path)
    monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
    executor = QueryExecutor(_bundle().database)
    assert executor.backend == "sqlite"
    assert executor.db_path == path


def test_explicit_backend_wins_over_db_env_var(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_EXECUTOR_DB", str(tmp_path / "exec.sqlite"))
    assert QueryExecutor(_bundle().database, backend="memory").backend == "memory"


# -- persistence -----------------------------------------------------------------------


def test_persisted_database_skips_reload(tmp_path):
    path = str(tmp_path / "meps.sqlite")
    bundle = _bundle()
    cold = QueryExecutor(bundle.database, backend="sqlite", db_path=path)
    cold_result = cold.evaluate(bundle.query)
    assert cold.sqlite_load_count == len(bundle.database.names)

    # A fresh executor over a freshly built (identical) dataset — the stand-in
    # for a second benchmark process — adopts the persisted tables.
    bundle2 = _bundle()
    warm = QueryExecutor(bundle2.database, backend="sqlite", db_path=path)
    warm_result = warm.evaluate(bundle2.query)
    assert warm.sqlite_load_count == 0
    assert warm_result.relation.rows == cold_result.relation.rows
    assert warm_result.scores() == cold_result.scores()


def test_persisted_database_reloads_on_content_change(tmp_path):
    path = str(tmp_path / "db.sqlite")
    schema = Schema(
        [Attribute("K", AttributeKind.CATEGORICAL), Attribute("V", AttributeKind.NUMERICAL)]
    )
    first = Database([Relation("T", schema, [("a", 1.0), ("b", 2.0)])])
    second = Database([Relation("T", schema, [("a", 9.0), ("b", 2.0)])])

    cold = QueryExecutor(first, backend="sqlite", db_path=path)
    cold._ensure_sqlite()
    assert cold.sqlite_load_count == 1

    stale = QueryExecutor(second, backend="sqlite", db_path=path)
    stale._ensure_sqlite()
    assert stale.sqlite_load_count == 1  # fingerprint mismatch -> reloaded


def test_in_process_relation_swap_still_reloads(tmp_path):
    """Within a process, swapped relations are tracked by identity, not hash."""
    path = str(tmp_path / "db.sqlite")
    schema = Schema(
        [Attribute("K", AttributeKind.CATEGORICAL), Attribute("V", AttributeKind.NUMERICAL)]
    )
    database = Database([Relation("T", schema, [("a", 1.0)])])
    executor = QueryExecutor(database, backend="sqlite", db_path=path)
    executor._ensure_sqlite()
    assert executor.sqlite_load_count == 1

    database.add(Relation("T", schema, [("a", 1.0)]))  # same content, new object
    executor._ensure_sqlite()
    assert executor.sqlite_load_count == 2


@pytest.mark.parametrize("search_class", [NaiveSearch, NaiveProvenanceSearch])
def test_search_on_a_persisted_store_matches_the_memory_backend(tmp_path, search_class):
    """An exhaustive search on the on-disk store, cold and then warm (the
    tables adopted, not reloaded), answers as on the memory backend."""
    bundle = load_dataset("meps", num_rows=400)
    constraints = ConstraintSet([at_least(2, 10, Sex="F")])
    path = str(tmp_path / "meps.sqlite")

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

    memory = run(executor_backend="memory")
    assert run(executor_backend="sqlite", executor_db=path) == memory
    assert run(executor_backend="sqlite", executor_db=path) == memory


def test_executor_pickles_without_sqlite_connection(tmp_path):
    import pickle

    bundle = _bundle()
    path = str(tmp_path / "meps.sqlite")
    executor = QueryExecutor(bundle.database, backend="sqlite", db_path=path)
    first = executor.evaluate(bundle.query)
    clone = pickle.loads(pickle.dumps(executor))
    assert clone._sqlite_pool.get() is None
    assert clone.evaluate(bundle.query).relation.rows == first.relation.rows
    assert clone.sqlite_load_count == 0  # reopened warm from the persisted file
