"""SQLite store degradation: lock retries and corruption rebuilds.

``SQLiteExecutor._guarded`` must turn transient injected faults into
invisible retries/rebuilds (same answer as an unfaulted run) and permanent
ones into the typed taxonomy errors — ``StoreLockedError`` bounded by the
ambient request deadline, ``StoreCorruptionError`` after the rebuild budget.
"""

from __future__ import annotations

import time

import pytest

from repro.core.deadline import Deadline, deadline_scope
from repro.exceptions import StoreCorruptionError, StoreLockedError
from repro.relational import Database, Relation, Schema, SPJQuery
from repro.relational.schema import categorical, numerical
from repro.relational.sqlite_backend import SQLiteExecutor


@pytest.fixture
def baseline(students_db, scholarship):
    return SQLiteExecutor(students_db).execute(scholarship)


def test_transient_lock_is_retried_invisibly(
    students_db, scholarship, baseline, fault_env
):
    plan = fault_env(REPRO_FAULT_SQLITE_LOCK="1.0,attempts=1")
    executor = SQLiteExecutor(students_db)
    assert executor.execute(scholarship) == baseline
    assert plan.fired["sqlite-lock"] >= 1


def test_permanent_lock_is_typed_and_deadline_bounded(
    students_db, scholarship, fault_env
):
    executor = SQLiteExecutor(students_db)
    fault_env(REPRO_FAULT_SQLITE_LOCK="1.0")
    started = time.monotonic()
    with deadline_scope(Deadline.after(0.3)):
        with pytest.raises(StoreLockedError):
            executor.execute(scholarship)
    elapsed = time.monotonic() - started
    assert elapsed < 1.0  # gave up at the deadline, not the 2s default budget
    error = None
    try:
        with deadline_scope(Deadline.after(0.1)):
            executor.execute(scholarship)
    except StoreLockedError as caught:
        error = caught
    assert error is not None and error.retryable


def test_transient_corruption_triggers_rebuild(
    students_db, scholarship, baseline, fault_env
):
    executor = SQLiteExecutor(students_db)
    fault_env(REPRO_FAULT_SQLITE_CORRUPT="1.0,attempts=1")
    assert executor.execute(scholarship) == baseline
    assert executor.rebuilds >= 1


def test_rebuild_loads_the_databases_current_relations(fault_env):
    """A rebuild opens a fresh in-memory store and loads the relations the
    database holds now: a relation swapped in since the last load is read
    without a refresh."""
    schema = Schema([categorical("id"), numerical("score")])
    database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
    query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
    executor = SQLiteExecutor(database)
    assert sorted(executor.execute(query)) == [("a", 1.0), ("b", 2.0)]
    database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
    fault_env(REPRO_FAULT_SQLITE_CORRUPT="1.0,attempts=1")
    assert sorted(executor.execute(query)) == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
    assert executor.rebuilds == 1


def test_permanent_corruption_is_typed_after_rebuild_budget(
    students_db, scholarship, fault_env
):
    executor = SQLiteExecutor(students_db)
    fault_env(REPRO_FAULT_SQLITE_CORRUPT="1.0")
    with pytest.raises(StoreCorruptionError):
        executor.execute(scholarship)


def test_store_survives_fault_scenarios(students_db, scholarship, baseline, fault_env):
    """After transient lock + corruption rounds the store still answers."""
    executor = SQLiteExecutor(students_db)
    fault_env(REPRO_FAULT_SQLITE_LOCK="1.0,attempts=1")
    assert executor.execute(scholarship) == baseline
    fault_env(REPRO_FAULT_SQLITE_CORRUPT="1.0,attempts=1")
    assert executor.execute(scholarship) == baseline
