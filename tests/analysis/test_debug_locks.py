"""The REPRO_DEBUG_LOCKS proxies: fire on unguarded access, stay silent when off."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.analysis.debug_locks import (
    DEBUG_ENV_VAR,
    LockAssertionError,
    guard_mapping,
)
from repro.relational import Database, QueryExecutor, Relation, Schema, SPJQuery
from repro.relational.schema import categorical, numerical
from repro.service.coalesce import RequestCoalescer


@pytest.fixture
def debug_on(monkeypatch):
    monkeypatch.setenv(DEBUG_ENV_VAR, "1")


def build_executor():
    schema = Schema([categorical("id"), numerical("score")])
    database = Database([Relation("r", schema, [("a", 1.0), ("b", 2.0)])])
    query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
    return QueryExecutor(database, backend="memory"), query


class TestGuardMapping:
    def test_disabled_mode_returns_the_same_object(self, monkeypatch):
        monkeypatch.delenv(DEBUG_ENV_VAR, raising=False)
        mapping = {}
        assert guard_mapping(mapping, threading.Lock(), "x") is mapping

    def test_proxy_fires_on_every_unguarded_operation(self, debug_on):
        lock = threading.RLock()
        table = guard_mapping({}, lock, "fixture.table")
        with lock:
            table["a"] = 1
        for operation in (
            lambda: table["a"],
            lambda: table.get("a"),
            lambda: len(table),
            lambda: "a" in table,
            lambda: list(table.items()),
            lambda: table.pop("a"),
        ):
            with pytest.raises(LockAssertionError):
                operation()
        with lock:
            assert table["a"] == 1

    def test_plain_lock_satisfied_while_held_by_anyone(self, debug_on):
        lock = threading.Lock()
        table = guard_mapping({}, lock, "fixture.table")
        with pytest.raises(LockAssertionError):
            table["a"] = 1
        with lock:
            table["a"] = 1
            assert table["a"] == 1

    def test_ordered_dict_proxy_checks_move_to_end(self, debug_on):
        from collections import OrderedDict

        lock = threading.RLock()
        table = guard_mapping(OrderedDict(), lock, "fixture.lru")
        with lock:
            table["a"] = 1
            table["b"] = 2
            table.move_to_end("a")
            assert list(table) == ["b", "a"]
        with pytest.raises(LockAssertionError):
            table.move_to_end("b")


class TestExecutorIntegration:
    def test_unguarded_cache_poke_raises(self, debug_on):
        executor, _ = build_executor()
        with pytest.raises(LockAssertionError):
            executor._join_cache["shape"] = object()
        with pytest.raises(LockAssertionError):
            executor._sqlite_pool._executors.get(0)

    def test_normal_evaluation_takes_its_locks(self, debug_on):
        executor, query = build_executor()
        assert len(executor.evaluate(query)) == 2
        # Warm second evaluation reads the caches -- still under the lock.
        assert len(executor.evaluate(query)) == 2

    def test_pickle_roundtrip_rearms_the_proxies(self, debug_on):
        executor, query = build_executor()
        executor.evaluate(query)
        clone = pickle.loads(pickle.dumps(executor))
        with pytest.raises(LockAssertionError):
            clone._join_cache.get(("r",))
        assert len(clone.evaluate(query)) == 2


class TestCoalescerIntegration:
    def test_inflight_map_is_guarded(self, debug_on):
        coalescer = RequestCoalescer()
        with pytest.raises(LockAssertionError):
            coalescer._inflight.get("key")
        assert coalescer.run("key", lambda: 42) == 42
        assert coalescer.started == 1
