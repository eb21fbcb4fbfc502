"""Regression tests: one QueryExecutor hammered from many threads.

The serving layer shares a single executor per dataset session across all
request-handler threads, so the per-query-shape caches must be locked and the
sqlite backend must hand each thread its own connection.
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.datasets import load_dataset
from repro.relational import Database, QueryExecutor, Relation, Schema, SPJQuery
from repro.relational.schema import categorical, numerical

THREADS = 8
ROUNDS = 5


def build_executor(backend: str):
    bundle = load_dataset("students")
    return QueryExecutor(bundle.database, backend=backend), bundle.query


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
class TestExecutorThreadSafety:
    def test_concurrent_evaluate_matches_serial(self, backend):
        executor, query = build_executor(backend)
        serial_rows = executor.evaluate(query).projected.rows
        errors: list[BaseException] = []
        barrier = threading.Barrier(THREADS)

        def hammer():
            try:
                barrier.wait(timeout=30)
                for _ in range(ROUNDS):
                    result = executor.evaluate(query)
                    assert result.projected.rows == serial_rows
                    unfiltered = executor.evaluate_unfiltered(query)
                    assert len(unfiltered.relation) >= len(result)
            except BaseException as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=hammer) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert errors == []

    def test_concurrent_first_touch(self, backend):
        """All threads race the very first evaluation (cold caches)."""
        executor, query = build_executor(backend)
        barrier = threading.Barrier(THREADS)

        def cold_evaluate():
            barrier.wait(timeout=30)
            return executor.evaluate(query).projected.rows

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            futures = [pool.submit(cold_evaluate) for _ in range(THREADS)]
            results = [future.result(timeout=60) for future in futures]
        assert all(rows == results[0] for rows in results)


    def test_threads_binding_one_prepared_shape_get_their_own_rows(self, backend):
        """Concurrent searches share one prepared shape: each thread binds
        its own constants, under a short switch interval, and must get the
        rows and top-k group counts of its own binding, never another
        thread's.  The threads also read one shared result per binding,
        whose relations are built lazily by whichever thread reads first."""
        executor, query = build_executor(backend)
        prepared = executor.prepare(query)
        bindings = [(3.7, {"RB"}), (3.0, {"RB", "SO"}), (3.5, {"SO"}), (0.0, {"GD", "SO"})]
        groups = [{"Gender": "F"}, {"Income": "High"}, {"Gender": "M", "Income": "Low"}]

        def answer(result):
            counts = [result.count_group_in_top_k(k, group) for k in (3, 6) for group in groups]
            return result.projected.rows, counts

        expected = [
            answer(executor.evaluate(query.with_where(query.where.bind(constants))))
            for constants in bindings
        ]
        assert len({tuple(rows) for rows, _ in expected}) == len(expected)
        assert len({tuple(counts) for _, counts in expected}) > 1
        shared = [prepared.bind(constants) for constants in bindings]
        errors: list[BaseException] = []
        barrier = threading.Barrier(THREADS)

        def hammer(offset):
            try:
                barrier.wait(timeout=30)
                for round_ in range(ROUNDS * len(bindings)):
                    index = (offset + round_) % len(bindings)
                    assert answer(prepared.bind(bindings[index])) == expected[index]
                    assert answer(shared[index]) == expected[index]
            except BaseException as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(n,)) for n in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_a_swap_reaches_every_threads_store(self, backend):
        """Three threads evaluate, each on its own sqlite store; the main
        thread then swaps a relation, and every thread's next evaluation
        must read the new rows: each store reloads on its own."""
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        executor = QueryExecutor(database, backend=backend)
        evaluated = threading.Barrier(4)
        swapped = threading.Event()

        def before_and_after():
            before = len(executor.evaluate(query))
            evaluated.wait(timeout=30)
            assert swapped.wait(timeout=30)
            return before, len(executor.evaluate(query))

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(before_and_after) for _ in range(3)]
            evaluated.wait(timeout=30)
            with executor._sqlite_pool._lock:
                stores = len(executor._sqlite_pool._executors)
            database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
            swapped.set()
            counts = [future.result(timeout=60) for future in futures]
        assert stores == (3 if backend == "sqlite" else 0)
        assert counts == [(2, 3)] * 3


class TestSQLitePerThreadConnections:
    def test_each_thread_gets_its_own_connection(self):
        executor, query = build_executor("sqlite")
        executor.evaluate(query)
        barrier = threading.Barrier(4)

        def touch():
            barrier.wait(timeout=30)
            executor.evaluate(query)
            return threading.get_ident()

        with ThreadPoolExecutor(max_workers=4) as pool:
            idents = {future.result(timeout=60) for future in [
                pool.submit(touch) for _ in range(4)
            ]}
        # One pooled connection per distinct thread that touched the executor
        # (plus the main thread's).  White-box reads of the pool table hold
        # its lock (REPRO_DEBUG_LOCKS enforces this).
        pool_state = executor._sqlite_pool
        with pool_state._lock:
            pooled = set(pool_state._executors)
        assert idents <= pooled
        assert threading.get_ident() in pooled

    def test_pool_is_bounded(self):
        from repro.relational.executor import _SQLiteConnectionPool

        executor, query = build_executor("sqlite")
        cap = _SQLiteConnectionPool.MAX_CONNECTIONS

        def touch():
            executor.evaluate(query)

        for _ in range(cap + 8):
            thread = threading.Thread(target=touch)
            thread.start()
            thread.join(timeout=60)
        with executor._sqlite_pool._lock:
            assert len(executor._sqlite_pool._executors) <= cap

    def test_close_connections_clears_pool(self):
        executor, query = build_executor("sqlite")
        executor.evaluate(query)
        assert executor._sqlite_pool.get() is not None
        executor.close_connections()
        assert executor._sqlite_pool.get() is None
        # The executor reopens lazily and stays correct.
        assert executor.evaluate(query).projected.rows
