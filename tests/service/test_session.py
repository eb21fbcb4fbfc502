"""Tests for warm dataset sessions and the LRU session pool."""

from __future__ import annotations

import pytest

from repro.relational import QueryExecutor
from repro.service import DatasetSession, SessionPool
from repro.service.session import session_key


class TestSessionKey:
    def test_parameter_order_is_canonical(self):
        assert session_key("meps", {"num_rows": 3, "seed": 1}) == session_key(
            "meps", {"seed": 1, "num_rows": 3}
        )

    def test_none_parameters(self):
        assert session_key("students") == session_key("students", {})


class TestDatasetSession:
    @pytest.fixture(scope="class")
    def session(self):
        return DatasetSession("students")

    def test_warm_is_idempotent(self, session):
        assert not session.warmed
        assert session.warm() is session
        assert session.warmed
        annotated = session.annotated()
        session.warm()
        assert session.annotated() is annotated

    def test_annotated_is_cached(self, session):
        assert session.annotated() is session.annotated()

    def test_mask_data_is_cached(self, session):
        first = session.mask_data()
        assert session.mask_data() is first

    def test_prepared_milp_builds_once_per_key(self, session):
        builds = []

        def factory():
            builds.append(1)
            return object()

        first = session.prepared_milp(("k1",), factory)
        assert session.prepared_milp(("k1",), factory) is first
        assert len(builds) == 1
        session.prepared_milp(("k2",), factory)
        assert len(builds) == 2

    def test_prepared_milp_cache_is_bounded(self):
        session = DatasetSession("students")
        for index in range(session.MILP_CACHE_SIZE + 5):
            session.prepared_milp((index,), object)
        # White-box reads of the LRU hold the session lock (REPRO_DEBUG_LOCKS).
        with session._lock:
            assert len(session._prepared_milps) == session.MILP_CACHE_SIZE
            # The oldest keys were evicted, the newest survive.
            assert (0,) not in session._prepared_milps
            assert (session.MILP_CACHE_SIZE + 4,) in session._prepared_milps

    def test_describe(self, session):
        summary = session.describe()
        assert summary["dataset"] == "students"
        assert summary["warmed"] is True
        assert summary["annotated"] is True


class TestSessionPool:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            SessionPool(capacity=0)

    def test_get_caches_by_configuration(self):
        pool = SessionPool(capacity=2)
        one = pool.get("students")
        assert pool.get("students") is one
        assert pool.hits == 1
        assert pool.misses == 1
        other = pool.get("astronauts", {"num_rows": 40})
        assert other is not one
        assert pool.misses == 2

    def test_distinct_parameters_are_distinct_sessions(self):
        pool = SessionPool(capacity=4)
        small = pool.get("astronauts", {"num_rows": 30})
        large = pool.get("astronauts", {"num_rows": 60})
        assert small is not large
        assert len(small.database.relation("Astronauts")) != len(
            large.database.relation("Astronauts")
        )

    def test_lru_eviction_closes_oldest(self):
        pool = SessionPool(capacity=1)
        first = pool.get("students")
        closed = []
        first.close = lambda: closed.append("students")  # observe the close
        pool.get("astronauts", {"num_rows": 30})
        assert pool.evictions == 1
        assert closed == ["students"]
        assert [session.dataset for session in pool.sessions()] == ["astronauts"]

    def test_recently_used_survives_eviction(self):
        pool = SessionPool(capacity=2)
        pool.get("students")
        pool.get("astronauts", {"num_rows": 30})
        pool.get("students")  # refresh: students is now most recent
        pool.get("law_students", {"num_rows": 60})
        datasets = {session.dataset for session in pool.sessions()}
        assert datasets == {"students", "law_students"}

    def test_get_warm(self):
        pool = SessionPool(capacity=2)
        session = pool.get("students", warm=True)
        assert session.warmed

    def test_adopt_registers_and_replaces(self):
        pool = SessionPool(capacity=2)
        first = pool.get("students")
        replacement = DatasetSession("students")
        closed = []
        first.close = lambda: closed.append("old")
        assert pool.adopt(replacement) is replacement
        assert pool.get("students") is replacement
        assert closed == ["old"]

    def test_close_empties_pool(self):
        pool = SessionPool(capacity=2)
        pool.get("students")
        pool.close()
        assert pool.sessions() == []

    def test_describe(self):
        pool = SessionPool(capacity=2)
        pool.get("students")
        summary = pool.describe()
        assert summary["capacity"] == 2
        assert len(summary["sessions"]) == 1
        assert summary["misses"] == 1

    def test_two_sqlite_sessions_stay_usable(self):
        """Two sizes of one dataset hold relations of the same names; on the
        sqlite backend each session answers over its own, in turn."""
        pool = SessionPool(capacity=4, executor_backend="sqlite")
        sessions = [pool.get("meps", {"num_rows": rows}) for rows in (200, 300)]
        expected = [
            QueryExecutor(session.database, backend="memory").evaluate(session.query)
            for session in sessions
        ]
        for _ in range(2):
            for session, result in zip(sessions, expected):
                rows = session.executor.evaluate(session.query).relation.rows
                assert rows == result.relation.rows
        pool.close()
