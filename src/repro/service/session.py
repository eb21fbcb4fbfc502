"""Warm per-dataset state and the LRU pool of sessions.

A :class:`DatasetSession` owns everything expensive a dataset accumulates
across refine requests:

* the built :class:`~repro.datasets.registry.DatasetBundle` (the data load);
* one shared, thread-safe :class:`~repro.relational.QueryExecutor` — its
  per-query-shape join/ordered-join caches (and, on the sqlite backend, the
  per-thread pool of in-memory stores) serve every request;
* the provenance annotation of ``~Q(D)`` (computed once, read by all four
  engines);
* the immutable :class:`~repro.core.MaskIndexData` column views that
  ``Naive+prov``'s block kernel reads (each search builds its own tables
  from them);
* prepared MILPs (:class:`~repro.core.PreparedProblem`) keyed by problem, so
  a repeated request re-solves from the cached lowered standard form instead
  of re-running setup.

:class:`SessionPool` bounds the number of live sessions with LRU eviction;
an evicted session's sqlite connections are closed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Mapping

from repro.analysis.debug_locks import guard_mapping
from repro.core.naive import MaskIndexData
from repro.core.solver import PreparedProblem
from repro.datasets import load_dataset
from repro.provenance.lineage import AnnotatedDatabase, annotate
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor
from repro.relational.query import SPJQuery


def session_key(dataset: str, parameters: Mapping | None = None) -> tuple:
    """Canonical identity of a dataset configuration (used by pool and server)."""
    return (dataset, tuple(sorted((parameters or {}).items())))


class DatasetSession:
    """The warm state of one dataset configuration.

    Thread-safe: cache construction is serialized behind one lock.  The
    annotation and the mask-index data are immutable and the executor is
    internally locked, so concurrent refine requests read them freely.  A
    prepared MILP is not immutable — solving it may append cut rows to its
    model — so ``RefinementSolver.solve`` holds the prepared problem's
    ``solve_lock`` while it solves.  Solves run outside the session lock.
    """

    #: Prepared MILPs kept per session; each holds a lowered standard form,
    #: so the cache is bounded to keep memory proportional to distinct
    #: problems actually in rotation.
    MILP_CACHE_SIZE = 32

    def __init__(
        self,
        dataset: str,
        parameters: Mapping | None = None,
        executor_backend: str | None = None,
    ) -> None:
        self.dataset = dataset
        self.parameters = dict(parameters or {})
        self.bundle = load_dataset(dataset, **self.parameters)
        self.executor = QueryExecutor(self.bundle.database, backend=executor_backend)
        self._lock = threading.RLock()
        self._annotated: AnnotatedDatabase | None = None
        self._mask_data: MaskIndexData | None = None
        self._mask_data_built = False
        self._prepared_milps: OrderedDict[tuple, PreparedProblem] = guard_mapping(
            OrderedDict(), self._lock, "DatasetSession._prepared_milps"
        )
        self.warmed = False

    @property
    def key(self) -> tuple:
        return session_key(self.dataset, self.parameters)

    @property
    def database(self) -> Database:
        return self.bundle.database

    @property
    def query(self) -> SPJQuery:
        return self.bundle.query

    # -- warm state ---------------------------------------------------------------

    def warm(self) -> "DatasetSession":
        """Pay the dataset's warm-up cost up front (idempotent).

        Evaluates the query (filling the executor's join/sort caches — and,
        on the sqlite backend, loading the store), annotates ``~Q(D)`` and
        builds the shared mask-index data.
        """
        with self._lock:
            self.executor.evaluate(self.bundle.query)
            self.annotated()
            self.mask_data()
            self.warmed = True
        return self

    def annotated(self) -> AnnotatedDatabase:
        """The provenance annotation of ``~Q(D)``, computed once per session."""
        with self._lock:
            if self._annotated is None:
                self._annotated = annotate(
                    self.bundle.query, self.bundle.database, executor=self.executor
                )
            return self._annotated

    def mask_data(self) -> MaskIndexData | None:
        """Shared (immutable) column views for ``Naive+prov``'s block kernel.

        ``None`` when a predicate column has no float or code view; the
        search then evaluates each candidate on the executor.
        """
        with self._lock:
            if not self._mask_data_built:
                unfiltered = self.executor.evaluate_unfiltered(self.bundle.query)
                self._mask_data = MaskIndexData.build(
                    self.bundle.query, unfiltered.relation
                )
                self._mask_data_built = True
            return self._mask_data

    def prepared_milp(
        self, key: tuple, factory: Callable[[], PreparedProblem]
    ) -> PreparedProblem:
        """The prepared MILP for one problem key, built on first use (LRU).

        The build runs under the session lock: concurrent *distinct* problems
        serialize their setup (solves still run concurrently).  Concurrent
        requests for one problem can reach here with the same key: the
        coalescer keys on the whole request, so requests differing only in
        ``time_limit``, ``deadline_s`` or ``backend`` are not merged.  They
        get the same prepared problem, whose ``solve_lock`` makes their
        solves take turns.
        """
        with self._lock:
            prepared = self._prepared_milps.get(key)
            if prepared is not None:
                self._prepared_milps.move_to_end(key)
                return prepared
            prepared = factory()
            self._prepared_milps[key] = prepared
            while len(self._prepared_milps) > self.MILP_CACHE_SIZE:
                self._prepared_milps.popitem(last=False)
            return prepared

    def close(self) -> None:
        """Release per-session resources (pooled sqlite connections)."""
        self.executor.close_connections()

    def describe(self) -> dict:
        """Session summary for the server's stats endpoint."""
        with self._lock:
            return {
                "dataset": self.dataset,
                "parameters": dict(self.parameters),
                "warmed": self.warmed,
                "annotated": self._annotated is not None,
                "prepared_milps": len(self._prepared_milps),
            }


class SessionPool:
    """An LRU cache of :class:`DatasetSession`\\ s, keyed by configuration."""

    def __init__(self, capacity: int = 4, executor_backend: str | None = None) -> None:
        if capacity < 1:
            raise ValueError(f"session pool capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.executor_backend = executor_backend
        self._lock = threading.RLock()
        self._sessions: OrderedDict[tuple, DatasetSession] = guard_mapping(
            OrderedDict(), self._lock, "SessionPool._sessions"
        )
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(
        self, dataset: str, parameters: Mapping | None = None, warm: bool = False
    ) -> DatasetSession:
        """The (created-on-miss) session for a dataset configuration."""
        key = session_key(dataset, parameters)
        evicted: list[DatasetSession] = []
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                self._sessions.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
                session = DatasetSession(
                    dataset, parameters, executor_backend=self.executor_backend
                )
                self._sessions[key] = session
                while len(self._sessions) > self.capacity:
                    _, stale = self._sessions.popitem(last=False)
                    evicted.append(stale)
                    self.evictions += 1
        for stale in evicted:
            stale.close()
        if warm and not session.warmed:
            session.warm()
        return session

    def adopt(self, session: DatasetSession) -> DatasetSession:
        """Register an externally built session (the one-shot CLI path).

        Lets a caller control the exact executor configuration (e.g. the
        CLI's ``--executor-backend``) while still serving it through the pool.
        """
        evicted: list[DatasetSession] = []
        with self._lock:
            stale = self._sessions.pop(session.key, None)
            if stale is not None and stale is not session:
                evicted.append(stale)
            self._sessions[session.key] = session
            while len(self._sessions) > self.capacity:
                _, old = self._sessions.popitem(last=False)
                evicted.append(old)
                self.evictions += 1
        for old in evicted:
            old.close()
        return session

    def sessions(self) -> list[DatasetSession]:
        with self._lock:
            return list(self._sessions.values())

    def close(self) -> None:
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.close()

    def describe(self) -> dict:
        return {
            "capacity": self.capacity,
            "sessions": [session.describe() for session in self.sessions()],
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }


__all__ = ["DatasetSession", "SessionPool", "session_key"]
