"""Tests for request coalescing: concurrent duplicates solve exactly once."""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import RefinementEngine, RefineRequest, RequestCoalescer
from repro.service.engine import ConstraintSpec


class TestRequestCoalescer:
    def test_single_caller_computes(self):
        coalescer = RequestCoalescer()
        assert coalescer.run("k", lambda: 42) == 42
        assert coalescer.started == 1
        assert coalescer.coalesced == 0

    def test_sequential_calls_do_not_coalesce(self):
        coalescer = RequestCoalescer()
        calls = []
        for _ in range(3):
            coalescer.run("k", lambda: calls.append(1))
        assert coalescer.started == 3
        assert coalescer.coalesced == 0

    def test_concurrent_duplicates_share_one_computation(self):
        coalescer = RequestCoalescer()
        release = threading.Event()
        solves = []

        def compute():
            solves.append(threading.get_ident())
            release.wait(timeout=10.0)
            return "answer"

        workers = 8
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(coalescer.run, "k", compute) for _ in range(workers)]
            # Wait until the leader is inside compute() and everyone else joined.
            deadline = time.monotonic() + 10.0
            while coalescer.coalesced < workers - 1 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            results = [future.result(timeout=10.0) for future in futures]
        assert results == ["answer"] * workers
        assert len(solves) == 1
        assert coalescer.started == 1
        assert coalescer.coalesced == workers - 1

    def test_distinct_keys_run_independently(self):
        coalescer = RequestCoalescer()
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [
                pool.submit(coalescer.run, key, lambda key=key: key * 2)
                for key in range(4)
            ]
            assert sorted(future.result() for future in futures) == [0, 2, 4, 6]
        assert coalescer.started == 4
        assert coalescer.coalesced == 0

    def test_leader_error_propagates_to_waiters(self):
        coalescer = RequestCoalescer()
        release = threading.Event()

        def explode():
            release.wait(timeout=10.0)
            raise ValueError("boom")

        with ThreadPoolExecutor(max_workers=3) as pool:
            futures = [pool.submit(coalescer.run, "k", explode) for _ in range(3)]
            deadline = time.monotonic() + 10.0
            while coalescer.coalesced < 2 and time.monotonic() < deadline:
                time.sleep(0.005)
            release.set()
            for future in futures:
                with pytest.raises(ValueError, match="boom"):
                    future.result(timeout=10.0)
        # A failed computation must not leave the key stuck in-flight.
        assert coalescer.run("k", lambda: "fresh") == "fresh"


class TestEngineCoalescing:
    """The solve-counter proof: N identical concurrent requests, one solve."""

    def test_identical_requests_solve_once(self, monkeypatch):
        release = threading.Event()
        solves = []
        original = RefinementEngine._refine

        def slow_refine(self, request):
            solves.append(request.cache_key())
            release.wait(timeout=30.0)
            return original(self, request)

        monkeypatch.setattr(RefinementEngine, "_refine", slow_refine)
        # At epsilon 0.5 the query already fits and is answered unsolved; at
        # epsilon 0 the computation the waiters share is a MILP solve.
        for epsilon in (0.5, 0.0):
            engine = RefinementEngine()
            release.clear()
            solves.clear()
            request = RefineRequest(
                dataset="students",
                constraints=(ConstraintSpec("at_least", 3, 6, (("Gender", "F"),)),),
                epsilon=epsilon,
            )
            workers = 6
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(engine.refine, request) for _ in range(workers)]
                deadline = time.monotonic() + 30.0
                while (
                    engine.coalescer.coalesced < workers - 1
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.005)
                release.set()
                responses = [future.result(timeout=30.0) for future in futures]
            assert len(solves) == 1, "identical concurrent requests must solve once"
            assert engine.solves_started == 1
            assert engine.coalescer.coalesced == workers - 1
            assert engine.requests_served == workers
            canonical = responses[0].canonical_json()
            assert all(response.canonical_json() == canonical for response in responses)
            assert ("original_fits" in responses[0].statistics) == (epsilon == 0.5)
