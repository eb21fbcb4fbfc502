"""Live-server chaos: every injection point against ``repro serve``.

The serving SLA under fault injection: every request gets a *typed* response
(degraded 200, or a taxonomy error with the right status) within its deadline
plus a 0.5 s grace — no hangs, no untyped 500 tracebacks, no corrupted store.
The whole module runs under ``REPRO_DEBUG_LOCKS=1``, so every guarded
structure the scenarios touch is also asserting its lock discipline.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.service.admission import AdmissionController
from repro.service.engine import RefinementEngine
from repro.service.server import RefinementServer
from repro.service.session import SessionPool

#: Grace on top of a request's deadline before a response counts as a hang.
_SLA_GRACE_S = 0.5


def _wire(method: str = "naive", **overrides) -> dict:
    """The students ``3@6 Gender=F`` request.

    At the default epsilon of 0.5 the query already fits (deviation 1/3), so
    the MILP methods answer it unsolved; at epsilon 0 every engine refines
    it (``Activity: +{SO}``, distance 0.5), which the MILP scenarios need to
    reach the backend.
    """
    payload = {
        "dataset": "students",
        "constraints": [
            {"kind": "at_least", "bound": 3, "k": 6, "group": {"Gender": "F"}}
        ],
        "method": method,
    }
    payload.update(overrides)
    return payload


def _post(server: RefinementServer, payload: dict) -> tuple[int, dict, dict, float]:
    """POST /refine; returns (status, body, headers, elapsed_seconds)."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    started = time.monotonic()
    try:
        connection.request(
            "POST",
            "/refine",
            body=json.dumps(payload).encode(),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        return response.status, body, dict(response.getheaders()), (
            time.monotonic() - started
        )
    finally:
        connection.close()


def _assert_within_sla(elapsed: float, deadline_s: float) -> None:
    assert elapsed <= deadline_s + _SLA_GRACE_S, (
        f"response took {elapsed:.2f}s against a {deadline_s}s deadline"
    )


def _assert_typed_error(status: int, body: dict) -> None:
    assert "error" in body and "code" in body and "retryable" in body, body
    assert status != 500 or body["code"] != "internal" or body["error"], body


@pytest.fixture(scope="module")
def chaos_server():
    with pytest.MonkeyPatch.context() as patcher:
        patcher.setenv("REPRO_DEBUG_LOCKS", "1")
        engine = RefinementEngine(sessions=SessionPool(capacity=2))
        with RefinementServer(
            port=0,
            engine=engine,
            admission=AdmissionController(
                max_concurrency=2, max_queue=2, queue_timeout_s=5.0
            ),
            default_deadline_s=30.0,
            drain_timeout_s=5.0,
        ) as server:
            yield server


class TestBodyGuards:
    def test_oversized_body_is_typed_413(self, chaos_server):
        connection = http.client.HTTPConnection(
            "127.0.0.1", chaos_server.port, timeout=30
        )
        try:
            connection.putrequest("POST", "/refine")
            connection.putheader("Content-Type", "application/json")
            connection.putheader("Content-Length", str(64 << 20))
            connection.endheaders()
            # Send only a sliver; the guard rejects on the declared length
            # without reading (or allocating) the advertised 64 MiB.
            connection.send(b"{}")
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 413
        assert body["code"] == "body_too_large"

    def test_malformed_json_is_typed_400(self, chaos_server):
        status, body, _, _ = _post_raw(chaos_server, b"{not json")
        assert status == 400
        assert body["code"] == "malformed_request"

    def test_non_object_payload_is_typed_400(self, chaos_server):
        status, body, _, _ = _post_raw(chaos_server, b"[1, 2, 3]")
        assert status == 400
        assert body["code"] == "malformed_request"

    def test_missing_fields_are_typed_400(self, chaos_server):
        status, body, _, elapsed = _post(chaos_server, {"dataset": "students"})
        assert status == 400
        _assert_typed_error(status, body)


def _post_raw(server: RefinementServer, raw: bytes) -> tuple[int, dict, dict, float]:
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
    started = time.monotonic()
    try:
        connection.request(
            "POST", "/refine", body=raw, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        return response.status, body, dict(response.getheaders()), (
            time.monotonic() - started
        )
    finally:
        connection.close()


class TestInjectionScenarios:
    """Each armed injection point answers typed and within the SLA."""

    def test_slow_solve_still_answers_within_sla(self, chaos_server, fault_env):
        plan = fault_env(REPRO_FAULT_SLOW_SOLVE="1.0,seconds=0.1")
        status, body, _, elapsed = _post(
            chaos_server, _wire("milp", deadline_s=10.0, epsilon=0.0)
        )
        assert status == 200 and body["feasible"]
        _assert_within_sla(elapsed, 10.0)
        assert plan.fired["slow-solve"] >= 1

    def test_backend_raise_degrades_to_exhaustive(self, chaos_server, fault_env):
        fault_env(REPRO_FAULT_BACKEND_RAISE="1.0")
        status, body, _, elapsed = _post(
            chaos_server, _wire("milp+opt", deadline_s=10.0, epsilon=0.0)
        )
        assert status == 200
        assert body["engine"] == "exhaustive"
        assert body["statistics"]["degraded"]["from"] == "milp+opt"
        assert body["statistics"]["degraded"]["to"] == "naive+prov"
        _assert_within_sla(elapsed, 10.0)

    def test_storm_sheds_typed_429_with_retry_after(self, chaos_server, fault_env):
        fault_env(REPRO_FAULT_SLOW_SOLVE="1.0,seconds=0.4")
        # A problem no earlier scenario proved: a proven one answers from
        # its prepared problem without reaching the slowed backend.
        payload = _wire("milp", deadline_s=10.0, epsilon=0.0, distance="jaccard")
        results: list[tuple[int, dict, dict, float]] = []
        lock = threading.Lock()

        def fire():
            outcome = _post(chaos_server, payload)
            with lock:
                results.append(outcome)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        codes = sorted(status for status, _, _, _ in results)
        assert len(codes) == 8
        # 2 solving + 2 queued admit eventually; the overflow sheds as 429.
        assert codes.count(429) >= 1
        for status, body, headers, elapsed in results:
            _assert_within_sla(elapsed, 10.0)
            if status == 429:
                assert body["code"] == "queue_full" and body["retryable"]
                assert "Retry-After" in headers

    def test_three_engine_parity_after_the_scenarios(self, chaos_server):
        """With faults disarmed, the engines agree again — nothing corrupted.

        Both on the query as it stands (epsilon 0.5) and on a refinement
        (epsilon 0), which the MILP has to solve for.
        """
        for epsilon in (0.5, 0.0):
            answers = {}
            for method in ("naive", "naive+prov", "milp"):
                status, body, _, _ = _post(chaos_server, _wire(method, epsilon=epsilon))
                assert status == 200, body
                answers[method] = (
                    body["feasible"],
                    body["refinement"],
                    round(body["distance_value"], 6),
                    round(body["deviation"], 6),
                )
            assert answers["naive"] == answers["naive+prov"] == answers["milp"]


class TestStoreChaosThroughTheServer:
    @pytest.fixture
    def sqlite_server(self, tmp_path):
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setenv("REPRO_DEBUG_LOCKS", "1")
            engine = RefinementEngine(
                sessions=SessionPool(
                    capacity=2,
                    executor_backend="sqlite",
                    executor_db_dir=str(tmp_path),
                )
            )
            with RefinementServer(
                port=0, engine=engine, default_deadline_s=30.0, drain_timeout_s=5.0
            ) as server:
                yield server

    def test_permanent_lock_is_typed_retryable_within_deadline(
        self, sqlite_server, fault_env
    ):
        # Warm the session first so only the locked access is under fault.
        status, _, _, _ = _post(sqlite_server, _wire("naive"))
        assert status == 200

        fault_env(REPRO_FAULT_SQLITE_LOCK="1.0")
        status, body, headers, elapsed = _post(
            sqlite_server, _wire("naive", deadline_s=2.0)
        )
        assert status == 503
        assert body["code"] == "store_locked" and body["retryable"]
        _assert_within_sla(elapsed, 2.0)

    def test_transient_corruption_rebuilds_and_serves(self, sqlite_server, fault_env):
        status, reference, _, _ = _post(sqlite_server, _wire("naive"))
        assert status == 200

        fault_env(REPRO_FAULT_SQLITE_CORRUPT="1.0,attempts=1")
        status, body, _, elapsed = _post(
            sqlite_server, _wire("naive", deadline_s=30.0)
        )
        assert status == 200
        assert body["refinement"] == reference["refinement"]
        _assert_within_sla(elapsed, 30.0)


class TestDrainingShutdown:
    def test_draining_sheds_typed_and_health_reports_it(self):
        with pytest.MonkeyPatch.context() as patcher:
            patcher.setenv("REPRO_DEBUG_LOCKS", "1")
            server = RefinementServer(
                port=0, default_deadline_s=10.0, drain_timeout_s=2.0
            ).start()
            try:
                status, _, _, _ = _post(server, _wire("naive"))
                assert status == 200
                server.admission.begin_drain()
                connection = http.client.HTTPConnection(
                    "127.0.0.1", server.port, timeout=10
                )
                try:
                    connection.request("GET", "/health")
                    health = json.loads(connection.getresponse().read())
                finally:
                    connection.close()
                assert health["status"] == "draining"
                status, body, _, _ = _post(server, _wire("naive"))
                assert status == 503
                assert body["code"] == "draining"
            finally:
                server.shutdown()
