"""End-to-end tests of the HTTP front end.

The headline property: N concurrent server responses are byte-identical to a
serial one-shot CLI run of the same request, on every registered dataset.
Each case runs at the default epsilon of 0.5, where the students,
law_students and meps queries already fit and are answered unsolved, and at
epsilon 0, where every case needs a MILP solve.
"""

from __future__ import annotations

import http.client
import json
import socket
import statistics
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.cli import main
from repro.datasets.registry import DATASET_BUILDERS
from repro.service import (
    RefinementEngine,
    RefinementServer,
    RefineRequest,
    RefineResponse,
    SessionPool,
)

#: Small instances of every registered dataset plus a constraint that names
#: attributes the dataset actually has (Table 6, constraint (1)).
DATASET_CASES = {
    "students": ({}, "3@6:Gender=F"),
    "astronauts": ({"num_rows": 80}, "5@10:Gender=F"),
    "law_students": ({"num_rows": 300}, "5@10:Sex=F"),
    "meps": ({"num_rows": 300}, "5@10:Sex=F"),
    "tpch": ({"scale_factor": 0.05}, "2@10:MktSegment=AUTOMOBILE"),
}


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


#: The default epsilon, and one at which no case fits as it stands.
EPSILONS = (0.5, 0.0)


def wire_request(
    dataset: str, method: str = "milp+opt", epsilon: float = 0.5
) -> dict:
    parameters, constraint = DATASET_CASES[dataset]
    bound_and_k, _, group_text = constraint.partition(":")
    bound, _, k = bound_and_k.partition("@")
    attribute, _, value = group_text.partition("=")
    payload = {
        "dataset": dataset,
        "constraints": [
            {
                "kind": "at_least",
                "bound": int(bound),
                "k": int(k),
                "group": {attribute: value},
            }
        ],
        "method": method,
        "jobs": 1,
        "epsilon": epsilon,
    }
    if parameters:
        payload["dataset_parameters"] = parameters
    return payload


def cli_arguments(dataset: str, method: str, epsilon: float = 0.5) -> list[str]:
    parameters, constraint = DATASET_CASES[dataset]
    arguments = [
        "refine", "--dataset", dataset, "--at-least", constraint,
        "--method", method, "--jobs", "1", "--epsilon", str(epsilon), "--json",
    ]
    if "num_rows" in parameters:
        arguments += ["--rows", str(parameters["num_rows"])]
    if "scale_factor" in parameters:
        arguments += ["--scale-factor", str(parameters["scale_factor"])]
    return arguments


def canonical(payload: dict) -> str:
    return RefineResponse.from_dict(payload).canonical_json()


@pytest.fixture(scope="module")
def server():
    engine = RefinementEngine(sessions=SessionPool(capacity=len(DATASET_CASES)))
    with RefinementServer(port=0, engine=engine) as running:
        yield running


@pytest.fixture(scope="module")
def base_url(server):
    return f"http://127.0.0.1:{server.port}"


class TestEndpoints:
    def test_health(self, base_url):
        assert get_json(base_url + "/health") == {"status": "ok"}

    def test_datasets(self, base_url):
        assert get_json(base_url + "/datasets") == {
            "datasets": sorted(DATASET_BUILDERS)
        }

    def test_unknown_path_is_404(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get_json(base_url + "/nope")
        assert excinfo.value.code == 404

    def test_invalid_request_is_400(self, base_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/refine", {"dataset": "students"})
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())

    def test_unknown_dataset_is_400(self, base_url):
        payload = wire_request("students")
        payload["dataset"] = "nope"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post_json(base_url + "/refine", payload)
        assert excinfo.value.code == 400

    def test_stats(self, base_url):
        stats = get_json(base_url + "/stats")
        assert "coalescer" in stats
        assert "sessions" in stats

    def test_keep_alive_responses_do_not_wait_for_a_delayed_ack(self, server):
        # Headers and body go out as two writes; with Nagle's algorithm on,
        # the body waits for the client's delayed ACK (40 ms or more).
        connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        latencies = []
        try:
            for _ in range(20):
                started = time.perf_counter()
                connection.request("GET", "/health")
                response = connection.getresponse()
                assert json.loads(response.read()) == {"status": "ok"}
                latencies.append(time.perf_counter() - started)
        finally:
            connection.close()
        assert statistics.median(latencies) < 0.010


class TestServerCliParity:
    """Concurrent server answers == serial one-shot CLI answers, byte for byte."""

    def test_dataset_cases_cover_every_registered_dataset(self):
        assert set(DATASET_CASES) == set(DATASET_BUILDERS)

    @pytest.mark.parametrize("dataset", sorted(DATASET_CASES))
    def test_concurrent_refine_matches_one_shot_cli(
        self, dataset, base_url, capsys
    ):
        method = "milp+opt"
        for epsilon in EPSILONS:
            main(cli_arguments(dataset, method, epsilon))
            expected = canonical(json.loads(capsys.readouterr().out))

            payload = wire_request(dataset, method, epsilon)
            workers = 4
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(post_json, base_url + "/refine", payload)
                    for _ in range(workers)
                ]
                responses = [future.result(timeout=120) for future in futures]
            assert [canonical(response) for response in responses] == [
                expected
            ] * workers

    def test_concurrent_mixed_datasets(self, base_url):
        """Interleaved requests across datasets stay isolated from each other."""
        cases = [
            (dataset, epsilon) for dataset in sorted(DATASET_CASES) for epsilon in EPSILONS
        ] * 2
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            futures = {
                pool.submit(
                    post_json,
                    base_url + "/refine",
                    wire_request(dataset, epsilon=epsilon),
                ): (dataset, epsilon)
                for dataset, epsilon in cases
            }
            by_case: dict[tuple[str, float], list[str]] = {}
            for future, case in futures.items():
                by_case.setdefault(case, []).append(
                    canonical(future.result(timeout=180))
                )
        for (dataset, epsilon), answers in by_case.items():
            assert len(set(answers)) == 1, f"{dataset} answers diverged"
            request = json.loads(answers[0])["request"]
            assert (request["dataset"], request["epsilon"]) == (dataset, epsilon)

    def test_exhaustive_method_parity(self, base_url, capsys):
        main(cli_arguments("students", "naive+prov"))
        expected = canonical(json.loads(capsys.readouterr().out))
        response = post_json(base_url + "/refine", wire_request("students", "naive+prov"))
        assert canonical(response) == expected

    def test_server_response_includes_timings(self, base_url):
        for epsilon in EPSILONS:
            response = post_json(
                base_url + "/refine", wire_request("students", epsilon=epsilon)
            )
            assert "total_seconds" in response["timings"]


def read_until_closed(connection: socket.socket) -> bytes:
    chunks = []
    while chunk := connection.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


class TestServeProgrammatic:
    def test_a_burst_admission_would_admit_is_answered_at_once(self):
        # As many connections as admission control admits (running plus
        # queued), all opened before the server accepts any: each must fit
        # the listen backlog.  A connection that does not has its SYN
        # dropped and resent about a second later.
        server = RefinementServer(port=0)
        capacity = server.admission.max_concurrency + server.admission.max_queue
        connections = []
        try:
            for _ in range(capacity):
                connection = socket.socket()
                connections.append(connection)
                connection.setblocking(False)
                connection.connect_ex(("127.0.0.1", server.port))
        finally:
            server.start()
        try:
            started = time.perf_counter()
            for connection in connections:
                # Blocking again: a send waits for the handshake to finish.
                connection.settimeout(10)
                connection.sendall(
                    b"GET /health HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    b"Connection: close\r\n\r\n"
                )
            replies = [read_until_closed(connection) for connection in connections]
            elapsed = time.perf_counter() - started
        finally:
            for connection in connections:
                connection.close()
            server.shutdown()
        assert all(reply.endswith(b'{"status": "ok"}') for reply in replies)
        assert elapsed < 0.5

    def test_refine_facade_used_by_handler(self):
        engine = RefinementEngine()
        with RefinementServer(port=0, engine=engine) as running:
            for served, epsilon in enumerate(EPSILONS, start=1):
                payload = wire_request("students", epsilon=epsilon)
                response = post_json(
                    f"http://127.0.0.1:{running.port}/refine", payload
                )
                assert response["feasible"] is not None
                assert engine.requests_served == served
        # Shutdown closed the pool's sessions.
        assert engine.sessions.sessions() == []

    def test_request_object_round_trips_through_wire_form(self):
        payload = wire_request("students")
        request = RefineRequest.from_dict(payload)
        assert RefineRequest.from_dict(request.to_dict()) == request
