"""The refine request's wire contract: value ranges and the retired ``jobs``.

:meth:`RefineRequest.validate` range-checks every numeric field before any
work starts (cases in ``test_engine.py``).  Here the same checks answer a
typed 400 ``refinement`` error over HTTP, where ``json.loads`` reads a bare
``NaN`` or ``Infinity``, and exit 2 on the CLI.

Every search runs in the serving process.  A request may still carry
``"jobs"`` absent, ``null`` or ``1`` (what older clients sent) and gets the
same answer, byte for byte; any other value is refused.  No method forks.
"""

from __future__ import annotations

import http.client
import json
import os

import pytest

from repro.cli import main
from repro.service import (
    RefinementEngine,
    RefinementServer,
    RefineRequest,
    RefineResponse,
    SessionPool,
)


def wire(method: str = "milp+opt", **fields) -> dict:
    """Students, at least 3 women in the top 6, epsilon 0 (the original
    query misses it, so every method has work to do)."""
    payload = {
        "dataset": "students",
        "constraints": [
            {"kind": "at_least", "bound": 3, "k": 6, "group": {"Gender": "F"}}
        ],
        "epsilon": 0.0,
        "method": method,
    }
    payload.update(fields)
    return payload


@pytest.fixture(scope="module")
def server():
    with RefinementServer(port=0, engine=RefinementEngine(SessionPool(capacity=1))) as running:
        yield running


def post(server, body: str | bytes) -> tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
    try:
        connection.request(
            "POST", "/refine", body=body, headers={"Content-Type": "application/json"}
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


# -- numeric ranges --------------------------------------------------------------------


@pytest.mark.parametrize(
    "method, name, literal",
    [
        ("milp+opt", "deadline_s", "NaN"),
        ("naive+prov", "epsilon", "NaN"),
        ("portfolio", "deadline_s", "Infinity"),
        ("portfolio", "deadline_s", "1e300"),
    ],
)
def test_out_of_range_json_literals_are_a_typed_400(server, method, name, literal):
    payload = wire(method)
    payload[name] = 0.25  # a placeholder swapped for the bare literal
    body = json.dumps(payload).replace(f'"{name}": 0.25', f'"{name}": {literal}')
    assert literal in body
    status, answer = post(server, body)
    assert status == 400
    assert answer["code"] == "refinement"
    assert name in answer["error"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "naive+prov", "--epsilon", "-1"],
        ["--method", "naive+prov", "--epsilon", "nan"],
        ["--method", "milp", "--time-limit", "0"],
        ["--method", "milp+opt", "--deadline", "nan"],
        ["--method", "naive", "--max-candidates", "-5"],
        ["--method", "erica", "--output-size", "0"],
    ],
    ids=["epsilon-negative", "epsilon-nan", "time-limit-zero", "deadline-nan",
         "max-candidates-negative", "output-size-zero"],
)
def test_cli_refuses_out_of_range_values(capsys, flags):
    argv = ["refine", "--dataset", "students", "--at-least", "3@6:Gender=F", *flags]
    if "--epsilon" not in flags:
        argv += ["--epsilon", "0"]
    assert main(argv) == 2
    assert "error [refinement]" in capsys.readouterr().err


# -- the retired jobs field ------------------------------------------------------------


def test_jobs_one_is_the_request_without_jobs():
    bare = RefineRequest.from_dict(wire("naive"))
    for jobs in (None, 1):
        request = RefineRequest.from_dict(wire("naive", jobs=jobs))
        assert request == bare
        assert request.cache_key() == bare.cache_key()
        assert "jobs" not in request.to_dict()


@pytest.mark.parametrize("method", ["naive", "naive+prov"])
def test_jobs_absent_null_or_one_answer_the_same_bytes(server, method):
    answers = []
    for fields in ({}, {"jobs": None}, {"jobs": 1}):
        status, answer = post(server, json.dumps(wire(method, **fields)))
        assert status == 200, answer
        assert "jobs" not in answer["statistics"]
        answers.append(RefineResponse.from_dict(answer).canonical_json())
    assert answers[0] == answers[1] == answers[2]
    assert json.loads(answers[0])["statistics"]["exhausted"]


def test_a_race_accepts_jobs_one(server):
    # A race's answer depends on timing: only the status is compared.
    for fields in ({}, {"jobs": 1}):
        status, answer = post(server, json.dumps(wire("portfolio", deadline_s=10.0, **fields)))
        assert status == 200, answer


@pytest.mark.parametrize("jobs", [2, 0, -1, "two"])
def test_any_other_jobs_value_is_refused(server, jobs):
    status, answer = post(server, json.dumps(wire("naive+prov", jobs=jobs)))
    assert status == 400
    assert answer["code"] == "refinement"
    assert "serving process" in answer["error"]


@pytest.mark.parametrize(
    "fields",
    [
        {"method": "naive+prov"},
        {"method": "naive"},
        {"method": "portfolio", "deadline_s": 10.0, "engines": ["naive+prov", "naive"]},
    ],
    ids=["naive+prov", "naive", "race"],
)
def test_no_method_forks(monkeypatch, fields):
    forks = []

    def refuse_fork():
        forks.append(True)
        raise AssertionError("a search forked the serving process")

    monkeypatch.setattr(os, "fork", refuse_fork)
    payload = wire(**fields)
    response = RefinementEngine(SessionPool(capacity=1)).refine(
        RefineRequest.from_dict(payload)
    )
    assert forks == []
    assert response.feasible
    if fields["method"] == "portfolio":
        assert all(
            record["status"] != "error" for record in response.race["engines"].values()
        )
