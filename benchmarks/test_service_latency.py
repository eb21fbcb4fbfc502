"""Service-layer latency: warm sessions vs the cold one-shot CLI.

The point of refinement-as-a-service is amortization: a cold ``repro refine``
process pays interpreter start-up, dataset build, provenance annotation and
MILP lowering on every call, while a warm :class:`DatasetSession` pays them
once and answers subsequent requests from cached state.  This module records
the ``service`` series (cold latency, warm latency, p50/p95/p99 under
concurrent load) and — as a ``perf_smoke`` guard — asserts the warm path is
at least ``REPRO_SERVICE_SPEEDUP``× (default 5×) faster than the cold CLI on
the reduced meps workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.service import RefinementEngine, RefineRequest, RefineResponse
from repro.service.engine import ConstraintSpec
from repro.service.session import SessionPool

from benchmarks.support import RunRecord, print_records

pytestmark = pytest.mark.perf_smoke

#: Required warm-vs-cold speedup (a deliberately loose floor: the observed
#: ratio is far larger, this guards against the warm path silently becoming
#: a cold path).
SPEEDUP_FLOOR = float(os.environ.get("REPRO_SERVICE_SPEEDUP", "5.0"))

MEPS_ROWS = 1200
CONSTRAINT = ConstraintSpec("at_least", 5, 10, (("Sex", "F"),))


def meps_request(**overrides) -> RefineRequest:
    defaults = dict(
        dataset="meps",
        constraints=(CONSTRAINT,),
        dataset_parameters=(("num_rows", MEPS_ROWS),),
        method="naive+prov",
    )
    defaults.update(overrides)
    return RefineRequest(**defaults)


def run_cold_cli() -> tuple[float, dict]:
    """One full ``repro refine --json`` subprocess: the cold baseline."""
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo_root, "src")
    # Pin the execution environment so cold and warm measure the same
    # configuration regardless of the CI job's backend matrix.
    for variable in ("REPRO_EXECUTOR_BACKEND", "REPRO_EXECUTOR_DB"):
        env.pop(variable, None)
    start = time.perf_counter()
    completed = subprocess.run(
        [
            sys.executable, "-m", "repro", "refine",
            "--dataset", "meps", "--rows", str(MEPS_ROWS),
            "--at-least", "5@10:Sex=F",
            "--method", "naive+prov", "--json",
        ],
        capture_output=True,
        text=True,
        env=env,
        cwd=repo_root,
        timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert completed.returncode == 0, completed.stderr
    return elapsed, json.loads(completed.stdout)


def percentile(sorted_values: list[float], fraction: float) -> float:
    index = min(len(sorted_values) - 1, int(round(fraction * (len(sorted_values) - 1))))
    return sorted_values[index]


def test_warm_session_beats_cold_cli():
    cold_seconds, cold_payload = run_cold_cli()

    engine = RefinementEngine(sessions=SessionPool(capacity=1))
    engine.sessions.get("meps", {"num_rows": MEPS_ROWS}, warm=True)
    request = meps_request()
    engine.refine(request)  # first request fills any lazily built warm state

    warm_latencies = []
    for _ in range(5):
        start = time.perf_counter()
        response = engine.refine(request)
        warm_latencies.append(time.perf_counter() - start)
    warm_latencies.sort()
    warm_seconds = percentile(warm_latencies, 0.5)

    # The warm engine and the cold CLI must agree byte for byte.
    assert (
        RefineResponse.from_dict(cold_payload).canonical_json()
        == response.canonical_json()
    )

    # Concurrent load over warm state: distinct problems (epsilon sweep), so
    # nothing coalesces and every request runs a real solve.
    sweep = [
        meps_request(epsilon=round(0.30 + 0.01 * index, 2)) for index in range(20)
    ]
    concurrent_latencies = []

    def timed_refine(sweep_request):
        start = time.perf_counter()
        engine.refine(sweep_request)
        return time.perf_counter() - start

    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent_latencies = sorted(pool.map(timed_refine, sweep))

    records = [
        RunRecord(
            dataset="meps",
            algorithm="service-cold",
            distance="pred",
            feasible=cold_payload["feasible"],
            timed_out=False,
            setup_seconds=0.0,
            solve_seconds=cold_seconds,
            total_seconds=cold_seconds,
            distance_value=cold_payload["distance_value"],
            extra={"mode": "one-shot CLI subprocess"},
        ),
        RunRecord(
            dataset="meps",
            algorithm="service-warm",
            distance="pred",
            feasible=response.feasible,
            timed_out=False,
            setup_seconds=0.0,
            solve_seconds=warm_seconds,
            total_seconds=sum(warm_latencies),
            distance_value=response.distance_value,
            extra={
                "mode": "warm session, repeated request (p50 of 5)",
                "speedup_vs_cold": round(cold_seconds / max(warm_seconds, 1e-9), 1),
            },
        ),
        RunRecord(
            dataset="meps",
            algorithm="service-load",
            distance="pred",
            feasible=True,
            timed_out=False,
            setup_seconds=0.0,
            solve_seconds=percentile(concurrent_latencies, 0.5),
            total_seconds=sum(concurrent_latencies),
            extra={
                "mode": "8 threads, 20 distinct requests (epsilon sweep)",
                "p50_seconds": round(percentile(concurrent_latencies, 0.50), 4),
                "p95_seconds": round(percentile(concurrent_latencies, 0.95), 4),
                "p99_seconds": round(percentile(concurrent_latencies, 0.99), 4),
            },
        ),
    ]
    print_records("service latency (meps, naive+prov)", records)

    assert response.feasible, "the meps workload must stay feasible"
    assert warm_seconds * SPEEDUP_FLOOR <= cold_seconds, (
        f"warm session request took {warm_seconds:.3f}s, cold CLI "
        f"{cold_seconds:.3f}s — the service layer no longer amortizes "
        f"warm-up (required speedup: {SPEEDUP_FLOOR:.0f}x)"
    )
