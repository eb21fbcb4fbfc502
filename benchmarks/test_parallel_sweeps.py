"""Benchmark: the parallel sharded sweep engine vs. the serial hot loop.

``Naive+prov`` shards its candidate enumeration along the outermost predicate
dimension and fans the shards out over a ``multiprocessing`` pool
(``jobs=N`` / ``REPRO_SOLVER_JOBS``).  This benchmark runs the reduced meps
workload serially and sharded, records both in
``benchmarks/results/latest.json``, and always asserts the determinism
contract: identical refinement, distance, deviation and candidate count.

The wall-clock speedup is hardware-dependent — a shard pool cannot beat the
serial loop on a single-core container — so the ``>= MINIMUM_SPEEDUP``
assertion only arms when the machine has at least two CPUs *and*
``REPRO_REQUIRE_PARALLEL_SPEEDUP=1`` is set (the CI matrix job sets it on its
multi-core runners).
"""

from __future__ import annotations

import os

import pytest

from benchmarks.support import default_constraint_set, print_records, run_naive

pytestmark = pytest.mark.perf_smoke

#: Worker count for the sharded run (and required solve-time ratio when the
#: speedup assertion is armed).
PARALLEL_JOBS = 2
MINIMUM_SPEEDUP = 1.5


def test_parallel_sweep_parity_and_speedup_on_reduced_meps():
    constraints = default_constraint_set("meps")
    # Warm the dataset cache (and the interpreter) outside the timed runs.
    run_naive("meps", constraints, use_provenance=True)

    serial = run_naive("meps", constraints, use_provenance=True, jobs=1)
    sharded = run_naive(
        "meps", constraints, use_provenance=True, jobs=PARALLEL_JOBS
    )
    print_records("parallel sweep engine (meps, Naive+prov)", [serial, sharded])

    assert serial.feasible and sharded.feasible
    assert sharded.distance_value == serial.distance_value
    assert sharded.deviation == serial.deviation
    assert sharded.extra["candidates"] == serial.extra["candidates"]

    speedup = serial.solve_seconds / max(sharded.solve_seconds, 1e-9)
    if (os.cpu_count() or 1) >= 2 and os.environ.get(
        "REPRO_REQUIRE_PARALLEL_SPEEDUP"
    ) == "1":
        assert speedup >= MINIMUM_SPEEDUP, (
            f"sharded solve {sharded.solve_seconds:.3f}s is only {speedup:.2f}x "
            f"the serial {serial.solve_seconds:.3f}s; expected >= "
            f"{MINIMUM_SPEEDUP:.1f}x with jobs={PARALLEL_JOBS}"
        )


def test_parallel_sweep_parity_under_candidate_cap():
    """max_candidates truncates the identical candidate prefix on every jobs value."""
    constraints = default_constraint_set("meps")
    serial = run_naive(
        "meps", constraints, use_provenance=True, jobs=1, max_candidates=700
    )
    sharded = run_naive(
        "meps", constraints, use_provenance=True, jobs=3, max_candidates=700
    )
    assert sharded.extra["candidates"] == serial.extra["candidates"] == 700
    assert sharded.distance_value == serial.distance_value
    assert sharded.deviation == serial.deviation
