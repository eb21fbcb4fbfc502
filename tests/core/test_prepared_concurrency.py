"""Concurrent solves of one prepared problem return the serial answer.

A warm session hands one :class:`~repro.core.PreparedProblem` to every
request for the same problem, including concurrent requests the coalescer
does not merge because they differ in ``time_limit``, ``deadline_s`` or
``backend``.  Solving a prepared problem is not read-only: the cut loop
appends the separated rows to the model and marks them added in the lazy
pools.  A solve that still holds a relaxation candidate from before another
solve's separation would find the violated rows no longer pending and accept
a candidate the full program rejects.  The prepared problem's lock makes the
solves take turns; these tests force the losing interleaving and check both
answers against a serial solve.
"""

from __future__ import annotations

import threading

import pytest

from repro.core import ConstraintSet, RefinementSolver, at_least, lazy_generation
from repro.datasets import load_dataset
from repro.milp.solvers import ScipySolver

#: How long a gated thread waits for the other one before going on alone.
#: With the lock held, the other thread cannot reach the gate until the
#: first has finished, so the wait always times out there.
_GATE_TIMEOUT_S = 2.0

#: Instances whose first relaxation candidate violates pool rows at
#: ``epsilon=0``: on students it undershoots the optimum, on tpch it answers
#: a problem that has no refinement within epsilon.
INSTANCES = {
    "students": ({}, [at_least(3, 6, Gender="F")]),
    "tpch": ({"scale_factor": 0.05}, [at_least(5, 10, OrderPriority="5-LOW")]),
}


def _answer(result):
    return (
        result.feasible,
        result.objective_value,
        result.distance_value,
        result.deviation,
    )


@pytest.mark.parametrize("dataset", sorted(INSTANCES))
def test_concurrent_solves_of_one_prepared_problem_match_the_serial_answer(
    monkeypatch, dataset
):
    # Floor 0 pools every rank/top-k row, so the solve runs the cut loop.
    monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", 0)
    parameters, constraints = INSTANCES[dataset]
    bundle = load_dataset(dataset, **parameters)

    def solver() -> RefinementSolver:
        return RefinementSolver(
            bundle.database,
            bundle.query,
            ConstraintSet(constraints),
            epsilon=0.0,
            method="milp",
            backend="scipy",
        )

    serial = _answer(solver().solve())
    prepared = solver().prepare()
    assert prepared.artifacts.lazy_pools

    # Each thread's first backend solve waits until both threads hold a
    # relaxation candidate.  Then one of them waits until the other has
    # added its violated rows to the model (it is back in the backend for
    # its second round), so the losing interleaving is forced rather than
    # left to the scheduler.
    barrier = threading.Barrier(2)
    separated = threading.Event()
    solves: dict[int, int] = {}
    real_solve = ScipySolver.solve

    def gated_solve(self, model, **hints):
        thread = threading.get_ident()
        solves[thread] = solves.get(thread, 0) + 1
        if solves[thread] == 2:
            separated.set()
        solution = real_solve(self, model, **hints)
        if solves[thread] == 1:
            try:
                if barrier.wait(timeout=_GATE_TIMEOUT_S) == 0:
                    separated.wait(timeout=_GATE_TIMEOUT_S)
            except threading.BrokenBarrierError:
                pass  # the other thread is queued behind the lock
        return solution

    monkeypatch.setattr(ScipySolver, "solve", gated_solve)
    answers: list = [None, None]

    def run(slot: int) -> None:
        answers[slot] = _answer(solver().solve(prepared=prepared))

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [serial, serial]
