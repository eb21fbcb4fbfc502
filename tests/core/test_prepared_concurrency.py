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

Taking turns spends time: a solve queued behind another must not hand its
backend a time limit that ignores how much of its deadline the wait used.
A solve queued behind a proof does not call its backend at all: the
prepared problem keeps the proven answer.
"""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.core import ConstraintSet, RefinementSolver, at_least, lazy_generation
from repro.core.deadline import Deadline, current_deadline, deadline_scope
from repro.datasets import load_dataset
from repro.milp.solution import Solution, SolveStatus
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


def test_concurrent_repeats_share_one_proven_solve(monkeypatch):
    # A huge floor lowers the model eagerly: one backend call proves it.
    monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", 2**62)
    parameters, constraints = INSTANCES["students"]
    bundle = load_dataset("students", **parameters)

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
    solves: list[int] = []
    real_solve = ScipySolver.solve

    def counting_solve(self, model, **hints):
        solves.append(threading.get_ident())
        return real_solve(self, model, **hints)

    monkeypatch.setattr(ScipySolver, "solve", counting_solve)
    answers: list = []

    def run() -> None:
        answers.append(_answer(solver().solve(prepared=prepared)))

    threads = [threading.Thread(target=run) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert answers == [serial] * len(threads)
    # A check-then-solve race would let a second thread solve beside the first.
    assert len(solves) == 1


def _queue_behind(monkeypatch, first_solution=None):
    """Solve one prepared problem on thread A, then on B behind A's lock.

    A's backend call holds the prepared problem's lock for 0.5 s; it returns
    ``first_solution`` instead of solving when one is given.  B queues for
    the lock under a 0.3 s deadline.  Returns each thread's backend call as
    ``(time_limit, deadline remaining)``.
    """
    # A huge floor lowers every rank/top-k row eagerly, so there is no cut
    # loop to re-read the deadline between rounds.
    monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", 2**62)
    parameters, constraints = INSTANCES["students"]
    bundle = load_dataset("students", **parameters)

    def solver(time_limit=None) -> RefinementSolver:
        return RefinementSolver(
            bundle.database,
            bundle.query,
            ConstraintSet(constraints),
            epsilon=0.0,
            method="milp",
            backend="scipy",
            time_limit=time_limit,
        )

    prepared = solver().prepare()
    assert not prepared.artifacts.lazy_pools

    holding = threading.Event()
    calls: dict[str, tuple] = {}
    real_solve = ScipySolver.solve

    def recording_solve(self, model, time_limit=None, **hints):
        name = threading.current_thread().name
        deadline = current_deadline()
        remaining = None if deadline is None else deadline.remaining()
        calls[name] = (time_limit, remaining)
        if name == "A":
            holding.set()
            time.sleep(0.5)  # hold the prepared problem's lock
            if first_solution is not None:
                return first_solution
        return real_solve(self, model, time_limit=time_limit, **hints)

    monkeypatch.setattr(ScipySolver, "solve", recording_solve)

    def run_a() -> None:
        solver().solve(prepared=prepared)

    def run_b() -> None:
        holding.wait(timeout=_GATE_TIMEOUT_S)
        with deadline_scope(Deadline.after(0.3)) as deadline:
            # The serving layer clamps the limit to the deadline when it
            # builds the solver, before the solve queues for the lock.
            solver(time_limit=deadline.clamp(None)).solve(prepared=prepared)

    threads = [
        threading.Thread(target=run_a, name="A"),
        threading.Thread(target=run_b, name="B"),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    return calls


def test_queued_eager_solve_gets_only_what_its_deadline_has_left(monkeypatch):
    # A's solve ends unproven, so B finds nothing cached and must solve.
    calls = _queue_behind(
        monkeypatch, Solution(status=SolveStatus.TIME_LIMIT, solver_name="stub")
    )
    limit, remaining = calls["B"]
    assert limit is not None and remaining is not None
    # At most what is left (the wait spent the whole 0.3 s), floored as the
    # cut loop floors each round; the slack covers the gap between reading
    # the limit and entering the backend.
    assert limit <= max(remaining, lazy_generation._MIN_SOLVE_LIMIT) + 0.05


def test_solve_queued_behind_a_proof_reuses_it(monkeypatch):
    calls = _queue_behind(monkeypatch)
    assert set(calls) == {"A"}
