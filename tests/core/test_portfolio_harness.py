"""Deterministic scheduling tests for the portfolio racer.

The solver's two injection points — clock and runner — are driven by a
:class:`FakeClock` (virtual time, scripted message delivery) and a
:class:`ScriptedRunner` (no threads: a launch schedules the engine's scripted
messages on the fake clock).  Every test in this module therefore runs with
**zero wall-clock sleeps** and produces the identical schedule on every run;
CI repeats the whole module in a loop to prove it.

The scripted engines hand back *real* refinements of the students dataset
(captured from one exhaustive search), so the solver's verification stage —
which re-evaluates every candidate winner against the database — passes for
honest scripts and the assertions pin exact distances.
"""

from __future__ import annotations

import heapq
import itertools
import queue

import pytest

from repro.core import ConstraintSet, NaiveSearch, at_least
from repro.core.portfolio import (
    EngineReport,
    EngineSpec,
    IncumbentUpdate,
    PortfolioSolver,
    RaceControl,
)
from repro.datasets.registry import load_dataset
from repro.exceptions import DeadlineExceeded, RefinementError

# -- the doubles -----------------------------------------------------------------------


class FakeClock:
    """Virtual time plus scripted message delivery.

    ``wait`` never blocks: it advances virtual time to the next scheduled
    event within the timeout horizon and returns that event's message, or
    advances to the horizon and returns ``None``.  Events whose producer
    returns ``None`` (e.g. a cancelled engine suppressing its report) are
    skipped.
    """

    def __init__(self) -> None:
        self.time = 0.0
        self._events: list[tuple[float, int, object]] = []
        self._sequence = itertools.count()

    def now(self) -> float:
        return self.time

    def schedule(self, at: float, produce) -> None:
        heapq.heappush(self._events, (at, next(self._sequence), produce))

    def wait(self, reports: queue.Queue, timeout: float):
        try:
            return reports.get_nowait()
        except queue.Empty:
            pass
        horizon = self.time + max(timeout, 0.0)
        while self._events and self._events[0][0] <= horizon + 1e-12:
            at, _, produce = heapq.heappop(self._events)
            self.time = max(self.time, at)
            message = produce()
            if message is not None:
                return message
        self.time = max(self.time, horizon)
        return None


class ScriptedRunner:
    """Turns launches into scheduled messages — no threads, no ``join``.

    ``scripts`` maps an engine label to ``[(delay, produce), ...]`` where
    ``produce(control)`` returns the message to deliver (or ``None``).  The
    runner records every launch time and keeps the race control visible so
    tests can assert on cancellation state after the race.
    """

    def __init__(self, clock: FakeClock, scripts: dict) -> None:
        self.clock = clock
        self.scripts = scripts
        self.launches: list[tuple[str, float]] = []
        self.controls: dict = {}

    def launch(self, spec: EngineSpec, control, reports, run) -> None:
        label = spec.label
        now = self.clock.now()
        self.launches.append((label, now))
        self.controls[label] = control
        for delay, produce in self.scripts.get(label, []):
            self.clock.schedule(
                now + delay, lambda produce=produce, control=control: produce(control)
            )


# -- script event producers ------------------------------------------------------------


def streams_incumbent(label, distance, deviation, refinement):
    """An engine streaming a (non-terminal) incumbent, publishing it first."""

    def produce(control):
        control.publish_incumbent(label, distance)
        return IncumbentUpdate(
            label=label,
            distance_value=distance,
            deviation=deviation,
            refinement=refinement,
        )

    return produce


def proves_optimal(label, method, distance, deviation, refinement):
    """An engine terminating with a proven-optimal answer (unless cancelled)."""

    def produce(control):
        if control.should_stop(label):
            return EngineReport(label=label, method=method, status="cancelled")
        control.publish_incumbent(label, distance)
        control.publish_lower_bound(label, distance)
        return EngineReport(
            label=label,
            method=method,
            status="solved",
            feasible=True,
            proven_optimal=True,
            distance_value=distance,
            deviation=deviation,
            refinement=refinement,
        )

    return produce


def proves_infeasible(label, method):
    def produce(control):
        return EngineReport(
            label=label,
            method=method,
            status="solved",
            proven_infeasible=True,
        )

    return produce


# -- the shared problem instance -------------------------------------------------------


@pytest.fixture(scope="module")
def problem():
    """The students instance plus the real incumbent trail of one full search."""
    bundle = load_dataset("students")
    constraints = ConstraintSet([at_least(2, 10, Gender="F")])
    incumbents = []
    result = NaiveSearch(
        bundle.database,
        bundle.query,
        constraints,
        epsilon=0.5,
        on_incumbent=lambda d, r, dev: incumbents.append((d, r, dev)),
    ).search()
    assert result.exhausted and result.feasible
    assert len(incumbents) >= 2, "the harness needs a worse-then-better trail"
    return {
        "bundle": bundle,
        "constraints": constraints,
        "worse": incumbents[0],  # (distance, refinement, deviation)
        "best": incumbents[-1],
        "optimum": result.distance_value,
    }


def scripted_solver(problem, scripts, engines, deadline):
    clock = FakeClock()
    runner = ScriptedRunner(clock, scripts)
    solver = PortfolioSolver(
        problem["bundle"].database,
        problem["bundle"].query,
        problem["constraints"],
        epsilon=0.5,
        engines=engines,
        deadline=deadline,
        clock=clock,
        runner=runner,
    )
    return solver, clock, runner


# -- winner selection ------------------------------------------------------------------


class TestWinnerSelection:
    def test_proof_beats_earlier_incumbent_and_cancels_the_loser(self, problem):
        worse_d, worse_r, worse_dev = problem["worse"]
        best_d, best_r, best_dev = problem["best"]
        scripts = {
            "a": [(1.0, streams_incumbent("a", worse_d, worse_dev, worse_r))],
            "b": [(2.0, proves_optimal("b", "milp+opt", best_d, best_dev, best_r))],
        }
        engines = [
            EngineSpec(method="naive", label="a"),
            EngineSpec(method="milp+opt", label="b"),
        ]
        solver, clock, runner = scripted_solver(problem, scripts, engines, deadline=10.0)
        result = solver.solve()

        assert result.status == "ok"
        assert result.winner == "b"
        assert result.proven_optimal
        assert result.distance_value == best_d
        assert result.deviation == best_dev
        # The proof ended the race at virtual t=2.0 — well before the deadline
        # and without a single real sleep.
        assert result.elapsed == 2.0
        assert clock.time == 2.0
        # The loser never reported: it is cancelled, not timed out.
        assert result.engine_statuses == {"a": "cancelled", "b": "solved"}
        assert runner.controls["a"].should_stop("a")
        # The bounds timeline records both engines' publications in order.
        assert result.bounds_timeline == [
            (1.0, "a", worse_d),
            (2.0, "b", best_d),
        ]

    def test_best_streamed_incumbent_wins_without_any_proof(self, problem):
        worse_d, worse_r, worse_dev = problem["worse"]
        best_d, best_r, best_dev = problem["best"]
        scripts = {
            "a": [(0.5, streams_incumbent("a", worse_d, worse_dev, worse_r))],
            "b": [(0.8, streams_incumbent("b", best_d, best_dev, best_r))],
        }
        engines = [
            EngineSpec(method="naive", label="a"),
            EngineSpec(method="naive+prov", label="b"),
        ]
        solver, clock, _ = scripted_solver(problem, scripts, engines, deadline=2.0)
        result = solver.solve()

        assert result.status == "ok"
        assert result.winner == "b"
        assert result.distance_value == best_d
        assert not result.proven_optimal
        # Nobody terminated: the race ran to its (virtual) deadline.
        assert result.elapsed == 2.0
        assert result.engine_statuses == {"a": "timeout", "b": "timeout"}

    def test_equal_distances_tie_break_on_plan_order(self, problem):
        best_d, best_r, best_dev = problem["best"]
        scripts = {
            "second": [(0.4, streams_incumbent("second", best_d, best_dev, best_r))],
            "first": [(0.6, streams_incumbent("first", best_d, best_dev, best_r))],
        }
        engines = [
            EngineSpec(method="naive", label="first"),
            EngineSpec(method="naive+prov", label="second"),
        ]
        solver, _, _ = scripted_solver(problem, scripts, engines, deadline=1.0)
        result = solver.solve()
        # "second" reported first, but plan order breaks the distance tie.
        assert result.winner == "first"


# -- deadline expiry -------------------------------------------------------------------


class TestDeadlineExpiry:
    def test_partial_incumbent_survives_the_deadline(self, problem):
        worse_d, worse_r, worse_dev = problem["worse"]
        scripts = {
            "a": [(0.4, streams_incumbent("a", worse_d, worse_dev, worse_r))],
            "b": [],  # silent until (after) the deadline
        }
        engines = [
            EngineSpec(method="naive", label="a"),
            EngineSpec(method="milp", label="b"),
        ]
        solver, clock, _ = scripted_solver(problem, scripts, engines, deadline=1.0)
        result = solver.solve()

        assert result.status == "ok"
        assert result.feasible
        assert result.winner == "a"
        assert result.distance_value == worse_d
        assert not result.proven_optimal
        assert result.elapsed == 1.0
        assert clock.time == 1.0
        assert result.engine_statuses == {"a": "timeout", "b": "timeout"}

    def test_no_incumbent_returns_deadline_status(self, problem):
        engines = [EngineSpec(method="naive", label="a")]
        solver, clock, _ = scripted_solver(problem, {"a": []}, engines, deadline=1.0)
        result = solver.solve()
        assert result.status == "deadline"
        assert not result.feasible
        assert result.winner is None
        assert clock.time == 1.0

    def test_no_incumbent_raises_when_asked(self, problem):
        engines = [EngineSpec(method="naive", label="a")]
        solver, _, _ = scripted_solver(problem, {"a": []}, engines, deadline=1.0)
        with pytest.raises(DeadlineExceeded, match="deadline"):
            solver.solve(raise_on_deadline=True)

    def test_proven_infeasibility_ends_the_race(self, problem):
        scripts = {
            "a": [],
            "b": [(0.7, proves_infeasible("b", "milp+opt"))],
        }
        engines = [
            EngineSpec(method="naive", label="a"),
            EngineSpec(method="milp+opt", label="b"),
        ]
        solver, clock, _ = scripted_solver(problem, scripts, engines, deadline=10.0)
        result = solver.solve()
        assert result.status == "infeasible"
        assert not result.feasible
        assert clock.time == 0.7
        assert result.engine_statuses == {"a": "cancelled", "b": "solved"}


# -- the proven bound ------------------------------------------------------------------


class TestBoundPropagation:
    def test_incumbent_matching_proven_bound_is_optimal(self, problem):
        """A winner whose distance meets the proven lower bound is optimal
        even when the prover itself is a different engine."""
        best_d, best_r, best_dev = problem["best"]

        def prove_then_stream(control):
            control.publish_lower_bound("a", best_d)
            return streams_incumbent("b", best_d, best_dev, best_r)(control)

        scripts = {"a": [], "b": [(0.5, prove_then_stream)]}
        engines = [
            EngineSpec(method="milp+opt", label="a"),
            EngineSpec(method="naive+prov", label="b"),
        ]
        solver, _, _ = scripted_solver(problem, scripts, engines, deadline=1.0)
        result = solver.solve()
        assert result.winner == "b"
        assert result.proven_optimal

    def test_selector_keeps_the_tightest_proven_bound(self):
        control = RaceControl(FakeClock(), 0.0)
        assert control.known_lower_bound() is None
        control.publish_lower_bound("a", 2.0)
        control.publish_lower_bound("b", 1.0)
        assert control.known_lower_bound() == 2.0
        control.publish_lower_bound("b", 3.0)
        assert control.known_lower_bound() == 3.0

    def test_exhaustive_engine_ignores_a_published_bound(self, problem):
        """The real naive adapter never reads the race's bound: even with the
        optimum already published by another engine it proves its answer only
        by exhausting the whole space."""
        solver, _, _ = scripted_solver(
            problem, {}, [EngineSpec(method="naive+prov")], deadline=60.0
        )
        control = RaceControl(FakeClock(), 0.0)
        control.publish_lower_bound("other", problem["optimum"])
        reports: queue.Queue = queue.Queue()
        report = solver._run_exhaustive(
            EngineSpec(method="naive+prov"), 60.0, control, reports
        )
        assert report.status == "solved"
        assert report.proven_optimal
        assert report.distance_value == problem["optimum"]
        assert (
            report.statistics["candidates_examined"]
            == report.statistics["space_size"]
        )


# -- launch order and validation -------------------------------------------------------


class TestSchedulingAndValidation:
    def test_race_all_launches_in_spec_order_at_time_zero(self, problem):
        engines = [
            EngineSpec(method="naive", label="x"),
            EngineSpec(method="milp", label="y"),
            EngineSpec(method="naive+prov", label="z"),
        ]
        solver, _, runner = scripted_solver(problem, {}, engines, deadline=0.5)
        solver.solve()
        assert runner.launches == [("x", 0.0), ("y", 0.0), ("z", 0.0)]

    def test_cancel_all_stops_every_engine(self):
        control = RaceControl(FakeClock(), 0.0)
        stop_a = control.stopper("a")
        assert not stop_a() and not control.should_stop("b")
        control.cancel_all()
        assert stop_a() and control.should_stop("b")

    def test_unknown_method_rejected(self):
        with pytest.raises(RefinementError, match="unknown portfolio engine"):
            EngineSpec(method="erica")

    def test_duplicate_labels_rejected(self, problem):
        with pytest.raises(RefinementError, match="unique"):
            scripted_solver(
                problem,
                {},
                [EngineSpec(method="naive"), EngineSpec(method="naive")],
                deadline=1.0,
            )

    def test_missing_or_non_positive_deadline_rejected(self, problem):
        bundle = problem["bundle"]
        for bad in (None, 0.0, -1.0):
            with pytest.raises(RefinementError, match="deadline"):
                PortfolioSolver(
                    bundle.database, bundle.query, problem["constraints"], deadline=bad
                )


# -- determinism -----------------------------------------------------------------------


def test_identical_scripts_produce_identical_races(problem):
    """Three runs of the same scripted race are indistinguishable."""
    worse_d, worse_r, worse_dev = problem["worse"]
    best_d, best_r, best_dev = problem["best"]

    def run():
        scripts = {
            "a": [(1.0, streams_incumbent("a", worse_d, worse_dev, worse_r))],
            "b": [(2.0, proves_optimal("b", "milp+opt", best_d, best_dev, best_r))],
        }
        engines = [
            EngineSpec(method="naive", label="a"),
            EngineSpec(method="milp+opt", label="b"),
        ]
        solver, _, _ = scripted_solver(problem, scripts, engines, deadline=10.0)
        result = solver.solve()
        return (
            result.winner,
            result.status,
            result.distance_value,
            result.elapsed,
            tuple(result.bounds_timeline),
            tuple(sorted(result.engine_statuses.items())),
        )

    first = run()
    assert run() == first
    assert run() == first
