"""Anytime portfolio racing: race the refinement engines under one deadline.

The engines this repository grew — warm-started MILP (``milp``/``milp+opt``),
the exhaustive baselines (``naive``/``naive+prov``) — have wildly
dataset-dependent runtimes, so no single engine can promise a latency SLA.
:class:`PortfolioSolver` converts "fast as the hardware allows" into an SLA
knob: it starts every engine at race start on its own thread, streams
incumbents back through one result queue, ends the race on the first proof,
and returns the best *verified* incumbent when the budget expires.

The harness follows the generator/verifier/selector shape of the
generate-verify-refine loop: engines *generate* incumbents, the portfolio
*verifies* each candidate winner against the database (re-evaluating the
refined query — a buggy or adversarial engine cannot smuggle an infeasible
answer through), and the *selector* picks the best verified incumbent with a
deterministic tie-break (spec order).

A proof ends the race
---------------------
* An engine that **proves** its answer (MILP ``OPTIMAL``/``INFEASIBLE``, an
  exhausted enumeration) reports it, and the first such report cancels every
  other engine: no engine can improve on a proof.  A proven optimum is also
  published as a lower bound, so a winner from another engine at the same
  distance is marked proven too.
* Engines never read bounds from the race: each proves only on its own (the
  MILP by its backend's optimality certificate, an exhaustive search by
  exhausting its space).
* Incumbents (unproven feasible answers) are streamed through the result
  queue as :class:`IncumbentUpdate` messages, so an engine cancelled at the
  deadline still contributes its partial best.

Cancellation rules
------------------
* Every engine run gets a wall-clock budget no larger than the remaining
  deadline; the exhaustive engines pass it to their sweep as ``timeout``
  and the MILP engines as the backend ``time_limit``, so a stuck engine can
  never run past the budget.
* Cooperative cancellation: losers poll :meth:`RaceControl.should_stop`
  between candidates (between blocks of candidates for ``naive+prov``) and
  exit with status ``cancelled`` as soon as a winner is proven.  A MILP
  engine polls between time slices, because a ``scipy.optimize.milp`` call
  cannot be interrupted.
* The solver itself never blocks past the deadline: engine threads are
  daemons, and the selection loop returns as soon as the budget expires,
  marking silent engines ``timeout``.

Determinism / injection points
------------------------------
Wall-clock scheduling is inherently racy, so the two scheduling seams are
injectable: the *clock* (:class:`WallClock` — ``now()`` plus the blocking
wait on the result queue) and the *runner* (:class:`ThreadEngineRunner` —
how a launched spec becomes a running engine).  The deterministic test
harness drives both with a fake clock and scripted engines: no real threads,
no sleeps, identical schedules every run.
"""

from __future__ import annotations

import queue as queue_module
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

from repro.core.constraints import ConstraintSet
from repro.core.distances import (
    DistanceMeasure,
    PredicateDistance,
    get_distance,
)
from repro.core.naive import (
    IMPROVEMENT_EPSILON,
    MaskIndexData,
    NaiveProvenanceSearch,
    NaiveSearch,
)
from repro.core.refinement import Refinement
from repro.core.solver import RefinementSolver
from repro.exceptions import DeadlineExceeded, RefinementError
from repro.provenance.lineage import AnnotatedDatabase
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor
from repro.relational.query import SPJQuery

#: Methods a portfolio may race (Erica enumerates whole solution lists and
#: has no incumbent semantics, so it is not a portfolio member).
PORTFOLIO_METHODS = ("milp", "milp+opt", "naive", "naive+prov")

#: The default race: the optimized MILP against the provenance-accelerated
#: exhaustive search — the two engines whose relative speed flips between
#: datasets (see benchmarks/results/latest.json).
DEFAULT_ENGINES = ("milp+opt", "naive+prov")

#: Per-engine terminal statuses reported in the provenance record.
STATUS_SOLVED = "solved"
STATUS_INCUMBENT = "incumbent"
STATUS_TIMEOUT = "timeout"
STATUS_ERROR = "error"
STATUS_CANCELLED = "cancelled"

#: Feasibility tolerance shared with the exhaustive searches' epsilon check.
_DEVIATION_TOLERANCE = 1e-9

#: A MILP engine's budget is split into time slices that start at
#: ``_MILP_SLICE_INITIAL`` seconds and double up to ``_MILP_SLICE_MAX``, with
#: a cooperative-cancel check between slices: the cap bounds how long a
#: cancelled MILP engine keeps a native solve running after the race has been
#: decided.
_MILP_SLICE_INITIAL = 0.5
_MILP_SLICE_MAX = 2.0


# -- specs -----------------------------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """One engine entry in a portfolio: a method plus its solve knobs.

    ``label`` names the engine in reports and the bounds timeline; it
    defaults to the method name and must be unique within one portfolio.
    """

    method: str
    label: str = ""
    backend: str = "auto"
    max_candidates: int | None = None

    def __post_init__(self) -> None:
        if self.method not in PORTFOLIO_METHODS:
            raise RefinementError(
                f"unknown portfolio engine {self.method!r}; "
                f"available: {list(PORTFOLIO_METHODS)}"
            )
        if not self.label:
            object.__setattr__(self, "label", self.method)


# -- clock -----------------------------------------------------------------------------


class Clock(Protocol):
    """Time source plus the blocking wait on the result queue.

    The solver never calls ``time.*`` or ``queue.get`` directly — everything
    temporal goes through this seam so tests can drive schedules with a fake
    clock and zero real sleeps.
    """

    def now(self) -> float: ...

    def wait(self, reports: "queue_module.Queue", timeout: float) -> object | None: ...


class WallClock:
    """The production clock: monotonic time, blocking queue reads."""

    def now(self) -> float:
        return time.monotonic()

    def wait(self, reports: "queue_module.Queue", timeout: float) -> object | None:
        try:
            return reports.get(timeout=max(0.0, timeout))
        except queue_module.Empty:
            return None


# -- shared race state -----------------------------------------------------------------


class RaceControl:
    """Shared state of one race: the proven bound, timeline, cancellation.

    Thread-safe — engine adapters publish from engine threads while the
    selection loop reads.  It lives and dies with one race.
    """

    def __init__(self, clock: Clock, started_at: float) -> None:
        self._clock = clock
        self._started_at = started_at
        self._lock = threading.Lock()
        self._proven_lower: float | None = None
        self._timeline: list[tuple[float, str, float]] = []
        self._cancel_all = False

    def elapsed(self) -> float:
        """Seconds since race start (on the race's clock)."""
        return self._clock.now() - self._started_at

    # -- bounds ---------------------------------------------------------------------

    def publish_incumbent(self, label: str, distance: float) -> None:
        """Record an engine's new best feasible distance on the timeline."""
        with self._lock:
            self._timeline.append((self.elapsed(), label, float(distance)))

    def publish_lower_bound(self, label: str, bound: float) -> None:
        """Record a *proven* lower bound on the optimal distance."""
        with self._lock:
            if self._proven_lower is None or bound > self._proven_lower:
                self._proven_lower = float(bound)

    def known_lower_bound(self) -> float | None:
        """The tightest proven lower bound so far (read by the selector)."""
        with self._lock:
            return self._proven_lower

    def timeline(self) -> list[tuple[float, str, float]]:
        with self._lock:
            return list(self._timeline)

    # -- cancellation ---------------------------------------------------------------

    def cancel_all(self) -> None:
        with self._lock:
            self._cancel_all = True

    def should_stop(self, label: str) -> bool:
        """Cooperative-cancel poll, called between candidates or blocks.

        The race cancels every engine at once, so ``label`` (the polling
        engine) does not change the answer.
        """
        with self._lock:
            return self._cancel_all

    def stopper(self, label: str) -> Callable[[], bool]:
        """A zero-argument ``should_stop`` bound to one engine label."""
        return lambda: self.should_stop(label)


# -- messages on the result queue ------------------------------------------------------


@dataclass
class IncumbentUpdate:
    """A streamed (non-terminal) incumbent from a still-running engine."""

    label: str
    distance_value: float
    deviation: float
    refinement: Refinement


@dataclass
class EngineReport:
    """The terminal outcome of one engine run."""

    label: str
    method: str
    status: str
    feasible: bool = False
    proven_optimal: bool = False
    proven_infeasible: bool = False
    distance_value: float | None = None
    deviation: float | None = None
    refinement: Refinement | None = None
    error: str | None = None
    elapsed: float = 0.0
    statistics: dict = field(default_factory=dict)

    def provenance(self) -> dict:
        """The JSON-ready per-engine record for the race provenance."""
        record: dict = {"method": self.method, "status": self.status}
        if self.distance_value is not None:
            record["distance_value"] = self.distance_value
        if self.error is not None:
            record["error"] = self.error
        record["elapsed_seconds"] = self.elapsed
        return record


# -- runners ---------------------------------------------------------------------------


class EngineRunner(Protocol):
    """Turns a launched spec into a running engine that reports to the queue."""

    def launch(
        self,
        spec: EngineSpec,
        control: RaceControl,
        reports: "queue_module.Queue",
        run: Callable[[EngineSpec, RaceControl, "queue_module.Queue"], None],
    ) -> None: ...


class ThreadEngineRunner:
    """The production runner: one daemon thread per engine.

    Daemon threads guarantee an overrunning engine can never block process
    exit (or the solver's return at the deadline); its eventual report is
    simply discarded.  :meth:`join` gives cancelled engines a bounded window
    to acknowledge — a native solve (HiGHS) torn down at interpreter exit can
    abort the process, so the solver waits briefly for losers to park.
    """

    def __init__(self) -> None:
        self._threads: list[threading.Thread] = []

    def launch(
        self,
        spec: EngineSpec,
        control: RaceControl,
        reports: "queue_module.Queue",
        run: Callable[[EngineSpec, RaceControl, "queue_module.Queue"], None],
    ) -> None:
        thread = threading.Thread(
            target=run,
            args=(spec, control, reports),
            name=f"portfolio-{spec.label}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds total for the engine threads."""
        deadline = time.monotonic() + max(0.0, timeout)
        for thread in self._threads:
            thread.join(max(0.0, deadline - time.monotonic()))


# -- results ---------------------------------------------------------------------------


@dataclass
class PortfolioResult:
    """The outcome of one race, with a full provenance record.

    ``status`` is ``"ok"`` (a verified feasible incumbent), ``"infeasible"``
    (an engine *proved* no refinement within epsilon exists), ``"deadline"``
    (the budget expired with no feasible incumbent) or ``"error"`` (every
    engine failed before the deadline).
    """

    feasible: bool
    status: str
    distance_code: str
    deadline: float
    method: str = "portfolio"
    winner: str | None = None
    proven_optimal: bool = False
    refinement: Refinement | None = None
    refined_query: SPJQuery | None = None
    distance_value: float | None = None
    deviation: float | None = None
    constraint_counts: dict[str, int] = field(default_factory=dict)
    reports: dict[str, EngineReport] = field(default_factory=dict)
    bounds_timeline: list[tuple[float, str, float]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def engine_statuses(self) -> dict[str, str]:
        return {label: report.status for label, report in self.reports.items()}

    def race_record(self) -> dict:
        """The JSON-ready provenance record (winner, statuses, timeline)."""
        return {
            "winner": self.winner,
            "status": self.status,
            "proven_optimal": self.proven_optimal,
            "deadline_s": self.deadline,
            "elapsed_seconds": self.elapsed,
            "engines": {
                label: report.provenance() for label, report in self.reports.items()
            },
            "bounds_timeline": [
                {"elapsed_seconds": at, "engine": label, "distance": distance}
                for at, label, distance in self.bounds_timeline
            ],
        }


@dataclass(frozen=True)
class _Candidate:
    """An incumbent awaiting verification, ordered deterministically."""

    distance: float
    spec_index: int
    label: str
    refinement: Refinement


# -- the solver ------------------------------------------------------------------------


class PortfolioSolver:
    """Race a portfolio of refinement engines under a wall-clock deadline.

    Parameters
    ----------
    database, query, constraints, epsilon, distance:
        The problem instance (as for :class:`RefinementSolver`).
    engines:
        Engine specs to race — method-name strings or :class:`EngineSpec`
        objects (defaults to :data:`DEFAULT_ENGINES`).  Labels must be
        unique.  Every engine starts at race start, in this order.
    deadline:
        The wall-clock budget in seconds (required, positive).  The solver
        returns the best verified incumbent available when it expires.
    clock, runner:
        Injection points for scheduling (see the module docstring).  The
        defaults are :class:`WallClock` and :class:`ThreadEngineRunner`.
    executor, annotated, mask_data:
        Warm per-dataset state shared by all engines of the race (and, via a
        :class:`~repro.service.session.DatasetSession`, across requests).
        Built here when not supplied.
    """

    def __init__(
        self,
        database: Database,
        query: SPJQuery,
        constraints: ConstraintSet,
        epsilon: float = 0.5,
        distance: DistanceMeasure | str = "pred",
        engines: Sequence[EngineSpec | str] | None = None,
        deadline: float | None = None,
        clock: Clock | None = None,
        runner: EngineRunner | None = None,
        executor: QueryExecutor | None = None,
        annotated: AnnotatedDatabase | None = None,
        mask_data: MaskIndexData | None = None,
    ) -> None:
        if deadline is None or deadline <= 0:
            raise RefinementError(
                f"a portfolio race needs a positive deadline, got {deadline!r}"
            )
        self.database = database
        self.query = query
        self.constraints = constraints
        self.epsilon = float(epsilon)
        self.distance = get_distance(distance)
        self.deadline = float(deadline)
        self.engines = self._resolve_specs(engines)
        self._clock: Clock = clock or WallClock()
        self._runner: EngineRunner = runner or ThreadEngineRunner()
        self._executor = executor or QueryExecutor(database)
        self._annotated = annotated
        self._mask_data = mask_data

    @staticmethod
    def _resolve_specs(
        engines: Sequence[EngineSpec | str] | None,
    ) -> tuple[EngineSpec, ...]:
        specs = tuple(
            spec if isinstance(spec, EngineSpec) else EngineSpec(method=str(spec))
            for spec in (engines if engines is not None else DEFAULT_ENGINES)
        )
        if not specs:
            raise RefinementError("a portfolio race needs at least one engine")
        labels = [spec.label for spec in specs]
        if len(set(labels)) != len(labels):
            raise RefinementError(
                f"portfolio engine labels must be unique, got {labels}"
            )
        return specs

    # -- the race -------------------------------------------------------------------

    def solve(self, raise_on_deadline: bool = False) -> PortfolioResult:
        """Run the race and return the best verified incumbent.

        With ``raise_on_deadline=True`` a race that expires without any
        feasible incumbent raises :class:`DeadlineExceeded` instead of
        returning a ``status="deadline"`` result.
        """
        started = self._clock.now()
        deadline_at = started + self.deadline
        control = RaceControl(self._clock, started)
        order = {spec.label: index for index, spec in enumerate(self.engines)}
        reports: dict[str, EngineReport] = {}
        candidates: dict[str, _Candidate] = {}
        queue: queue_module.Queue = queue_module.Queue()
        finished = False

        run = self._run_engine_for(deadline_at)
        for spec in self.engines:
            self._runner.launch(spec, control, queue, run)
        while len(reports) < len(self.engines):
            remaining = deadline_at - self._clock.now()
            if remaining <= 0:
                break
            message = self._clock.wait(queue, remaining)
            if message is None:
                continue
            self._record(message, order, reports, candidates)
            if isinstance(message, EngineReport) and (
                message.proven_optimal or message.proven_infeasible
            ):
                # A proof ends the race: no engine can improve on it.
                finished = True
                break

        # Proof, deadline or every engine reported: nobody may keep running.
        control.cancel_all()
        # Give cancelled/just-finishing engines a bounded window to park (a
        # native solve torn down at interpreter exit can abort the process),
        # then collect any terminal reports that landed in the meantime.
        self._join_runner(deadline_at)
        self._drain(queue, order, reports, candidates)

        for spec in self.engines:
            if spec.label not in reports:
                reports[spec.label] = EngineReport(
                    label=spec.label,
                    method=spec.method,
                    status=STATUS_CANCELLED if finished else STATUS_TIMEOUT,
                )

        result = self._select(control, reports, candidates, started)
        if result.status == "deadline" and raise_on_deadline:
            raise DeadlineExceeded(
                f"portfolio race over {self.query.name!r} found no feasible "
                f"incumbent within the {self.deadline:g}s deadline"
            )
        return result

    def _join_runner(self, deadline_at: float) -> None:
        """Bounded join of the engine threads (runners without one are skipped).

        The grace never stretches a deadline-expired race past its margin
        (engine budgets end at the deadline, so threads are already parking)
        and is capped at the MILP slice cap for early proof-ended races.
        Hung engines are simply abandoned — the threads are daemons.
        """
        join = getattr(self._runner, "join", None)
        if join is None:
            return
        remaining = deadline_at - self._clock.now()
        join(min(_MILP_SLICE_MAX + 0.5, max(0.2, remaining + 0.4)))

    def _run_engine_for(
        self, deadline_at: float
    ) -> Callable[[EngineSpec, RaceControl, "queue_module.Queue"], None]:
        def run(
            spec: EngineSpec,
            control: RaceControl,
            reports: "queue_module.Queue",
        ) -> None:
            began = self._clock.now()
            budget = max(deadline_at - began, 0.0)
            try:
                report = self._run_engine(spec, budget, control, reports)
            except Exception as error:  # noqa: BLE001 - engine isolation is the point
                report = EngineReport(
                    label=spec.label,
                    method=spec.method,
                    status=STATUS_ERROR,
                    error=f"{type(error).__name__}: {error}",
                )
            report.elapsed = self._clock.now() - began
            reports.put(report)

        return run

    # -- engine adapters ------------------------------------------------------------

    def _run_engine(
        self,
        spec: EngineSpec,
        budget: float,
        control: RaceControl,
        reports: "queue_module.Queue",
    ) -> EngineReport:
        if spec.method in ("milp", "milp+opt"):
            return self._run_milp(spec, budget, control, reports)
        return self._run_exhaustive(spec, budget, control, reports)

    def _run_milp(
        self,
        spec: EngineSpec,
        budget: float,
        control: RaceControl,
        reports: "queue_module.Queue",
    ) -> EngineReport:
        """Run a MILP engine as a sequence of budgeted time slices.

        The MILP backends cannot be interrupted mid-solve, so cancellation
        latency is bought with ``time_limit`` splits: slices grow
        geometrically (bounded restart overhead) up to the slice cap, and
        between slices the engine polls ``should_stop`` and streams any
        improved incumbent to the race.
        """
        label = spec.label
        deadline_at = self._clock.now() + budget
        solver = RefinementSolver(
            self.database,
            self.query,
            self.constraints,
            epsilon=self.epsilon,
            distance=self.distance,
            method=spec.method,
            backend=spec.backend,
            executor=self._executor,
            annotated=self._annotated,
        )
        prepared = solver.prepare()
        report = EngineReport(label=label, method=spec.method, status=STATUS_TIMEOUT)
        best: tuple[float, float, Refinement] | None = None
        slice_s = _MILP_SLICE_INITIAL
        while True:
            if control.should_stop(label):
                report.status = STATUS_CANCELLED
                break
            remaining = deadline_at - self._clock.now()
            if remaining <= 1e-9:
                break
            solver.time_limit = min(slice_s, remaining)
            result = solver.solve(prepared=prepared)
            report.statistics = dict(result.model_statistics)
            if result.feasible and (
                best is None
                or result.distance_value < best[0] - IMPROVEMENT_EPSILON
            ):
                assert result.refinement is not None
                assert result.deviation is not None
                best = (result.distance_value, result.deviation, result.refinement)
                control.publish_incumbent(label, result.distance_value)
                reports.put(
                    IncumbentUpdate(
                        label=label,
                        distance_value=result.distance_value,
                        deviation=result.deviation,
                        refinement=result.refinement,
                    )
                )
            if result.solution_status == "optimal":
                report.status = STATUS_SOLVED
                report.proven_optimal = True
                assert result.distance_value is not None
                control.publish_lower_bound(label, result.distance_value)
                break
            if result.solution_status == "infeasible":
                report.status = STATUS_SOLVED
                report.proven_infeasible = True
                break
            slice_s = min(slice_s * 2.0, _MILP_SLICE_MAX)
        if best is not None:
            report.feasible = True
            report.distance_value, report.deviation, report.refinement = best
            if report.status == STATUS_TIMEOUT:
                report.status = STATUS_INCUMBENT
        return report

    def _run_exhaustive(
        self,
        spec: EngineSpec,
        budget: float,
        control: RaceControl,
        reports: "queue_module.Queue",
    ) -> EngineReport:
        label = spec.label

        def on_incumbent(
            distance: float, refinement: Refinement, deviation: float
        ) -> None:
            control.publish_incumbent(label, distance)
            reports.put(
                IncumbentUpdate(
                    label=label,
                    distance_value=distance,
                    deviation=deviation,
                    refinement=refinement,
                )
            )

        kwargs: dict = dict(
            epsilon=self.epsilon,
            distance=self.distance,
            timeout=budget,
            max_candidates=spec.max_candidates,
            executor=self._executor,
            annotated=self._annotated,
            should_stop=control.stopper(label),
            on_incumbent=on_incumbent,
        )
        if spec.method == "naive+prov":
            search: NaiveSearch | NaiveProvenanceSearch = NaiveProvenanceSearch(
                self.database,
                self.query,
                self.constraints,
                mask_data=self._mask_data,
                **kwargs,
            )
        else:
            search = NaiveSearch(
                self.database, self.query, self.constraints, **kwargs
            )
        result = search.search()
        report = EngineReport(
            label=label,
            method=spec.method,
            status=STATUS_TIMEOUT,
            statistics={
                "candidates_examined": result.candidates_examined,
                "space_size": result.space_size,
            },
        )
        if result.feasible:
            report.feasible = True
            report.distance_value = result.distance_value
            report.deviation = result.deviation
            report.refinement = result.refinement
        if result.exhausted:
            report.status = STATUS_SOLVED
            if result.feasible:
                report.proven_optimal = True
                control.publish_lower_bound(label, result.distance_value)
            else:
                report.proven_infeasible = True
        elif result.cancelled:
            report.status = STATUS_CANCELLED
        elif result.feasible:
            report.status = STATUS_INCUMBENT
        return report

    # -- bookkeeping ----------------------------------------------------------------

    def _record(
        self,
        message: object,
        order: dict[str, int],
        reports: dict[str, EngineReport],
        candidates: dict[str, _Candidate],
    ) -> None:
        if isinstance(message, IncumbentUpdate):
            self._offer(
                candidates,
                order,
                message.label,
                message.distance_value,
                message.refinement,
            )
        elif isinstance(message, EngineReport):
            reports[message.label] = message
            if message.feasible and message.refinement is not None:
                assert message.distance_value is not None
                self._offer(
                    candidates,
                    order,
                    message.label,
                    message.distance_value,
                    message.refinement,
                )

    @staticmethod
    def _offer(
        candidates: dict[str, _Candidate],
        order: dict[str, int],
        label: str,
        distance: float,
        refinement: Refinement,
    ) -> None:
        current = candidates.get(label)
        if current is None or distance < current.distance - IMPROVEMENT_EPSILON:
            candidates[label] = _Candidate(
                distance=float(distance),
                spec_index=order.get(label, len(order)),
                label=label,
                refinement=refinement,
            )

    def _drain(
        self,
        queue: "queue_module.Queue",
        order: dict[str, int],
        reports: dict[str, EngineReport],
        candidates: dict[str, _Candidate],
    ) -> None:
        """Collect already-delivered messages without blocking (post-deadline)."""
        while True:
            try:
                message = queue.get_nowait()
            except queue_module.Empty:
                return
            self._record(message, order, reports, candidates)

    # -- selection + verification ---------------------------------------------------

    def _select(
        self,
        control: RaceControl,
        reports: dict[str, EngineReport],
        candidates: dict[str, _Candidate],
        started: float,
    ) -> PortfolioResult:
        result = PortfolioResult(
            feasible=False,
            status="deadline",
            distance_code=self.distance.code,
            deadline=self.deadline,
            reports=dict(reports),
            bounds_timeline=control.timeline(),
            elapsed=self._clock.now() - started,
        )
        ranked = sorted(
            candidates.values(), key=lambda c: (c.distance, c.spec_index)
        )
        for candidate in ranked:
            verified = self._verify(candidate)
            if verified is None:
                # An engine handed back an incumbent the database refutes:
                # isolate it and fall through to the next-best candidate.
                report = result.reports.get(candidate.label)
                if report is not None:
                    report.status = STATUS_ERROR
                    report.feasible = False
                    report.error = (
                        "engine reported an incumbent that violates the "
                        "constraint deviation bound"
                    )
                continue
            refined_query, distance_value, deviation, counts = verified
            winner_report = result.reports.get(candidate.label)
            result.feasible = True
            result.status = "ok"
            result.winner = candidate.label
            result.refinement = candidate.refinement
            result.refined_query = refined_query
            result.distance_value = distance_value
            result.deviation = deviation
            result.constraint_counts = counts
            lower = control.known_lower_bound()
            result.proven_optimal = bool(
                (winner_report is not None and winner_report.proven_optimal)
                or (lower is not None and distance_value <= lower + _DEVIATION_TOLERANCE)
            )
            return result
        if any(report.proven_infeasible for report in result.reports.values()):
            result.status = "infeasible"
        elif all(
            report.status == STATUS_ERROR for report in result.reports.values()
        ):
            result.status = "error"
        return result

    def _verify(
        self, candidate: _Candidate
    ) -> tuple[SPJQuery, float, float, dict[str, int]] | None:
        """Re-evaluate a candidate against the database (the verifier stage)."""
        refined_query = candidate.refinement.apply(self.query)
        refined_result = self._executor.evaluate(refined_query)
        if len(refined_result) < self.constraints.k_star:
            return None
        deviation = self.constraints.deviation(refined_result)
        if deviation > self.epsilon + _DEVIATION_TOLERANCE:
            return None
        if isinstance(self.distance, PredicateDistance):
            distance_value = self.distance.evaluate_refinement(
                self.query, candidate.refinement
            )
        else:
            original_result = self._executor.evaluate(self.query)
            distance_value = self.distance.evaluate(
                self.query,
                refined_query,
                original_result,
                refined_result,
                self.constraints.k_star,
            )
        counts = self.constraints.counts(refined_result)
        return refined_query, float(distance_value), float(deviation), counts


__all__ = [
    "DEFAULT_ENGINES",
    "PORTFOLIO_METHODS",
    "Clock",
    "EngineReport",
    "EngineRunner",
    "EngineSpec",
    "IncumbentUpdate",
    "PortfolioResult",
    "PortfolioSolver",
    "RaceControl",
    "ThreadEngineRunner",
    "WallClock",
]
