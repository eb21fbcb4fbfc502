"""The engine facade: one request/response pair over all four solve paths.

:class:`RefinementEngine` is the single entry point the CLI ``refine``
command, the HTTP server and the shadow rollout facade all call.  A
:class:`RefineRequest` names a dataset configuration, a constraint set and a
method (``naive``, ``naive+prov``, ``milp``, ``milp+opt``, ``erica`` or the
deadline-bounded ``portfolio`` race); the
engine resolves the dataset to a warm :class:`~repro.service.session
.DatasetSession`, dispatches to the matching solver with the session's shared
state, and returns a :class:`RefineResponse` whose JSON serialization is
stable: the CLI's ``--json`` output and the server's response body are the
same bytes for the same request (timings excluded — see
:meth:`RefineResponse.canonical_dict`).

Identical in-flight requests are coalesced into one computation
(:class:`~repro.service.coalesce.RequestCoalescer`); the engine's
``solves_started`` counter exposes how many solves actually ran.  A
``milp`` or ``milp+opt`` request whose original query already meets its
constraints (:func:`original_fits`) is answered with that query, unsolved.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Mapping, Sequence

from repro.core.constraints import (
    BoundType,
    CardinalityConstraint,
    ConstraintSet,
    Group,
)
from repro.core.distances import get_distance
from repro.core.erica import EricaBaseline
from repro.core.naive import NaiveProvenanceSearch, NaiveSearch
from repro.core.portfolio import (
    DEFAULT_ENGINES,
    PORTFOLIO_METHODS,
    EngineSpec,
    PortfolioSolver,
)
from repro.core.deadline import Deadline, current_deadline, deadline_scope
from repro.core.refinement import Refinement
from repro.core.solver import RefinementSolver
from repro.datasets.registry import DATASET_BUILDERS
from repro.exceptions import (
    ConstraintError,
    InfeasibleError,
    RefinementError,
    SolverError,
)
from repro.milp.solution import SolveStatus
from repro.relational.executor import QueryExecutor, RankedResult
from repro.relational.query import SPJQuery
from repro.relational.sqlgen import render_sql
from repro.service.coalesce import RequestCoalescer
from repro.service.session import DatasetSession, SessionPool

#: Methods the facade dispatches on, in documentation order.
METHODS = ("naive", "naive+prov", "milp", "milp+opt", "erica", "portfolio")

#: Dataset-builder parameters a request may override.
DATASET_PARAMETERS = ("num_rows", "scale_factor", "seed")

#: Wall-clock cap on an exhaustive fallback solve when the degraded request
#: carries neither a time limit nor a deadline (never run unbounded).
DEGRADED_FALLBACK_BUDGET_S = 30.0


@dataclass(frozen=True)
class ConstraintSpec:
    """One cardinality constraint in wire form.

    ``kind`` is ``"at_least"`` or ``"at_most"``; ``group`` maps categorical
    attributes to required values.  Conditions are stored sorted so equal
    constraints always serialize (and hash) identically.
    """

    kind: str
    bound: int
    k: int
    group: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if self.kind not in ("at_least", "at_most"):
            raise RefinementError(
                f"unknown constraint kind {self.kind!r}; "
                "use 'at_least' or 'at_most'"
            )
        object.__setattr__(self, "group", tuple(sorted(self.group)))
        if not self.group:
            raise RefinementError("a constraint group needs at least one condition")

    @classmethod
    def from_constraint(cls, constraint: CardinalityConstraint) -> "ConstraintSpec":
        kind = "at_least" if constraint.bound_type is BoundType.LOWER else "at_most"
        return cls(
            kind=kind,
            bound=constraint.bound,
            k=constraint.k,
            group=tuple(
                (str(attribute), str(value))
                for attribute, value in constraint.group.condition_map.items()
            ),
        )

    @classmethod
    def from_dict(cls, data: Mapping) -> "ConstraintSpec":
        return cls(
            kind=str(data["kind"]),
            bound=int(data["bound"]),
            k=int(data["k"]),
            group=tuple((str(a), str(v)) for a, v in dict(data["group"]).items()),
        )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "bound": self.bound,
            "k": self.k,
            "group": dict(self.group),
        }

    def to_constraint(self) -> CardinalityConstraint:
        bound_type = BoundType.LOWER if self.kind == "at_least" else BoundType.UPPER
        return CardinalityConstraint(
            group=Group(dict(self.group)),
            k=self.k,
            bound=self.bound,
            bound_type=bound_type,
        )


@dataclass(frozen=True)
class RefineRequest:
    """One refinement problem in wire form.

    ``dataset_parameters`` feeds the dataset builder (``num_rows``,
    ``scale_factor``, ``seed``); everything else mirrors the solver
    constructor arguments.  :meth:`cache_key` is the canonical identity used
    for request coalescing and session-level MILP caching.
    """

    dataset: str
    constraints: tuple[ConstraintSpec, ...]
    dataset_parameters: tuple[tuple[str, object], ...] = ()
    epsilon: float = 0.5
    distance: str = "pred"
    method: str = "milp+opt"
    backend: str = "auto"
    time_limit: float | None = None
    max_candidates: int | None = None
    num_solutions: int = 1
    output_size: int | None = None
    #: End-to-end wall-clock SLA of the request, in seconds.  Required for
    #: ``method="portfolio"`` (the race budget); optional everywhere else,
    #: where it clamps the solver's ``time_limit`` and bounds queueing,
    #: session acquisition and store retries.
    deadline_s: float | None = None
    #: Engine methods a ``portfolio`` request races (empty = the default
    #: portfolio).
    engines: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraints", tuple(self.constraints))
        object.__setattr__(
            self, "dataset_parameters", tuple(sorted(dict(self.dataset_parameters).items()))
        )
        object.__setattr__(self, "engines", tuple(str(name) for name in self.engines))

    def validate(self) -> None:
        if self.dataset not in DATASET_BUILDERS:
            raise RefinementError(
                f"unknown dataset {self.dataset!r}; "
                f"available: {sorted(DATASET_BUILDERS)}"
            )
        if self.method not in METHODS:
            raise RefinementError(
                f"unknown method {self.method!r}; available: {list(METHODS)}"
            )
        if not self.constraints:
            raise RefinementError("a refine request needs at least one constraint")
        for name, _ in self.dataset_parameters:
            if name not in DATASET_PARAMETERS:
                raise RefinementError(
                    f"unknown dataset parameter {name!r}; "
                    f"available: {list(DATASET_PARAMETERS)}"
                )
        if self.method == "erica" and self.distance != "pred":
            raise RefinementError(
                "the erica baseline minimises the predicate distance; "
                "use distance='pred'"
            )
        if self.num_solutions < 1:
            raise RefinementError("num_solutions must be at least 1")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise RefinementError(
                f"epsilon must be a finite number >= 0, got {self.epsilon!r}"
            )
        for name in ("time_limit", "deadline_s"):
            value = getattr(self, name)
            # Waits on the budget (a race's report queue, a coalesced
            # waiter's event) refuse timeouts above threading.TIMEOUT_MAX.
            if value is not None and not 0 < value <= threading.TIMEOUT_MAX:
                raise RefinementError(
                    f"{name} must be positive and at most "
                    f"{threading.TIMEOUT_MAX:g} seconds, got {value!r}"
                )
        for name in ("max_candidates", "output_size"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise RefinementError(f"{name} must be at least 1, got {value!r}")
        if self.method == "portfolio":
            if self.deadline_s is None:
                raise RefinementError(
                    "method='portfolio' needs a positive deadline_s "
                    "(the race's wall-clock SLA)"
                )
            for name in self.engines:
                if name not in PORTFOLIO_METHODS:
                    raise RefinementError(
                        f"unknown portfolio engine {name!r}; "
                        f"available: {list(PORTFOLIO_METHODS)}"
                    )
        elif self.engines:
            raise RefinementError("engines is only valid with method='portfolio'")

    # -- identity -------------------------------------------------------------------

    def cache_key(self) -> tuple:
        """Canonical identity for coalescing: identical requests share one solve."""
        return (
            self.dataset,
            self.dataset_parameters,
            self.constraints,
            self.epsilon,
            self.distance,
            self.method,
            self.backend,
            self.time_limit,
            self.max_candidates,
            self.num_solutions,
            self.output_size,
            # A 0.1s and a 30s race are different computations: the deadline
            # (and the engine list) must split the coalescing key.
            self.deadline_s,
            self.engines,
        )

    def milp_key(self) -> tuple:
        """Identity of the *prepared model* (solve-time knobs excluded)."""
        return (self.constraints, self.epsilon, self.distance, self.method)

    def constraint_set(self) -> ConstraintSet:
        return ConstraintSet(spec.to_constraint() for spec in self.constraints)

    # -- serialization ---------------------------------------------------------------

    def to_dict(self) -> dict:
        data: dict = {
            "dataset": self.dataset,
            "constraints": [spec.to_dict() for spec in self.constraints],
            "epsilon": self.epsilon,
            "distance": self.distance,
            "method": self.method,
            "backend": self.backend,
        }
        if self.dataset_parameters:
            data["dataset_parameters"] = dict(self.dataset_parameters)
        for name in ("time_limit", "max_candidates", "output_size", "deadline_s"):
            value = getattr(self, name)
            if value is not None:
                data[name] = value
        if self.num_solutions != 1:
            data["num_solutions"] = self.num_solutions
        if self.engines:
            data["engines"] = list(self.engines)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "RefineRequest":
        try:
            constraints = tuple(
                ConstraintSpec.from_dict(spec) for spec in data["constraints"]
            )
        except KeyError:
            raise RefinementError("refine request is missing 'constraints'") from None
        try:
            dataset = str(data["dataset"])
        except KeyError:
            raise RefinementError("refine request is missing 'dataset'") from None
        if data.get("jobs") not in (None, 1):
            # Older clients sent a worker count; 1 was the only value that
            # meant what every search does now.
            raise RefinementError(
                f"jobs={data['jobs']!r} is not accepted: searches run in the "
                "serving process (send jobs 1 or leave it out)"
            )
        parameters = dict(data.get("dataset_parameters") or {})
        return cls(
            dataset=dataset,
            constraints=constraints,
            dataset_parameters=tuple(parameters.items()),
            epsilon=float(data.get("epsilon", 0.5)),
            distance=str(data.get("distance", "pred")),
            method=str(data.get("method", "milp+opt")),
            backend=str(data.get("backend", "auto")),
            time_limit=(
                None if data.get("time_limit") is None else float(data["time_limit"])
            ),
            max_candidates=(
                None
                if data.get("max_candidates") is None
                else int(data["max_candidates"])
            ),
            num_solutions=int(data.get("num_solutions", 1)),
            output_size=(
                None if data.get("output_size") is None else int(data["output_size"])
            ),
            deadline_s=(
                None if data.get("deadline_s") is None else float(data["deadline_s"])
            ),
            engines=tuple(str(name) for name in data.get("engines") or ()),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass
class RefineResponse:
    """The unified outcome of one refine request, engine-agnostic.

    ``engine`` names the solve path family (``"milp"``, ``"exhaustive"`` or
    ``"erica"``); ``statistics`` carries the family-specific extras (model
    statistics, candidates examined, …), or ``original_fits`` when the
    original query was the answer and nothing was solved.  ``refinements`` lists Erica's
    enumerated solutions (empty elsewhere).  Timings live under ``timings``
    and are excluded from :meth:`canonical_dict`, which is the byte-stable
    form: a server response and a one-shot CLI run of the same request
    canonicalise to identical JSON.
    """

    request: RefineRequest
    engine: str
    method: str
    distance_code: str
    status: str
    feasible: bool
    distance_value: float | None = None
    deviation: float | None = None
    objective_value: float | None = None
    refinement: str | None = None
    refined_sql: str | None = None
    constraint_counts: dict[str, int] = field(default_factory=dict)
    statistics: dict = field(default_factory=dict)
    refinements: list[dict] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    #: Portfolio provenance (winner, per-engine statuses, bounds timeline).
    #: Race-dependent, so — like timings — excluded from the canonical form.
    race: dict = field(default_factory=dict)

    def canonical_dict(self) -> dict:
        """The deterministic part of the response (no timings)."""
        return {
            "request": self.request.to_dict(),
            "engine": self.engine,
            "method": self.method,
            "distance_code": self.distance_code,
            "status": self.status,
            "feasible": self.feasible,
            "distance_value": self.distance_value,
            "deviation": self.deviation,
            "objective_value": self.objective_value,
            "refinement": self.refinement,
            "refined_sql": self.refined_sql,
            "constraint_counts": dict(self.constraint_counts),
            "statistics": dict(self.statistics),
            "refinements": list(self.refinements),
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical_dict(), sort_keys=True)

    def to_dict(self) -> dict:
        data = self.canonical_dict()
        data["timings"] = dict(self.timings)
        if self.race:
            data["race"] = dict(self.race)
        return data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RefineResponse":
        return cls(
            request=RefineRequest.from_dict(data["request"]),
            engine=str(data["engine"]),
            method=str(data["method"]),
            distance_code=str(data["distance_code"]),
            status=str(data["status"]),
            feasible=bool(data["feasible"]),
            distance_value=data.get("distance_value"),
            deviation=data.get("deviation"),
            objective_value=data.get("objective_value"),
            refinement=data.get("refinement"),
            refined_sql=data.get("refined_sql"),
            constraint_counts=dict(data.get("constraint_counts") or {}),
            statistics=dict(data.get("statistics") or {}),
            refinements=list(data.get("refinements") or []),
            timings=dict(data.get("timings") or {}),
            race=dict(data.get("race") or {}),
        )


def original_fits(
    executor: QueryExecutor,
    query: SPJQuery,
    constraints: ConstraintSet,
    epsilon: float,
) -> RankedResult | None:
    """``Q(D)`` when the original query is itself an answer, else ``None``.

    ``Q`` is a refinement of itself at distance 0 under every measure, so it
    is the proven optimum of Definition 2.7 whenever ``Q(D)`` has at least
    ``k*`` rows and deviates from ``constraints`` by at most ``epsilon`` --
    the test (with the same slack) that the exhaustive searches and the race
    verifier apply to every candidate.
    """
    original = executor.evaluate(query)
    if len(original) < constraints.k_star or not constraints.is_satisfied(
        original, epsilon
    ):
        return None
    return original


class RefinementEngine:
    """The facade every front end calls: ``refine(request) -> response``.

    Owns (or borrows) a :class:`SessionPool` for warm per-dataset state and a
    :class:`RequestCoalescer` so identical concurrent requests share one
    computation.
    """

    def __init__(
        self,
        sessions: SessionPool | None = None,
        coalescer: RequestCoalescer | None = None,
    ) -> None:
        self.sessions = sessions or SessionPool()
        self.coalescer = coalescer or RequestCoalescer()
        self.requests_served = 0

    @property
    def solves_started(self) -> int:
        """Computations actually run (requests minus coalesced joins)."""
        return self.coalescer.started

    def refine(
        self, request: RefineRequest, deadline: Deadline | None = None
    ) -> RefineResponse:
        """Solve ``request``, bounded end-to-end by ``deadline``.

        Without an explicit ``deadline`` (the serving layer passes the one it
        started at admission time, which already accounts for queueing), a
        request carrying ``deadline_s`` gets a fresh budget here so the CLI
        path is bounded too.  The deadline travels ambiently
        (:func:`~repro.core.deadline.deadline_scope`) to every layer below:
        session acquisition, solver cutoffs, store retries.  A coalesced
        waiter waits at most its own remaining budget — a slow leader cannot
        hold it past its SLA.
        """
        request.validate()
        self.requests_served += 1
        if deadline is None and request.deadline_s is not None:
            deadline = Deadline.after(request.deadline_s)
        timeout = None if deadline is None else deadline.remaining()

        def compute() -> RefineResponse:
            with deadline_scope(deadline):
                return self._refine(request)

        return self.coalescer.run(request.cache_key(), compute, timeout=timeout)

    # -- dispatch -------------------------------------------------------------------

    @staticmethod
    def _clamped_limit(limit: float | None, what: str) -> float | None:
        """``limit`` bounded by the ambient deadline (which must not be spent)."""
        deadline = current_deadline()
        if deadline is None:
            return limit
        deadline.require(what)
        return deadline.clamp(limit)

    def _refine(self, request: RefineRequest) -> RefineResponse:
        ambient = current_deadline()
        if ambient is not None:
            # Queueing may have eaten the whole budget; fail before the
            # (potentially expensive) session build, not after.
            ambient.require("session acquisition")
        session = self.sessions.get(request.dataset, dict(request.dataset_parameters))
        self._check_group_attributes(session, request)
        if request.method == "portfolio":
            return self._refine_portfolio(session, request)
        if request.method in ("milp", "milp+opt"):
            as_is = self._answer_as_is(session, request)
            if as_is is not None:
                return as_is
            return self._refine_milp(session, request)
        if request.method in ("naive", "naive+prov"):
            return self._refine_exhaustive(session, request)
        return self._refine_erica(session, request)

    @staticmethod
    def _check_group_attributes(session: DatasetSession, request: RefineRequest) -> None:
        """Refuse a constraint whose group names an attribute that no relation
        of the query carries: no tuple can match it, so every method would
        answer ``infeasible`` to a question about nothing.  A known attribute
        with a value no tuple carries is still a question, and is answered."""
        known: set[str] = set()
        for table in session.query.tables:
            known.update(session.database.relation(table).schema.names)
        for spec in request.constraints:
            unknown = sorted(attribute for attribute, _ in spec.group if attribute not in known)
            if unknown:
                raise ConstraintError(
                    f"constraint group names unknown attributes {unknown}; "
                    f"the {request.dataset!r} query has {sorted(known)}"
                )

    @staticmethod
    def _answer_as_is(
        session: DatasetSession, request: RefineRequest
    ) -> RefineResponse | None:
        """The unchanged query as a proven MILP answer, when :func:`original_fits`.

        No MILP is built, cached or solved; ``None`` sends the request down
        its solve path.  The check lives here, not in the solvers, so
        :class:`RefinementSolver` stays the paper's algorithm, which the
        benchmarks and the differential oracle measure.  The exhaustive
        baselines (the oracle's ground truth) and Erica never take it, and
        neither does a portfolio race: a request for a race under a deadline
        gets the race and its provenance record.
        """
        started = time.perf_counter()
        constraints = request.constraint_set()
        query = session.query
        original = original_fits(session.executor, query, constraints, request.epsilon)
        if original is None:
            return None
        identity = Refinement.identity(query)
        refined_query = identity.apply(query)
        distance = get_distance(request.distance)
        response = RefineResponse(
            request=request,
            engine="milp",
            method=request.method,
            distance_code=distance.code,
            status="ok",
            feasible=True,
            distance_value=distance.evaluate(
                query, refined_query, original, original, constraints.k_star
            ),
            deviation=constraints.deviation(original),
            refinement=identity.describe(query),
            refined_sql=render_sql(refined_query),
            constraint_counts=constraints.counts(original),
        )
        elapsed = time.perf_counter() - started
        # The identity assignment is the MILP's objective-0 point.
        response.objective_value = 0.0
        response.statistics = {"original_fits": True}
        response.timings = {
            "setup_seconds": elapsed,
            "solve_seconds": 0.0,
            "total_seconds": elapsed,
        }
        return response

    def _refine_portfolio(
        self, session: DatasetSession, request: RefineRequest
    ) -> RefineResponse:
        assert request.deadline_s is not None  # validate() enforced this
        # The race budget is the *remaining* end-to-end budget: queueing and
        # session acquisition already spent part of the SLA.
        race_budget = self._clamped_limit(request.deadline_s, "the portfolio race")
        assert race_budget is not None
        specs = tuple(
            EngineSpec(
                method=name,
                backend=request.backend,
                max_candidates=request.max_candidates,
            )
            for name in (request.engines or DEFAULT_ENGINES)
        )
        solver = PortfolioSolver(
            session.database,
            session.query,
            request.constraint_set(),
            epsilon=request.epsilon,
            distance=request.distance,
            engines=specs,
            deadline=race_budget,
            executor=session.executor,
            annotated=session.annotated(),
            mask_data=session.mask_data(),
        )
        result = solver.solve()
        response = RefineResponse(
            request=request,
            engine="portfolio",
            method=result.method,
            distance_code=result.distance_code,
            status=result.status,
            feasible=result.feasible,
            statistics={
                "engines": [spec.label for spec in specs],
                # The *requested* SLA, not the clamped race budget: the
                # canonical response must stay byte-stable across serving
                # conditions (queue wait varies run to run).
                "deadline_s": request.deadline_s,
            },
            timings={"elapsed_seconds": result.elapsed},
            race=result.race_record(),
        )
        if result.feasible:
            assert result.refinement is not None and result.refined_query is not None
            response.distance_value = result.distance_value
            response.deviation = result.deviation
            response.refinement = result.refinement.describe(session.query)
            response.refined_sql = render_sql(result.refined_query)
            response.constraint_counts = dict(result.constraint_counts)
        return response

    def _refine_milp(self, session: DatasetSession, request: RefineRequest) -> RefineResponse:
        """MILP solve with graceful degradation to the exhaustive engine.

        A failing backend (:class:`SolverError`, e.g. an injected or real
        crash inside the solver) is not the request's fault: the same problem
        is re-dispatched to the matching exhaustive baseline (``milp`` →
        ``naive``, ``milp+opt`` → ``naive+prov``) under the remaining budget,
        and the degradation is recorded in ``statistics["degraded"]``.  A
        *proven-infeasible* model is an answer, not a failure — it never
        degrades.
        """
        try:
            return self._refine_milp_direct(session, request)
        except InfeasibleError:
            raise
        except SolverError as error:
            fallback = "naive+prov" if request.method == "milp+opt" else "naive"
            budget = request.time_limit
            if budget is None and current_deadline() is None:
                # Never run the fallback unbounded on an un-deadlined request.
                budget = DEGRADED_FALLBACK_BUDGET_S
            degraded = replace(request, method=fallback, time_limit=budget)
            response = self._refine_exhaustive(session, degraded)
            # The wire response keeps the *original* request identity.
            response.request = request
            response.statistics["degraded"] = {
                "from": request.method,
                "to": fallback,
                "reason": str(error),
                "code": error.error_code,
            }
            return response

    def _refine_milp_direct(
        self, session: DatasetSession, request: RefineRequest
    ) -> RefineResponse:
        solver = RefinementSolver(
            session.database,
            session.query,
            request.constraint_set(),
            epsilon=request.epsilon,
            distance=request.distance,
            method=request.method,
            backend=request.backend,
            time_limit=self._clamped_limit(request.time_limit, "the MILP solve"),
            executor=session.executor,
            annotated=session.annotated(),
        )
        prepared = session.prepared_milp(request.milp_key(), solver.prepare)
        result = solver.solve(prepared=prepared)
        if result.feasible:
            status = "ok"
        elif result.solution_status == SolveStatus.TIME_LIMIT.value:
            # Out of time before any incumbent: nothing is proven infeasible.
            status = "timeout"
        else:
            status = "infeasible"
        response = RefineResponse(
            request=request,
            engine="milp",
            method=result.method,
            distance_code=result.distance_code,
            status=status,
            feasible=result.feasible,
            statistics=dict(result.model_statistics),
            timings={
                "setup_seconds": result.setup_seconds,
                "solve_seconds": result.solve_seconds,
                "total_seconds": result.total_seconds,
            },
        )
        if result.feasible:
            assert result.refinement is not None  # feasible => a refinement exists
            response.distance_value = result.distance_value
            response.deviation = result.deviation
            response.objective_value = result.objective_value
            response.refinement = result.refinement.describe(session.query)
            response.refined_sql = result.sql
            response.constraint_counts = dict(result.constraint_counts)
        return response

    def _refine_exhaustive(
        self, session: DatasetSession, request: RefineRequest
    ) -> RefineResponse:
        search_class = (
            NaiveProvenanceSearch if request.method == "naive+prov" else NaiveSearch
        )
        kwargs: dict[str, Any] = dict(
            epsilon=request.epsilon,
            distance=request.distance,
            timeout=self._clamped_limit(request.time_limit, "the exhaustive search"),
            max_candidates=request.max_candidates,
            executor=session.executor,
            annotated=session.annotated(),
        )
        if search_class is NaiveProvenanceSearch:
            kwargs["mask_data"] = session.mask_data()
        search = search_class(
            session.database, session.query, request.constraint_set(), **kwargs
        )
        result = search.search()
        status = "timeout" if result.timed_out else (
            "ok" if result.feasible else "infeasible"
        )
        response = RefineResponse(
            request=request,
            engine="exhaustive",
            method=result.method,
            distance_code=result.distance_code,
            status=status,
            feasible=result.feasible,
            statistics={
                "candidates_examined": result.candidates_examined,
                "space_size": result.space_size,
                "exhausted": result.exhausted,
            },
            timings={
                "setup_seconds": result.setup_seconds,
                "search_seconds": result.search_seconds,
                "total_seconds": result.total_seconds,
            },
        )
        if result.feasible:
            assert result.refinement is not None and result.refined_query is not None
            response.distance_value = result.distance_value
            response.deviation = result.deviation
            response.refinement = result.refinement.describe(session.query)
            response.refined_sql = render_sql(result.refined_query)
        return response

    def _refine_erica(self, session: DatasetSession, request: RefineRequest) -> RefineResponse:
        baseline = EricaBaseline(
            session.database,
            session.query,
            request.constraint_set(),
            output_size=request.output_size,
            backend=request.backend,
            executor=session.executor,
            annotated=session.annotated(),
        )
        result = baseline.solve(
            num_solutions=request.num_solutions,
            time_limit=self._clamped_limit(request.time_limit, "the erica solve"),
        )
        response = RefineResponse(
            request=request,
            engine="erica",
            method="erica",
            distance_code=get_distance("pred").code,
            status="ok" if result.feasible else "infeasible",
            feasible=result.feasible,
            statistics=dict(result.model_statistics),
            refinements=[
                {
                    "refinement": entry.refinement.describe(session.query),
                    "refined_sql": render_sql(entry.refined_query),
                    "distance_value": entry.distance_value,
                    "output_size": entry.output_size,
                }
                for entry in result.refinements
            ],
            timings={
                "setup_seconds": result.setup_seconds,
                "solve_seconds": result.solve_seconds,
                "total_seconds": result.total_seconds,
            },
        )
        best = result.best
        if best is not None:
            response.distance_value = best.distance_value
            response.refinement = best.refinement.describe(session.query)
            response.refined_sql = render_sql(best.refined_query)
        return response


def parse_constraint_specs(
    at_least: Sequence[str] | None, at_most: Sequence[str] | None
) -> tuple[ConstraintSpec, ...]:
    """CLI-style ``BOUND@K:Attr=Value`` strings into wire-form specs."""
    from repro.cli import parse_constraint

    specs = [
        ConstraintSpec.from_constraint(parse_constraint(text, "lower"))
        for text in at_least or []
    ]
    specs.extend(
        ConstraintSpec.from_constraint(parse_constraint(text, "upper"))
        for text in at_most or []
    )
    return tuple(specs)


__all__ = [
    "ConstraintSpec",
    "METHODS",
    "RefineRequest",
    "RefineResponse",
    "RefinementEngine",
    "original_fits",
    "parse_constraint_specs",
]
