"""The :class:`RefinementSolver` facade: the paper's MILP and MILP+opt algorithms.

The solver glues the pieces together:

1. *setup* — evaluate the original query, annotate ``~Q(D)``, optionally apply
   the relevancy pruning, and construct the MILP (this is the "Setup" time
   reported in the paper's figures);
2. *solve* — hand the program to a MILP backend;
3. *extract* — turn the optimal assignment into a refinement, re-evaluate the
   refined query on the database, and report its true distance and deviation.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace

from repro.core.constraints import ConstraintSet
from repro.core.deadline import current_deadline
from repro.core.distances import DistanceMeasure, PredicateDistance, get_distance
from repro.core.lazy_generation import run_cut_loop
from repro.core.milp_builder import BuildArtifacts, MILPBuilder
from repro.core.optimizations import BuilderOptions, apply_relevancy_pruning
from repro.core.refinement import Refinement
from repro.exceptions import NoRefinementError, RefinementError
from repro.milp.solution import Solution
from repro.provenance.lineage import AnnotatedDatabase, annotate
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor, RankedResult
from repro.relational.query import SPJQuery
from repro.relational.sqlgen import render_sql


@dataclass
class PreparedProblem:
    """The reusable outcome of :meth:`RefinementSolver.prepare`.

    Holds the evaluated original result and the built MILP (whose lowered
    standard form is cached on the model), plus the wall-clock cost of
    building them.  A warm dataset session caches one per distinct
    ``(constraints, epsilon, distance, method)`` so a repeated request skips
    setup entirely and re-solves from the cached standard form.

    Solving is not read-only: the cut loop appends separated rows to the
    model and marks them added in the lazy pools, and a second solve that
    separated against those pools at the same time would find the rows no
    longer pending and accept an infeasible relaxation optimum.
    :meth:`RefinementSolver.solve` therefore holds ``solve_lock`` around the
    backend solve and cut loop, so solves of one prepared problem run one at
    a time while distinct problems still solve concurrently.
    """

    original_result: RankedResult
    artifacts: BuildArtifacts
    setup_seconds: float

    def __post_init__(self) -> None:
        self.solve_lock = threading.Lock()


@dataclass
class RefinementResult:
    """Outcome of one refinement search.

    ``feasible`` is ``False`` when no refinement within the requested maximum
    deviation exists (the "special value" of Definition 2.7); all other fields
    are then ``None`` or empty.
    """

    feasible: bool
    method: str
    distance_code: str
    refinement: Refinement | None = None
    refined_query: SPJQuery | None = None
    objective_value: float | None = None
    distance_value: float | None = None
    deviation: float | None = None
    constraint_counts: dict[str, int] = field(default_factory=dict)
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    model_statistics: dict[str, int] = field(default_factory=dict)
    refined_result: RankedResult | None = None
    #: Terminal backend status (``"optimal"``/``"infeasible"``/``"time_limit"``
    #: ...) — lets anytime callers distinguish a proven optimum from a
    #: time-limited incumbent.
    solution_status: str = ""

    @property
    def sql(self) -> str | None:
        """The refined query rendered as SQL (``None`` when infeasible)."""
        if self.refined_query is None:
            return None
        return render_sql(self.refined_query)

    def summary(self) -> str:
        """A short human-readable report (used by the examples)."""
        if not self.feasible:
            return (
                f"[{self.method}/{self.distance_code}] no refinement within the "
                "maximum deviation exists"
            )
        return (
            f"[{self.method}/{self.distance_code}] distance={self.distance_value:.4g} "
            f"deviation={self.deviation:.4g} "
            f"setup={self.setup_seconds:.3f}s solve={self.solve_seconds:.3f}s"
        )


class RefinementSolver:
    """MILP-based solver for Best Approximation Refinement.

    Parameters
    ----------
    database, query, constraints, epsilon, distance:
        The problem instance (see Definition 2.7).
    method:
        ``"milp+opt"`` (default) applies the Section 4 optimizations;
        ``"milp"`` is the unoptimized formulation.
    backend:
        MILP backend name passed to :func:`repro.milp.get_solver`
        (``"auto"`` honours the ``REPRO_MILP_BACKEND`` environment variable).
    time_limit:
        Optional wall-clock limit (seconds) for the MILP backend.
    executor_backend, executor_db:
        Query execution backend (``"memory"``/``"sqlite"``) and optional
        on-disk sqlite path, forwarded to :class:`QueryExecutor`; both
        default to the ``REPRO_EXECUTOR_BACKEND`` / ``REPRO_EXECUTOR_DB``
        environment variables.

    The MILP is built once per :meth:`prepare`.  When enough rank/top-k rows
    stay pending after seeding (the pool-size floor,
    :data:`~repro.core.lazy_generation.MIN_LAZY_POOL_ROWS`), the builder
    withholds them as lazy pools and :meth:`solve` drives a cutting-plane
    loop over them (see :mod:`repro.core.lazy_generation`); smaller models
    are lowered and solved eagerly.  The loop converges to the same optima as
    the eager lowering and returns a typed time-limited incumbent when the
    budget or the ambient :class:`~repro.core.deadline.Deadline` expires.
    """

    def __init__(
        self,
        database: Database,
        query: SPJQuery,
        constraints: ConstraintSet,
        epsilon: float = 0.5,
        distance: DistanceMeasure | str = "pred",
        method: str = "milp+opt",
        backend: str = "auto",
        time_limit: float | None = None,
        executor_backend: str | None = None,
        executor_db: str | None = None,
        executor: QueryExecutor | None = None,
        annotated: AnnotatedDatabase | None = None,
    ) -> None:
        method = method.lower()
        if method not in ("milp", "milp+opt"):
            raise RefinementError(f"unknown method {method!r}; use 'milp' or 'milp+opt'")
        self.database = database
        self.query = query
        self.constraints = constraints
        self.epsilon = float(epsilon)
        self.distance = get_distance(distance)
        self.method = method
        self.backend = backend
        self.time_limit = time_limit
        self.options = replace(
            BuilderOptions.all() if method == "milp+opt" else BuilderOptions.none(),
            lazy_generation=True,
        )
        # A warm dataset session shares its executor and pre-annotated ~Q(D)
        # across solver instances; one-shot callers build both here.
        self._executor = executor or QueryExecutor(
            database, backend=executor_backend, db_path=executor_db
        )
        self._warm_annotated = annotated

    # -- pipeline -------------------------------------------------------------------

    def prepare(self) -> PreparedProblem:
        """Evaluate the query, annotate ``~Q(D)`` and build the MILP.

        The returned :class:`PreparedProblem` can be passed to :meth:`solve`
        any number of times (the model's lowered standard form is cached), so
        a warm session pays for setup once per distinct problem.
        """
        setup_started = time.perf_counter()
        original_result, artifacts = self._setup()
        return PreparedProblem(
            original_result=original_result,
            artifacts=artifacts,
            setup_seconds=time.perf_counter() - setup_started,
        )

    def solve(
        self,
        raise_on_infeasible: bool = False,
        prepared: PreparedProblem | None = None,
    ) -> RefinementResult:
        """Run setup + solve + extraction and return a :class:`RefinementResult`."""
        if prepared is None:
            prepared = self.prepare()
        original_result, artifacts = prepared.original_result, prepared.artifacts

        with prepared.solve_lock:
            if artifacts.lazy_pools:
                solution, cut_statistics = self._solve_cut_loop(artifacts)
            else:
                solution = artifacts.model.solve(
                    self.backend, time_limit=self.time_limit
                )
                cut_statistics = {}
            full_lowerings = artifacts.model.full_lowerings
        solve_seconds = solution.solve_seconds

        result = self._extract(original_result, artifacts, solution)
        result.model_statistics["full_lowerings"] = full_lowerings
        result.model_statistics.update(cut_statistics)
        result.setup_seconds = prepared.setup_seconds
        result.solve_seconds = solve_seconds
        result.total_seconds = prepared.setup_seconds + solve_seconds
        if raise_on_infeasible and not result.feasible:
            raise NoRefinementError(
                f"no refinement of {self.query.name!r} deviates from the constraint "
                f"set by at most {self.epsilon:g}"
            )
        return result

    # -- internals -------------------------------------------------------------------

    def _solve_cut_loop(self, artifacts: BuildArtifacts) -> tuple[Solution, dict]:
        """Drive the cutting-plane loop over the artifacts' lazy pools.

        The loop budget is ``self.time_limit`` clamped by the ambient
        :func:`~repro.core.deadline.current_deadline`; each round's backend
        solve gets whatever remains, plus the loop's guidance (its proven
        bound and the previous round's incumbent).
        """

        def backend_solve(limit: float | None, guidance: dict) -> Solution:
            return artifacts.model.solve(self.backend, time_limit=limit, **guidance)

        outcome = run_cut_loop(
            artifacts.model,
            artifacts.lazy_pools,
            backend_solve,
            time_limit=self.time_limit,
            deadline=current_deadline(),
            completion=artifacts.complete_candidate,
        )
        solution = replace(outcome.solution, solve_seconds=outcome.solve_seconds)
        return solution, {
            "cut_rounds": outcome.rounds,
            "rows_generated": outcome.rows_generated,
        }

    def _setup(self) -> tuple[RankedResult, BuildArtifacts]:
        original_result = self._executor.evaluate(self.query)
        # Sharing the executor reuses its cached join/sort of ~Q(D) and, on
        # the sqlite backend, pushes the lineage-atom scan into SQL.
        annotated = self._warm_annotated
        if annotated is None:
            annotated = annotate(self.query, self.database, executor=self._executor)
        annotated = self._maybe_prune(annotated, original_result)
        builder = MILPBuilder(
            query=self.query,
            annotated=annotated,
            constraints=self.constraints,
            epsilon=self.epsilon,
            distance=self.distance,
            original_result=original_result,
            options=self.options,
        )
        return original_result, builder.build()

    def _maybe_prune(
        self, annotated: AnnotatedDatabase, original_result: RankedResult
    ) -> AnnotatedDatabase:
        if not self.options.relevancy_pruning:
            return annotated
        keep_positions: set[int] = set()
        if self.distance.outcome_based:
            # Outcome-based objectives reference the tuples that produced the
            # original top-k* items; keep them even if pruning would drop them.
            builder_probe = MILPBuilder(
                query=self.query,
                annotated=annotated,
                constraints=self.constraints,
                epsilon=self.epsilon,
                distance=self.distance,
                original_result=original_result,
                options=self.options,
            )
            for positions in builder_probe._original_topk_positions():
                keep_positions.update(positions)
        return apply_relevancy_pruning(
            annotated, self.constraints.k_star, keep_positions
        )

    def _extract(
        self,
        original_result: RankedResult,
        artifacts: BuildArtifacts,
        solution: Solution,
    ) -> RefinementResult:
        base = RefinementResult(
            feasible=False,
            method=self.method,
            distance_code=self.distance.code,
            model_statistics=dict(artifacts.statistics),
            solution_status=solution.status.value,
        )
        if not solution.is_feasible:
            return base

        refinement = artifacts.extract_refinement(solution)
        refined_query = refinement.apply(self.query)
        refined_result = self._executor.evaluate(refined_query)
        deviation = self.constraints.deviation(refined_result)
        distance_value = self.distance.evaluate(
            self.query,
            refined_query,
            original_result,
            refined_result,
            self.constraints.k_star,
        )
        base.feasible = True
        base.refinement = refinement
        base.refined_query = refined_query
        base.objective_value = solution.objective_value
        base.distance_value = distance_value
        base.deviation = deviation
        base.constraint_counts = self.constraints.counts(refined_result)
        base.refined_result = refined_result
        return base


def solve_refinement(
    database: Database,
    query: SPJQuery,
    constraints: ConstraintSet,
    epsilon: float = 0.5,
    distance: DistanceMeasure | str = "pred",
    method: str = "milp+opt",
    backend: str = "auto",
    time_limit: float | None = None,
    executor_backend: str | None = None,
    executor_db: str | None = None,
) -> RefinementResult:
    """One-call convenience wrapper around :class:`RefinementSolver`."""
    solver = RefinementSolver(
        database=database,
        query=query,
        constraints=constraints,
        epsilon=epsilon,
        distance=distance,
        method=method,
        backend=backend,
        time_limit=time_limit,
        executor_backend=executor_backend,
        executor_db=executor_db,
    )
    return solver.solve()


# The predicate distance is the paper's default measure; re-export it here so
# ``from repro.core.solver import PredicateDistance`` works in user code that
# follows the quickstart example.
__all__ = [
    "PredicateDistance",
    "PreparedProblem",
    "RefinementResult",
    "RefinementSolver",
    "solve_refinement",
]
