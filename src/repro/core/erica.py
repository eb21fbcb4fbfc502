"""An Erica-style baseline (Li et al., VLDB 2023) for the Section 5.3 comparison.

Erica refines a selection query so that cardinality constraints over groups in
the *entire output* (not a top-k prefix) are satisfied exactly, minimising a
predicate-based distance.  The paper compares against Erica by restricting the
output size to exactly ``k`` so that constraints "over the output" become
constraints "over the top-k".

This re-implementation follows that published problem statement:

* constraints count group members over the whole output;
* constraint satisfaction is exact (no deviation slack);
* an optional ``output_size`` equality constraint restricts the number of
  returned tuples (the adaptation the paper applies in Section 5.3);
* the objective is the predicate distance;
* several refinements can be returned, enumerated in order of increasing
  distance by adding no-good cuts and re-solving — mirroring Erica's ranked
  list of refinements.

Engine notes:

* **Lineage aggregation.**  For non-DISTINCT queries a tuple is in the output
  exactly when all of its lineage atoms hold, so tuples sharing a lineage set
  and a group-membership signature are interchangeable for whole-output
  counting.  Each such class collapses into one bounded integer *count*
  variable ``n_c ∈ [0, |c|]`` tied to its lineage's selection binary
  (``n_c = |c|·b_L``) — the whole-output analogue of the paper's Section 4
  lineage-class merging.  The HiGHS model shrinks by the duplicate factor
  while extracted refinements (which read only the predicate variables) are
  unchanged.  DISTINCT queries keep the per-tuple encoding: de-duplication
  makes tuples of a class non-interchangeable.
* **Incremental enumeration.**  The lowered standard form is cached on the
  :class:`~repro.milp.Model`; each no-good cut appends rows to the cached CSR
  instead of re-lowering, so ``num_solutions = n`` performs exactly one full
  lowering.  When a time budget is given it is split evenly across the
  remaining solves, and the previous optimum is passed to the
  branch-and-bound backend as a proven lower bound (cuts only move the
  optimum up), letting it stop as soon as it matches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.core.constraints import CardinalityConstraint, ConstraintSet
from repro.core.distances import PredicateDistance
from repro.core.milp_builder import (
    RowBatch,
    build_numerical_predicate_variables,
    flush_rows,
    refined_constant,
    selection_rows,
)
from repro.core.refinement import Refinement
from repro.exceptions import RefinementError
from repro.milp.expression import Variable, linear_sum
from repro.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE, Model
from repro.milp.solution import Solution
from repro.provenance.lineage import (
    AnnotatedDatabase,
    CategoricalAtom,
    NumericalAtom,
    annotate,
)
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery


@dataclass
class EricaRefinement:
    """One refinement returned by the baseline, with its predicate distance."""

    refinement: Refinement
    refined_query: SPJQuery
    distance_value: float
    output_size: int


@dataclass
class EricaResult:
    """Outcome of an Erica search: zero or more refinements, closest first."""

    refinements: list[EricaRefinement] = field(default_factory=list)
    setup_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    model_statistics: dict[str, int] = field(default_factory=dict)

    @property
    def feasible(self) -> bool:
        return bool(self.refinements)

    @property
    def best(self) -> EricaRefinement | None:
        return self.refinements[0] if self.refinements else None


class EricaBaseline:
    """Provenance-based refinement for whole-output cardinality constraints.

    Non-DISTINCT queries use the lineage-aggregated encoding, DISTINCT
    queries the per-tuple one (see the module notes).
    """

    def __init__(
        self,
        database: Database,
        query: SPJQuery,
        constraints: ConstraintSet,
        output_size: int | None = None,
        backend: str = "auto",
        executor_backend: str | None = None,
        executor_db: str | None = None,
        executor: QueryExecutor | None = None,
        annotated: AnnotatedDatabase | None = None,
    ) -> None:
        self.database = database
        self.query = query
        self.constraints = constraints
        self.output_size = output_size
        self.backend = backend
        self.distance = PredicateDistance()
        # A warm dataset session shares its executor and pre-annotated ~Q(D);
        # one-shot callers build both here.
        self._executor = executor or QueryExecutor(
            database, backend=executor_backend, db_path=executor_db
        )
        self._warm_annotated = annotated

    def solve(self, num_solutions: int = 1, time_limit: float | None = None) -> EricaResult:
        """Find up to ``num_solutions`` refinements, closest (by DIS_pred) first."""
        if num_solutions < 1:
            raise RefinementError("num_solutions must be at least 1")
        setup_started = time.perf_counter()
        # Sharing the executor reuses its cached join/sort of ~Q(D) and, on
        # the sqlite backend, pushes the lineage-atom scan into SQL.
        annotated = self._warm_annotated
        if annotated is None:
            annotated = annotate(self.query, self.database, executor=self._executor)
        model, categorical_variables, constant_variables, indicator_variables = (
            self._build(annotated)
        )
        setup_seconds = time.perf_counter() - setup_started

        deadline = (
            setup_started + setup_seconds + time_limit if time_limit is not None else None
        )
        refinements: list[EricaRefinement] = []
        solve_seconds = 0.0
        previous_objective: float | None = None
        for round_index in range(num_solutions):
            options: dict[str, object] = {}
            if deadline is not None:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                # Split the remaining budget evenly across the remaining
                # solves, so an easy early solve donates its slack to the
                # later, cut-constrained ones.
                options["time_limit"] = remaining / (num_solutions - round_index)
            if previous_objective is not None:
                # Adding a no-good cut can only increase the optimum, so the
                # previous objective is a proven lower bound.  Only the
                # branch-and-bound backend uses it (to stop early); the scipy
                # backend accepts and ignores it.
                options["known_lower_bound"] = previous_objective
            solution = model.solve(self.backend, **options)
            solve_seconds += solution.solve_seconds
            if not solution.is_feasible:
                break
            if solution.is_optimal:
                # Only a *proven* optimum is a valid lower bound for later
                # rounds; a TIME_LIMIT/NODE_LIMIT incumbent may overshoot the
                # true optimum and would let the fallback backend stop at a
                # suboptimal solution.  (An older proven bound stays valid —
                # cuts only move the optimum up — just weaker.)
                previous_objective = solution.objective_value
            refinement = self._extract(
                annotated, solution, categorical_variables, constant_variables,
                indicator_variables,
            )
            refined_query = refinement.apply(self.query)
            refined_result = self._executor.evaluate(refined_query)
            refinements.append(
                EricaRefinement(
                    refinement=refinement,
                    refined_query=refined_query,
                    distance_value=self.distance.evaluate_queries(self.query, refined_query),
                    output_size=len(refined_result),
                )
            )
            self._add_no_good_cut(
                model, solution, categorical_variables, indicator_variables
            )

        statistics = dict(model.summary())
        statistics["full_lowerings"] = model.full_lowerings
        statistics["incremental_extensions"] = model.incremental_extensions
        return EricaResult(
            refinements=refinements,
            setup_seconds=setup_seconds,
            solve_seconds=solve_seconds,
            total_seconds=setup_seconds + solve_seconds,
            model_statistics=statistics,
        )

    # -- model construction ------------------------------------------------------------

    def _build(self, annotated: AnnotatedDatabase):
        model = Model(f"erica[{self.query.name}]")
        categorical_variables: dict[tuple[str, object], Variable] = {}
        constant_variables: dict[tuple[str, Operator], Variable] = {}
        indicator_variables: dict[tuple[str, Operator, float], Variable] = {}

        for predicate in self.query.categorical_predicates:
            for value in annotated.categorical_domains[predicate.attribute]:
                categorical_variables[(predicate.attribute, value)] = model.binary_var(
                    f"cat[{predicate.attribute}={value}]"
                )
        for predicate in self.query.numerical_predicates:
            if predicate.operator is Operator.EQUAL:
                raise RefinementError(
                    "numerical equality predicates are not supported by the baseline"
                )
        build_numerical_predicate_variables(
            model, self.query, annotated, constant_variables, indicator_variables
        )

        if not self.query.distinct:
            self._build_aggregated_selection(
                model, annotated, categorical_variables, indicator_variables
            )
        else:
            self._build_tuple_selection(
                model, annotated, categorical_variables, indicator_variables
            )

        context = _EricaObjectiveContext(
            model, self.query, annotated, categorical_variables, constant_variables
        )
        model.minimize(self.distance.build_objective(context))
        return model, categorical_variables, constant_variables, indicator_variables

    def _build_tuple_selection(
        self, model: Model, annotated: AnnotatedDatabase,
        categorical_variables, indicator_variables,
    ) -> None:
        """One binary per tuple; selection = all lineage atoms hold and no
        better-ranked DISTINCT duplicate was selected."""
        selection: dict[int, Variable] = {}
        for annotated_tuple in annotated.tuples:
            selection[annotated_tuple.position] = model.binary_var(
                f"r[{annotated_tuple.position}]"
            )
        num_predicates = self.query.num_predicates
        batch = RowBatch()
        for annotated_tuple in annotated.tuples:
            position = annotated_tuple.position
            selection_rows(
                batch,
                [
                    model.index_of(
                        self._atom_variable(atom, categorical_variables, indicator_variables)
                    )
                    for atom in annotated_tuple.lineage
                ],
                [
                    model.index_of(selection[duplicate])
                    for duplicate in annotated.duplicates_before(position)
                ],
                model.index_of(selection[position]),
                num_predicates,
            )

        # Whole-output group cardinality constraints (exact satisfaction).
        for constraint in self.constraints:
            cols = [
                model.index_of(selection[annotated_tuple.position])
                for annotated_tuple in annotated.tuples
                if constraint.group.matches(annotated_tuple.values)
            ]
            self._add_cardinality(batch, constraint, cols, [1.0] * len(cols))

        if self.output_size is not None:
            cols = [model.index_of(variable) for variable in selection.values()]
            batch.add_row(cols, [1.0] * len(cols), SENSE_EQ, float(self.output_size))
        flush_rows(model, batch)

    def _build_aggregated_selection(
        self, model: Model, annotated: AnnotatedDatabase,
        categorical_variables, indicator_variables,
    ) -> None:
        """Lineage-aggregated encoding (non-DISTINCT queries).

        One selection binary ``b_L`` per lineage class, one bounded integer
        count variable ``n_c = |c|·b_L`` per (lineage, group signature) class;
        cardinality and output-size rows count over the ``n_c``.
        """
        constraints = list(self.constraints)
        # (lineage, signature) classes in first-appearance order.
        class_sizes: dict[tuple[frozenset, tuple[bool, ...]], int] = {}
        for annotated_tuple in annotated.tuples:
            signature = tuple(
                constraint.group.matches(annotated_tuple.values)
                for constraint in constraints
            )
            key = (annotated_tuple.lineage, signature)
            class_sizes[key] = class_sizes.get(key, 0) + 1

        lineage_binaries: dict[frozenset, Variable] = {}
        for lineage, _ in class_sizes:
            if lineage not in lineage_binaries:
                index = len(lineage_binaries)
                lineage_binaries[lineage] = model.binary_var(f"r_lineage[{index}]")
        count_variables: dict[tuple[frozenset, tuple[bool, ...]], Variable] = {}
        for class_index, (key, size) in enumerate(class_sizes.items()):
            count_variables[key] = model.integer_var(
                f"n_class[{class_index}]", lower=0.0, upper=float(size)
            )

        num_predicates = self.query.num_predicates
        batch = RowBatch()
        for lineage, variable in lineage_binaries.items():
            # b_L = 1 <=> all lineage atoms hold.
            selection_rows(
                batch,
                [
                    model.index_of(
                        self._atom_variable(atom, categorical_variables, indicator_variables)
                    )
                    for atom in lineage
                ],
                (),
                model.index_of(variable),
                num_predicates,
            )
        for (lineage, _signature), variable in count_variables.items():
            size = class_sizes[(lineage, _signature)]
            batch.add_row(
                [model.index_of(variable), model.index_of(lineage_binaries[lineage])],
                [1.0, -float(size)],
                SENSE_EQ,
                0.0,
            )

        for constraint_index, constraint in enumerate(constraints):
            cols = [
                model.index_of(variable)
                for (_, signature), variable in count_variables.items()
                if signature[constraint_index]
            ]
            self._add_cardinality(batch, constraint, cols, [1.0] * len(cols))

        if self.output_size is not None:
            cols = [model.index_of(variable) for variable in count_variables.values()]
            batch.add_row(cols, [1.0] * len(cols), SENSE_EQ, float(self.output_size))
        flush_rows(model, batch)

    @staticmethod
    def _add_cardinality(
        batch: RowBatch, constraint: CardinalityConstraint, cols, coeffs
    ) -> None:
        sense = SENSE_GE if constraint.bound_type.sign > 0 else SENSE_LE
        batch.add_row(cols, coeffs, sense, float(constraint.bound))

    @staticmethod
    def _atom_variable(atom, categorical_variables, indicator_variables) -> Variable:
        if isinstance(atom, CategoricalAtom):
            return categorical_variables[(atom.attribute, atom.value)]
        assert isinstance(atom, NumericalAtom)
        return indicator_variables[(atom.attribute, atom.operator, atom.value)]

    # -- extraction & solution enumeration -------------------------------------------------

    def _extract(
        self,
        annotated: AnnotatedDatabase,
        solution: Solution,
        categorical_variables,
        constant_variables,
        indicator_variables,
    ) -> Refinement:
        categorical: dict[str, frozenset] = {}
        for predicate in self.query.categorical_predicates:
            values = frozenset(
                value
                for value in annotated.categorical_domains[predicate.attribute]
                if solution.value(categorical_variables[(predicate.attribute, value)]) > 0.5
            )
            if not values:
                values = predicate.values
            categorical[predicate.attribute] = values
        numerical = {
            (predicate.attribute, predicate.operator): refined_constant(
                predicate, annotated, solution, constant_variables, indicator_variables
            )
            for predicate in self.query.numerical_predicates
        }
        return Refinement(numerical=numerical, categorical=categorical)

    def _add_no_good_cut(
        self, model: Model, solution: Solution, categorical_variables, indicator_variables
    ) -> None:
        """Exclude the binary signature of ``solution`` so the next solve differs.

        The appended row extends the model's cached standard form in place
        (one CSR row), so re-solving does not re-lower the whole program.
        """
        ones = []
        zeros = []
        for variable in list(categorical_variables.values()) + list(
            indicator_variables.values()
        ):
            if solution.value(variable) > 0.5:
                ones.append(variable)
            else:
                zeros.append(variable)
        # Standard no-good cut: at least one binary must flip.
        expression = linear_sum(1 - v for v in ones) + linear_sum(zeros)
        model.add_constraint(expression >= 1, name=f"no_good[{model.num_constraints}]")


@dataclass
class _EricaObjectiveContext:
    """The minimal context PredicateDistance needs (duck-typed MILPBuildContext)."""

    model: Model
    query: SPJQuery
    annotated: AnnotatedDatabase
    categorical_variables: dict
    numerical_constant_variables: dict


__all__ = ["EricaBaseline", "EricaRefinement", "EricaResult"]
