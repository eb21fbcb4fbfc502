"""Construction of the Best Approximation Refinement MILP (Figure 1).

Given the annotated ``~Q(D)``, a constraint set, a maximum deviation and a
distance measure, :class:`MILPBuilder` produces a :class:`repro.milp.Model`
whose optimal solutions correspond exactly to minimal refinements (Theorem
3.7):

* expressions (1)/(2) tie the refined numerical constants ``C_{A,⋄}`` to the
  per-value indicator variables ``A_{v,⋄}``;
* expression (3) defines the selection variable ``r_t`` of every tuple from
  its lineage and its higher-ranked DISTINCT duplicates ``S(t)``;
* expression (4) forces at least ``k*`` tuples into the output;
* expressions (5)/(6) tie the top-k membership indicators ``l_{t,k}`` to the
  rank of each (relevant) tuple;
* expressions (7)/(8) bound the deviation from the constraint set by ``ε``;
* the distance measure contributes the objective.

Implementation notes (documented deviations from the paper's presentation,
see DESIGN.md):

* Expression (5) literally sums ``r_{t'}`` over *all* higher-ranked tuples,
  which makes the constraint matrix quadratic in the data size.  The builder
  keeps the matrix linear with √n-*block prefix sums*: one continuous chain
  variable per block of ~√n consecutive tuples (``C_g = C_{g-1} + Σ r`` over
  the block), so the rank of a tuple at index ``i`` is ``1 + |~Q|(1 - r_t) +
  C_{g-1} + (residual r's of its own block)`` — ``O(√n)`` non-zeros per rank
  row and ``O(√n)`` chain rows, and solutions are unchanged.  A *unit* chain
  (one prefix variable per tuple, an earlier revision of this builder) is
  equivalent but provokes quadratic substitution fill-in inside MILP
  presolve: on the reduced meps workload HiGHS spent 3.5 of its 5 seconds in
  presolve before the first branch; with the block chain it starts branching
  within milliseconds.
* Following the paper's implementation section, rank and top-k variables are
  generated only for tuples that some constraint group or the distance
  measure actually references.

Constraint rows are computed once as COO triplet arrays per family and enter
the model as :meth:`repro.milp.Model.add_constraint_block` blocks.

Under ``BuilderOptions(lazy_generation=True)`` the builder applies the
pool-size floor in the same single pass: it counts the rank-definition and
top-k membership rows that would stay pending after seeding the original
top-k positions, and withholds the two families as lazy pools only when at
least :data:`repro.core.lazy_generation.MIN_LAZY_POOL_ROWS` of them would;
otherwise it emits exactly the rows, in exactly the order, of
``lazy_generation=False``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core import lazy_generation
from repro.core.constraints import BoundType, ConstraintSet
from repro.core.context import MILPBuildContext
from repro.core.distances import DistanceMeasure
from repro.core.lazy_generation import LazyPool, RankCompletion
from repro.core.optimizations import (
    BuilderOptions,
    classify_bound_types,
    forced_predecessor_counts,
)
from repro.core.refinement import Refinement
from repro.exceptions import RefinementError
from repro.milp.expression import LinearExpression, Variable, linear_sum
from repro.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE, Model
from repro.milp.solution import Solution
from repro.provenance.lineage import (
    AnnotatedDatabase,
    CategoricalAtom,
    NumericalAtom,
)
from repro.relational.executor import RankedResult
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery

#: Fractional margin used when turning strict rank comparisons into <=; ranks
#: are integral so any value in (0, 1) is exact.
_RANK_DELTA = 0.5


class RowBatch:
    """COO triplets for one family of constraint rows.

    Rows are appended either one at a time (:meth:`add_row`) or as
    pre-vectorised NumPy chunks (:meth:`add_rows`); :func:`flush_rows` moves
    the finished batch into the model as one block.
    """

    __slots__ = ("rows", "cols", "coeffs", "senses", "rhs")

    def __init__(self) -> None:
        self.rows: list[int] = []
        self.cols: list[int] = []
        self.coeffs: list[float] = []
        self.senses: list[int] = []
        self.rhs: list[float] = []

    def add_row(self, cols, coeffs, sense: int, rhs: float) -> None:
        row = len(self.rhs)
        self.rows.extend([row] * len(cols))
        self.cols.extend(cols)
        self.coeffs.extend(coeffs)
        self.senses.append(sense)
        self.rhs.append(float(rhs))

    def add_rows(self, rows, cols, coeffs, senses, rhs) -> None:
        """Append a chunk of rows given as parallel arrays (local row ids).

        ``ndarray.tolist()`` converts each chunk in one C-level pass, so the
        vectorised assembly is not re-walked element-by-element in Python.
        """
        base = len(self.rhs)
        self.rows.extend(
            (np.asarray(rows, dtype=np.int64) + base).tolist() if base
            else np.asarray(rows, dtype=np.int64).tolist()
        )
        self.cols.extend(np.asarray(cols, dtype=np.int64).tolist())
        self.coeffs.extend(np.asarray(coeffs, dtype=np.float64).tolist())
        self.senses.extend(np.asarray(senses, dtype=np.int8).tolist())
        self.rhs.extend(np.asarray(rhs, dtype=np.float64).tolist())

    def __len__(self) -> int:
        return len(self.rhs)


def pool_from_batch(name: str, batch: RowBatch, group_keys: list[int]) -> LazyPool:
    """Freeze a row batch into a :class:`LazyPool` (one key per row)."""
    return LazyPool(
        name, batch.rows, batch.cols, batch.coeffs, batch.senses, batch.rhs, group_keys
    )


def flush_rows(model: Model, batch: RowBatch) -> None:
    """Move a finished row batch into ``model`` as one COO block."""
    if not batch.rhs:
        return
    model.add_constraint_block(
        np.asarray(batch.rows, dtype=np.int64),
        np.asarray(batch.cols, dtype=np.int64),
        np.asarray(batch.coeffs, dtype=np.float64),
        np.asarray(batch.senses, dtype=np.int8),
        np.asarray(batch.rhs, dtype=np.float64),
    )


def indicator_rows(
    batch: RowBatch,
    constant_col: int,
    indicator_cols: np.ndarray,
    values: np.ndarray,
    big_m: float,
    delta: float,
    strict: float,
    lower_bound: bool,
) -> None:
    """Append the expression (1)/(2) rows tying a refined constant to its
    per-value indicators: two interleaved rows per domain value, each over the
    columns ``(constant, indicator)``, assembled as one vectorised chunk.
    Shared by the Figure 1 builder and the Erica baseline (which uses the
    same indicator encoding)."""
    count = len(values)
    rows = np.repeat(np.arange(2 * count, dtype=np.int64), 2)
    cols = np.empty(4 * count, dtype=np.int64)
    cols[0::2] = constant_col
    cols[1::4] = indicator_cols
    cols[3::4] = indicator_cols
    coeffs = np.empty(4 * count, dtype=np.float64)
    coeffs[0::2] = 1.0
    senses = np.empty(2 * count, dtype=np.int8)
    rhs = np.empty(2 * count, dtype=np.float64)
    if lower_bound:
        # Expression (1): indicator = 1 <=> value ⋄ C holds.
        coeffs[1::4] = big_m
        coeffs[3::4] = big_m
        senses[0::2] = SENSE_GE
        senses[1::2] = SENSE_LE
        rhs[0::2] = values + (1.0 - strict) * delta
        rhs[1::2] = big_m + (values - strict * delta)
    else:
        # Expression (2): mirror image for upper-bound predicates.
        coeffs[1::4] = -big_m
        coeffs[3::4] = -big_m
        senses[0::2] = SENSE_LE
        senses[1::2] = SENSE_GE
        rhs[0::2] = values - (1.0 - strict) * delta
        rhs[1::2] = (values + strict * delta) - big_m
    batch.add_rows(rows, cols, coeffs, senses, rhs)


def build_numerical_predicate_variables(
    model: Model,
    query: SPJQuery,
    annotated: AnnotatedDatabase,
    constant_variables: dict,
    indicator_variables: dict,
) -> None:
    """Create the refined-constant and per-value indicator variables for every
    numerical predicate of ``query`` and emit their expression (1)/(2) rows.

    Fills ``constant_variables`` (keyed ``(attribute, operator)``) and
    ``indicator_variables`` (keyed ``(attribute, operator, value)``).  Shared
    by the Figure 1 builder and the Erica baseline, which use the same
    indicator encoding.
    """
    for predicate in query.numerical_predicates:
        attribute, operator = predicate.attribute, predicate.operator
        domain = annotated.numeric_domain(attribute)
        if not domain:
            raise RefinementError(
                f"numerical predicate attribute {attribute!r} has no values in the data"
            )
        big_m = annotated.big_m(attribute)
        delta = annotated.smallest_gap(attribute)
        strict = 1.0 if operator.is_strict else 0.0

        constant = model.continuous_var(
            f"const[{attribute},{operator.value}]",
            lower=min(domain) - 1.0,
            upper=max(domain) + 1.0,
        )
        constant_variables[(attribute, operator)] = constant

        indicator_cols = np.empty(len(domain), dtype=np.int64)
        for position, value in enumerate(domain):
            indicator = model.binary_var(f"num[{attribute}{operator.value}{value:g}]")
            indicator_variables[(attribute, operator, value)] = indicator
            indicator_cols[position] = model.index_of(indicator)

        batch = RowBatch()
        indicator_rows(
            batch,
            model.index_of(constant),
            indicator_cols,
            np.asarray(domain, dtype=np.float64),
            big_m,
            delta,
            strict,
            operator.is_lower_bound,
        )
        flush_rows(model, batch)


def refined_values(
    predicate,
    annotated: AnnotatedDatabase,
    solution: Solution,
    categorical_variables: dict,
) -> frozenset:
    """The refined value set of a categorical predicate, read off a solution.

    The ``~Q(D)`` domain values whose variable the solution sets, plus every
    original value that no tuple of ``~Q(D)`` carries: keeping such a value
    selects no tuple and only lowers the predicate distance, whose objective
    counts it as kept.  Empty when the solution sets no domain value.

    Shared by the Figure 1 builder and the Erica baseline.
    """
    attribute = predicate.attribute
    domain = annotated.categorical_domains[attribute]
    selected = frozenset(
        value
        for value in domain
        if solution.value(categorical_variables[(attribute, value)]) > 0.5
    )
    if not selected:
        return selected
    return selected | predicate.values.difference(domain)


def refined_constant(
    predicate,
    annotated: AnnotatedDatabase,
    solution: Solution,
    constant_variables: dict,
    indicator_variables: dict,
) -> float:
    """The refined constant of a numerical predicate, read off a solution.

    The indicator decisions fix which domain values the refined predicate
    keeps; the returned constant keeps exactly those, honouring the
    operator's strictness.  Preference order:

    * the smallest (``>``/``>=``) or largest (``<``/``<=``) kept value, when
      it keeps exactly the chosen values and is no farther from the original
      constant than the solver's raw constant — a readable ``GPA >= 3.6``
      rather than ``GPA >= 3.5873``;
    * the solver's raw constant, when it keeps exactly the chosen values;
    * otherwise (the raw constant sits a rounding error outside the values'
      interval, or a strict operator excludes the boundary value) the point
      of the interval the expression (1)/(2) rows admit that is nearest the
      original constant.  That interval contains the raw constant up to the
      solver's feasibility tolerance, so the reported distance never exceeds
      the objective by more than that tolerance.

    Shared by the Figure 1 builder and the Erica baseline.
    """
    attribute, operator = predicate.attribute, predicate.operator
    original = predicate.constant
    raw = solution.value(constant_variables[(attribute, operator)])
    kept: list[float] = []
    dropped: list[float] = []
    for value in annotated.numeric_domain(attribute):
        indicator = indicator_variables[(attribute, operator, value)]
        (kept if solution.value(indicator) > 0.5 else dropped).append(value)

    def keeps_exactly(constant: float) -> bool:
        return all(operator.compare(value, constant) for value in kept) and not any(
            operator.compare(value, constant) for value in dropped
        )

    if kept:
        snapped = min(kept) if operator.is_lower_bound else max(kept)
        if abs(snapped - original) <= abs(raw - original) + 1e-9 and keeps_exactly(
            snapped
        ):
            return snapped
    if keeps_exactly(raw):
        return raw
    # The constants the indicator rows admit for this decision.
    gap = annotated.smallest_gap(attribute)
    strict = 1.0 if operator.is_strict else 0.0
    if operator.is_lower_bound:
        low = max(dropped) + (1.0 - strict) * gap if dropped else -math.inf
        high = min(kept) - strict * gap if kept else math.inf
    else:
        low = max(kept) + strict * gap if kept else -math.inf
        high = min(dropped) - (1.0 - strict) * gap if dropped else math.inf
    return min(max(original, low), high)


def selection_rows(
    batch: RowBatch,
    atom_cols,
    duplicate_cols,
    selection_col: int,
    num_predicates: int,
) -> None:
    """Append the expression (3) row pair tying a selection binary to its
    lineage (and, for DISTINCT queries, its better-ranked duplicates):
    selection = 1 <=> every lineage atom holds and no duplicate in
    ``duplicate_cols`` is selected.  Shared by the Figure 1 builder (per
    tuple and per merged lineage class) and the Erica baseline."""
    bound = num_predicates + len(duplicate_cols)
    cols = list(atom_cols) + list(duplicate_cols) + [selection_col]
    coeffs = [1.0] * len(atom_cols) + [-1.0] * len(duplicate_cols) + [-float(bound)]
    offset = float(len(duplicate_cols))
    batch.add_row(cols, coeffs, SENSE_GE, -offset)
    batch.add_row(cols, coeffs, SENSE_LE, float(bound - 1) - offset)


@dataclass
class BuildArtifacts:
    """Everything the solver needs after the model is built.

    ``lazy_pools`` is non-empty only under
    ``BuilderOptions(lazy_generation=True)`` and at or over the pool-size
    floor: the withheld constraint families the cut loop separates over.
    Pool state (which rows are still pending) lives on the artifacts,
    so repeated solves of a prepared problem — portfolio time slices, a warm
    service session — resume from whatever rows earlier rounds already
    generated.
    """

    model: Model
    context: MILPBuildContext
    options: BuilderOptions
    extract_refinement: Callable[[Solution], Refinement]
    statistics: dict[str, int] = field(default_factory=dict)
    lazy_pools: list[LazyPool] = field(default_factory=list)
    complete_candidate: RankCompletion | None = None


class MILPBuilder:
    """Builds the Figure 1 MILP for one Best Approximation Refinement instance."""

    def __init__(
        self,
        query: SPJQuery,
        annotated: AnnotatedDatabase,
        constraints: ConstraintSet,
        epsilon: float,
        distance: DistanceMeasure,
        original_result: RankedResult,
        options: BuilderOptions | None = None,
    ) -> None:
        if epsilon < 0:
            raise RefinementError("the maximum deviation epsilon must be non-negative")
        for predicate in query.numerical_predicates:
            if predicate.operator is Operator.EQUAL:
                raise RefinementError(
                    "numerical equality predicates cannot be refined by the MILP "
                    f"model (predicate on {predicate.attribute!r})"
                )
        self.query = query
        self.annotated = annotated
        self.constraints = constraints
        self.epsilon = epsilon
        self.distance = distance
        self.original_result = original_result
        self.options = options or BuilderOptions.all()

        self._model = Model(f"refine[{query.name}]")
        self._categorical_variables: dict[tuple[str, object], Variable] = {}
        self._numerical_constant_variables: dict[tuple[str, Operator], Variable] = {}
        self._numerical_indicator_variables: dict[tuple[str, Operator, float], Variable] = {}
        self._selection_variables: dict[int, Variable] = {}
        self._topk_variables: dict[tuple[int, int], Variable] = {}

    # -- public API ------------------------------------------------------------------

    def build(self) -> BuildArtifacts:
        """Construct the model and return it with its extraction helpers."""
        merge_lineage = (
            self.options.merge_lineage_variables and not self.query.distinct
        )
        self._merged_selection = merge_lineage
        self._lazy_pools = []
        self._rank_completion: RankCompletion | None = None

        self._build_predicate_variables()
        self._build_selection_variables(merge_lineage)
        self._build_minimum_output_size()

        context = MILPBuildContext(
            model=self._model,
            query=self.query,
            annotated=self.annotated,
            constraints=self.constraints,
            k_star=self.constraints.k_star,
            original_result=self.original_result,
            original_topk_positions=self._original_topk_positions(),
            categorical_variables=self._categorical_variables,
            numerical_constant_variables=self._numerical_constant_variables,
            topk_variables=self._topk_variables,
        )

        distance_required = self.distance.required_topk_positions(context)
        needed = self._needed_topk(distance_required)
        seed_positions = {
            position
            for positions in context.original_topk_positions
            for position in positions
        }
        # The floor: pool the rank/top-k rows only when enough of them stay
        # pending once the original top-k positions' rows are seeded.
        pending = sum(
            1 + 2 * len(ks)
            for position, ks in needed.items()
            if position not in seed_positions
        )
        self._pooled = (
            self.options.lazy_generation
            and pending >= lazy_generation.MIN_LAZY_POOL_ROWS
        )
        self._build_rank_and_topk_variables(needed, set(distance_required))
        self._build_deviation_constraints()

        objective = self.distance.build_objective(context)
        self._model.minimize(objective)
        if self._lazy_pools:
            self._seed_original_topk_groups(seed_positions)
        # Linking rows reference only original top-k positions, so they go
        # in after the seed rather than into a pool.
        for constraint in context.linking_constraints:
            self._model.add_constraint(constraint)

        statistics = dict(self._model.summary())
        statistics["annotated_tuples"] = len(self.annotated)
        statistics["lineage_classes"] = self.annotated.num_lineage_classes
        statistics["topk_variables"] = len(self._topk_variables)
        if self._pooled:
            # The seed is what the first relaxation actually carries; pending
            # pool rows only enter the model when the cut loop generates them.
            statistics["seed_rows"] = self._model.num_constraints
            statistics["lazy_pool_rows"] = sum(
                len(pool) for pool in self._lazy_pools
            )

        return BuildArtifacts(
            model=self._model,
            context=context,
            options=self.options,
            extract_refinement=self._extract_refinement,
            statistics=statistics,
            lazy_pools=self._lazy_pools,
            complete_candidate=self._rank_completion,
        )

    def _seed_original_topk_groups(self, seed_positions: set[int]) -> None:
        """Move the original top-k positions' pool groups into the eager seed.

        The objective scores exactly these positions (a distance-0 refinement
        keeps every one of them in the top-k), so their rank/membership rows
        are active at almost every optimum.  Seeding them up front saves the
        cut loop a crawl of rounds that would pull them in one group at a
        time, while the bulk of the pools — the rank machinery of every
        *other* tuple — stays lazy.
        """
        if not seed_positions:
            return
        seed_keys = np.fromiter(seed_positions, dtype=np.int64)
        for pool in self._lazy_pools:
            block = pool.take(seed_keys)
            if block is not None:
                self._model.add_constraint_block(*block)
        # A fully-seeded pool has nothing left to separate.
        self._lazy_pools = [pool for pool in self._lazy_pools if pool.num_pending]

    # -- row emission ----------------------------------------------------------------

    def _flush(self, batch: RowBatch) -> None:
        flush_rows(self._model, batch)

    def _column(self, variable: Variable) -> int:
        return self._model.index_of(variable)

    # -- expressions (1) and (2): numerical predicate indicators ----------------------

    def _build_predicate_variables(self) -> None:
        for predicate in self.query.categorical_predicates:
            domain = self.annotated.categorical_domains[predicate.attribute]
            for value in domain:
                variable = self._model.binary_var(f"cat[{predicate.attribute}={value}]")
                self._categorical_variables[(predicate.attribute, value)] = variable

        build_numerical_predicate_variables(
            self._model,
            self.query,
            self.annotated,
            self._numerical_constant_variables,
            self._numerical_indicator_variables,
        )

    # -- expression (3): tuple selection -------------------------------------------------

    def _lineage_variable(self, atom: CategoricalAtom | NumericalAtom) -> Variable:
        if isinstance(atom, CategoricalAtom):
            return self._categorical_variables[(atom.attribute, atom.value)]
        return self._numerical_indicator_variables[(atom.attribute, atom.operator, atom.value)]

    def _build_selection_variables(self, merge_lineage: bool) -> None:
        num_predicates = self.query.num_predicates
        batch = RowBatch()
        if merge_lineage:
            # One variable per lineage equivalence class (Section 4, "Selecting
            # Lineages"); all tuples of the class share it.
            for class_index, (lineage, positions) in enumerate(
                self.annotated.lineage_classes.items()
            ):
                variable = self._model.binary_var(f"r_class[{class_index}]")
                for position in positions:
                    self._selection_variables[position] = variable
                selection_rows(
                    batch,
                    [self._column(self._lineage_variable(atom)) for atom in lineage],
                    (),
                    self._column(variable),
                    num_predicates,
                )
            self._flush(batch)
            return

        for annotated_tuple in self.annotated.tuples:
            position = annotated_tuple.position
            variable = self._model.binary_var(f"r[{position}]")
            self._selection_variables[position] = variable

        for annotated_tuple in self.annotated.tuples:
            position = annotated_tuple.position
            selection_rows(
                batch,
                [self._column(self._lineage_variable(atom)) for atom in annotated_tuple.lineage],
                [
                    self._column(self._selection_variables[duplicate])
                    for duplicate in self.annotated.duplicates_before(position)
                ],
                self._column(self._selection_variables[position]),
                num_predicates,
            )
        self._flush(batch)

    # -- expression (4): minimum output size --------------------------------------------

    def _build_minimum_output_size(self) -> None:
        batch = RowBatch()
        cols = [
            self._column(self._selection_variables[annotated_tuple.position])
            for annotated_tuple in self.annotated.tuples
        ]
        batch.add_row(cols, [1.0] * len(cols), SENSE_GE, float(self.constraints.k_star))
        self._flush(batch)

    # -- expressions (5) and (6): ranks and top-k membership ------------------------------

    def _original_topk_positions(self) -> list[list[int]]:
        """Positions in ``~Q(D)`` of the tuples representing the original top-``k*`` items."""
        k_star = self.constraints.k_star
        original_keys = self.original_result.top_k_keys(k_star)
        positions_by_key: dict[tuple[object, ...], list[int]] = {}
        select = list(self.query.select)
        use_distinct_key = self.query.distinct and bool(select)
        for annotated_tuple in self.annotated.tuples:
            if use_distinct_key:
                # Must mirror RankedResult.item_key for DISTINCT queries.
                key = tuple(annotated_tuple.values[name] for name in select)
            else:
                key = tuple(annotated_tuple.values.values())
            positions_by_key.setdefault(key, []).append(annotated_tuple.position)
        mapped: list[list[int]] = []
        for key in original_keys:
            mapped.append(positions_by_key.get(tuple(key), []))
        return mapped

    def _needed_topk(
        self, distance_required: dict[int, set[int]]
    ) -> dict[int, set[int]]:
        """Which ``(position, k)`` pairs need ``l_{t,k}`` variables.

        Under relevancy pruning, constraint-driven pairs whose tuple provably
        cannot rank within the top-``k`` of *any* refinement (see
        :func:`forced_predecessor_counts`) are dropped: their ``l`` variable
        is identically zero, so omitting it leaves every feasible solution —
        and therefore every optimum — unchanged while removing the rank
        variable and its big-M rows.  Pairs the objective references are
        always kept (distance measures read their values directly).
        """
        needed: dict[int, set[int]] = {}
        for constraint in self.constraints:
            for annotated_tuple in self.annotated.tuples:
                if constraint.group.matches(annotated_tuple.values):
                    needed.setdefault(annotated_tuple.position, set()).add(constraint.k)
        if self.options.relevancy_pruning and needed:
            cap = max(constraint.k for constraint in self.constraints)
            counts = forced_predecessor_counts(self.annotated, self.query, cap=cap)
            if counts is not None:
                for position, ks in list(needed.items()):
                    reachable = {k for k in ks if counts[position] < k}
                    if reachable:
                        needed[position] = reachable
                    else:
                        del needed[position]
        for position, ks in distance_required.items():
            needed.setdefault(position, set()).update(ks)
        return needed

    def _build_rank_and_topk_variables(
        self, needed: dict[int, set[int]], objective_positions: set[int]
    ) -> None:
        if not needed:
            return
        tuples = self.annotated.tuples
        size = len(tuples)
        bound_types = classify_bound_types(self.annotated, self.constraints)
        # Positions whose l variables appear in the objective must keep an
        # exact rank definition even when the Section 4 relaxation is enabled:
        # the relaxation argument only covers constraint deviation.
        outcome_positions = set(objective_positions)

        index_of_position = {
            annotated_tuple.position: index for index, annotated_tuple in enumerate(tuples)
        }
        selection_cols = [
            self._column(self._selection_variables[annotated_tuple.position])
            for annotated_tuple in tuples
        ]

        needed_items = sorted(needed.items())
        needed_indices = [index_of_position[position] for position, _ in needed_items]

        if self._merged_selection:
            # √n-block prefix sums of the selection variables, in rank order:
            # C_g = number of selected tuples among the first (g+1)·B
            # positions.  These make expression (5) sparse without the
            # quadratic presolve fill-in a unit chain (one prefix variable per
            # tuple) provokes; the residual r's of a tuple's own block
            # collapse onto the shared class variables, so rank rows stay
            # narrow.  Only the blocks some rank definition references exist.
            block = max(1, int(round(math.sqrt(size))))
        else:
            # Unmerged models keep the unit chain (P_i = P_{i-1} + r_i): with
            # one distinct selection variable per tuple, √n-wide residual rows
            # measurably slow HiGHS down instead of speeding it up.  With
            # ``block = 1`` the lowering below degenerates to exactly that
            # chain (every rank row references C_{i-1} with no residuals).
            block = 1
        last_chain_block = max(index // block for index in needed_indices) - 1
        chain_cols: list[int] = []
        chain_batch = RowBatch()
        for g in range(last_chain_block + 1):
            lo, hi = g * block, (g + 1) * block
            label = f"prefix_block[{g}]" if block > 1 else f"prefix[{tuples[g].position}]"
            chain_var = self._model.continuous_var(label, lower=0.0, upper=float(size))
            chain_col = self._column(chain_var)
            cols = [chain_col]
            coeffs = [1.0]
            if g > 0:
                cols.append(chain_cols[g - 1])
                coeffs.append(-1.0)
            cols.extend(selection_cols[lo:hi])
            coeffs.extend([-1.0] * (hi - lo))
            chain_batch.add_row(cols, coeffs, SENSE_EQ, 0.0)
            chain_cols.append(chain_col)
        self._flush(chain_batch)

        # Over the floor the rank-definition and top-k membership rows are
        # withheld as two pools keyed by tuple position (the chain rows above
        # stay eager: they only tie the prefix variables to the selection
        # variables and every rank row references them).  The loop below is
        # shared by both modes so the eager path keeps its exact row emission
        # order.
        lazy = self._pooled
        batch = RowBatch()
        rank_batch = RowBatch() if lazy else batch
        topk_batch = RowBatch() if lazy else batch
        rank_keys: list[int] = []
        topk_keys: list[int] = []
        # Triplets of the rank definitions *without* their rank-variable term,
        # feeding the candidate completion: implied rank = rhs - expr.
        completion_rows: list[int] = []
        completion_cols: list[int] = []
        completion_coeffs: list[float] = []
        completion_rhs: list[float] = []
        completion_rank_cols: list[int] = []
        for position, ks in needed_items:
            index = index_of_position[position]
            selection_col = selection_cols[index]
            rank = self._model.continuous_var(
                f"s[{position}]", lower=1.0, upper=2.0 * size + 1.0
            )
            rank_col = self._column(rank)
            # Expression (5): rank = 1 + |~Q|(1 - r) + (selected before), the
            # prefix rewritten as C_{q-1} for the last complete block below
            # index i plus the residual r's of the partial block [q·B, i).
            # Lowered as  rank + |~Q|·r - prefix = 1 + |~Q|.
            definition_cols = [rank_col, selection_col]
            definition_coeffs = [1.0, float(size)]
            if index > 0:
                q = index // block
                if q > 0:
                    definition_cols.append(chain_cols[q - 1])
                    definition_coeffs.append(-1.0)
                for j in range(q * block, index):
                    definition_cols.append(selection_cols[j])
                    definition_coeffs.append(-1.0)
            definition_rhs = 1.0 + float(size)

            relax = (
                self.options.relax_rank_expressions
                and position not in outcome_positions
                and bound_types.get(position)
                in ({BoundType.LOWER}, {BoundType.UPPER})
            )
            if relax and bound_types[position] == {BoundType.LOWER}:
                sense = SENSE_GE
            elif relax and bound_types[position] == {BoundType.UPPER}:
                sense = SENSE_LE
            else:
                sense = SENSE_EQ
            rank_batch.add_row(definition_cols, definition_coeffs, sense, definition_rhs)
            rank_keys.append(position)
            if lazy:
                row = len(completion_rhs)
                completion_rows.extend([row] * (len(definition_cols) - 1))
                completion_cols.extend(definition_cols[1:])
                completion_coeffs.extend(definition_coeffs[1:])
                completion_rhs.append(definition_rhs)
                completion_rank_cols.append(rank_col)

            for k in sorted(ks):
                member = self._model.binary_var(f"l[{position},{k}]")
                self._topk_variables[(position, k)] = member
                member_col = self._column(member)
                coefficient = 2.0 * size + 1.0
                # Expression (6): member = 1 <=> rank <= k.
                topk_batch.add_row(
                    [rank_col, member_col], [1.0, coefficient],
                    SENSE_GE, float(k) + _RANK_DELTA,
                )
                topk_batch.add_row(
                    [rank_col, member_col], [1.0, coefficient],
                    SENSE_LE, float(k) + coefficient,
                )
                topk_keys.extend((position, position))
        if lazy:
            if len(rank_batch):
                self._lazy_pools.append(pool_from_batch("rank", rank_batch, rank_keys))
            if len(topk_batch):
                self._lazy_pools.append(pool_from_batch("topk", topk_batch, topk_keys))
            if completion_rhs:
                self._rank_completion = RankCompletion(
                    completion_rank_cols,
                    completion_rows,
                    completion_cols,
                    completion_coeffs,
                    completion_rhs,
                )
        else:
            self._flush(batch)

    # -- expressions (7) and (8): deviation ------------------------------------------------

    def _build_deviation_constraints(self) -> None:
        shortfall_terms: list[LinearExpression] = []
        for index, constraint in enumerate(self.constraints):
            shortfall = self._model.continuous_var(
                f"E[{index}:{constraint.label()}]", lower=0.0, upper=float(constraint.k)
            )
            # Pairs pruned by _needed_topk have no variable: their l is
            # identically zero, so they simply drop out of the count.
            members = [
                self._topk_variables[(annotated_tuple.position, constraint.k)]
                for annotated_tuple in self.annotated.tuples
                if constraint.group.matches(annotated_tuple.values)
                and (annotated_tuple.position, constraint.k) in self._topk_variables
            ]
            count = linear_sum(members) if members else LinearExpression()
            sign = constraint.bound_type.sign
            # Expression (7): shortfall >= Sign(c) * (n - count).
            self._model.add_constraint(
                shortfall >= (constraint.bound - count) * float(sign),
                name=f"shortfall[{index}]",
            )
            denominator = float(max(constraint.bound, 1))
            shortfall_terms.append(shortfall * (1.0 / denominator))

        # Expression (8): mean relative shortfall bounded by epsilon.
        deviation = linear_sum(shortfall_terms) * (1.0 / len(self.constraints))
        self._model.add_constraint(deviation <= self.epsilon, name="max_deviation")

    # -- solution extraction -------------------------------------------------------------

    def _extract_refinement(self, solution: Solution) -> Refinement:
        categorical: dict[str, frozenset] = {}
        for predicate in self.query.categorical_predicates:
            selected = refined_values(
                predicate, self.annotated, solution, self._categorical_variables
            )
            if not selected:
                # A refinement that selects no value of a categorical predicate
                # would produce an empty output; expression (4) prevents this in
                # feasible solutions, so reaching here indicates solver trouble.
                raise RefinementError(
                    f"solution selects no value for categorical predicate on "
                    f"{predicate.attribute!r}"
                )
            categorical[predicate.attribute] = selected

        numerical = {
            (predicate.attribute, predicate.operator): refined_constant(
                predicate,
                self.annotated,
                solution,
                self._numerical_constant_variables,
                self._numerical_indicator_variables,
            )
            for predicate in self.query.numerical_predicates
        }
        return Refinement(numerical=numerical, categorical=categorical)


def build_model(
    query: SPJQuery,
    annotated: AnnotatedDatabase,
    constraints: ConstraintSet,
    epsilon: float,
    distance: DistanceMeasure,
    original_result: RankedResult,
    options: BuilderOptions | None = None,
) -> BuildArtifacts:
    """Convenience wrapper around :class:`MILPBuilder`."""
    builder = MILPBuilder(
        query=query,
        annotated=annotated,
        constraints=constraints,
        epsilon=epsilon,
        distance=distance,
        original_result=original_result,
        options=options,
    )
    return builder.build()
