"""Refinement distance measures and their MILP linearizations (Section 2.2).

Three measures are provided, matching the paper's experiments:

``PredicateDistance`` (QD)
    Compares the predicates of ``Q`` and ``Q'``: the normalised absolute
    change of every numerical constant plus the Jaccard distance between the
    value sets of every categorical predicate.

``JaccardDistance`` (JAC)
    Compares the top-``k`` of ``Q`` and ``Q'`` as sets, via Jaccard distance.

``KendallDistance`` (KEN)
    Fagin et al.'s Kendall's tau for top-``k`` lists, restricted to Cases 2
    and 3 — the only cases that can occur when refinements never reorder
    tuples.

Each measure knows how to *evaluate* itself on a concrete pair of
query/refined-query results (used for reporting and by the exhaustive
baselines) and how to *linearise* itself into the MILP objective (used by the
MILP-based algorithms).
"""

from __future__ import annotations

import abc

from repro.core.context import MILPBuildContext
from repro.exceptions import RefinementError
from repro.milp.expression import LinearExpression, linear_sum
from repro.relational.executor import RankedResult
from repro.relational.query import SPJQuery


def _jaccard(first: frozenset | set, second: frozenset | set) -> float:
    """Plain Jaccard distance between two sets (1 - |∩| / |∪|)."""
    union = first | second
    if not union:
        return 0.0
    return 1.0 - len(first & second) / len(union)


class DistanceMeasure(abc.ABC):
    """Interface shared by all refinement distance measures."""

    #: Short code used in figures and benchmark output ("QD", "JAC", "KEN").
    code: str = "?"
    #: Whether the measure needs the ranked output of refinements (outcome-based).
    outcome_based: bool = False

    # -- evaluation on concrete rankings --------------------------------------

    @abc.abstractmethod
    def evaluate(
        self,
        query: SPJQuery,
        refined_query: SPJQuery,
        original_result: RankedResult,
        refined_result: RankedResult,
        k: int,
    ) -> float:
        """The distance between ``Q`` and ``Q'`` (smaller is closer)."""

    def evaluate_rankings(
        self, original_result: RankedResult, refined_result: RankedResult, k: int
    ) -> float:
        """The distance read off the two rankings alone (outcome-based measures)."""
        raise RefinementError(f"{type(self).__name__} needs the refined query")

    # -- MILP linearization -----------------------------------------------------

    def required_topk_positions(self, context: MILPBuildContext) -> dict[int, set[int]]:
        """Extra ``(position -> set of k)`` pairs that need ``l_{t,k}`` variables.

        Predicate-based distances need none; outcome-based distances request
        the positions their objective sums over.  The builder merges these
        with the positions needed by the cardinality constraints.
        """
        return {}

    @abc.abstractmethod
    def build_objective(self, context: MILPBuildContext) -> LinearExpression:
        """Linear objective to *minimize*; may add auxiliary variables/constraints."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class PredicateDistance(DistanceMeasure):
    """The paper's ``DIS_pred``: compares the selection predicates of ``Q`` and ``Q'``.

    For every numerical predicate the contribution is ``|C - C'| / C`` (the
    normaliser falls back to 1 when the original constant is 0).  For every
    categorical predicate it is the Jaccard distance between the original and
    refined value sets.

    Linearization: the numerical term uses a standard absolute-value split.
    The categorical Jaccard term ``1 - |R∩S| / |R∪S|`` has an integer-valued
    denominator ``|R∪S| ∈ {|R|, ..., |R| + m}``, so it is linearised exactly
    with one indicator per possible denominator value and a big-M product
    linearization (the paper mentions the Charnes–Cooper transformation; the
    indicator formulation is the equivalent exact rewrite that composes with
    the other objective terms, see DESIGN.md).
    """

    code = "QD"
    outcome_based = False

    def evaluate(
        self,
        query: SPJQuery,
        refined_query: SPJQuery,
        original_result: RankedResult,
        refined_result: RankedResult,
        k: int,
    ) -> float:
        return self.evaluate_queries(query, refined_query)

    def evaluate_refinement(self, query: SPJQuery, refinement) -> float:
        """Predicate distance straight from a :class:`Refinement`'s parameter maps.

        Equivalent to :meth:`evaluate_queries` on ``refinement.apply(query)``
        but without rebuilding the refined query's predicate dictionaries.
        The exhaustive searches sum the same terms in the same order from a
        candidate's values, and are held to this bit for bit.
        """
        total = 0.0
        for predicate in query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            total += self.numerical_term(
                predicate, refinement.numerical.get(key, predicate.constant)
            )
        for predicate in query.categorical_predicates:
            total += self.categorical_term(
                predicate, refinement.categorical.get(predicate.attribute, predicate.values)
            )
        return total

    @staticmethod
    def numerical_term(predicate, constant):
        """One numerical predicate's term ``|C - C'| / C`` (normaliser 1 when ``C`` is 0).

        ``constant`` may be a NumPy array of refined constants: the block
        search computes one term per candidate constant with this same
        expression, so its sums match :meth:`evaluate_refinement` bit for bit.
        """
        normaliser = abs(predicate.constant) if predicate.constant else 1.0
        return abs(predicate.constant - constant) / normaliser

    @staticmethod
    def categorical_term(predicate, values) -> float:
        """One categorical predicate's term: the Jaccard distance of the value sets."""
        return _jaccard(predicate.values, values)

    def evaluate_queries(self, query: SPJQuery, refined_query: SPJQuery) -> float:
        """Predicate distance needs only the two queries, not their outputs."""
        refined_numerical = {
            (predicate.attribute, predicate.operator): predicate.constant
            for predicate in refined_query.numerical_predicates
        }
        refined_categorical = {
            predicate.attribute: predicate.values
            for predicate in refined_query.categorical_predicates
        }
        total = 0.0
        for predicate in query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            if key not in refined_numerical:
                raise RefinementError(
                    f"refined query dropped the numerical predicate on {key}"
                )
            total += self.numerical_term(predicate, refined_numerical[key])
        for predicate in query.categorical_predicates:
            if predicate.attribute not in refined_categorical:
                raise RefinementError(
                    f"refined query dropped the categorical predicate on "
                    f"{predicate.attribute!r}"
                )
            total += self.categorical_term(
                predicate, refined_categorical[predicate.attribute]
            )
        return total

    def build_objective(self, context: MILPBuildContext) -> LinearExpression:
        model = context.model
        terms: list[LinearExpression] = []

        # Numerical predicates: |C' - C| / C via two-sided bounds on an aux var.
        for predicate in context.query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            constant_variable = context.numerical_constant_variables[key]
            normaliser = abs(predicate.constant) if predicate.constant else 1.0
            deviation = model.continuous_var(
                f"qd_abs[{predicate.attribute},{predicate.operator.value}]", lower=0.0
            )
            model.add_constraint(
                deviation >= (constant_variable - predicate.constant) * (1.0 / normaliser),
                name=f"qd_abs_pos[{predicate.attribute},{predicate.operator.value}]",
            )
            model.add_constraint(
                deviation >= (predicate.constant - constant_variable) * (1.0 / normaliser),
                name=f"qd_abs_neg[{predicate.attribute},{predicate.operator.value}]",
            )
            terms.append(deviation.to_expression())

        # Categorical predicates: exact Jaccard linearization.
        for predicate in context.query.categorical_predicates:
            terms.append(self._categorical_term(context, predicate))

        return linear_sum(terms) if terms else LinearExpression()

    @staticmethod
    def _categorical_term(context: MILPBuildContext, predicate) -> LinearExpression:
        model = context.model
        attribute = predicate.attribute
        original = predicate.values
        domain = context.annotated.categorical_domains[attribute]
        in_original = [value for value in domain if value in original]
        outside_original = [value for value in domain if value not in original]

        base = len(original)
        intersection = linear_sum(
            context.categorical_variables[(attribute, value)] for value in in_original
        )
        # Original values that no tuple of ~Q(D) carries select nothing, so
        # every refinement keeps them (see milp_builder.refined_values): they
        # add a constant to the intersection, whose bound is then all of R.
        absent = base - len(in_original)
        if absent:
            intersection = intersection + absent
        extras = linear_sum(
            context.categorical_variables[(attribute, value)] for value in outside_original
        )
        max_intersection = base

        # One indicator per feasible denominator value |R ∪ S| = base + e.
        selectors = []
        ratio_terms: list[LinearExpression] = []
        for extra_count in range(len(outside_original) + 1):
            denominator = base + extra_count
            selector = model.binary_var(f"qd_den[{attribute},{denominator}]")
            gated = model.continuous_var(
                f"qd_int[{attribute},{denominator}]", lower=0.0, upper=max_intersection
            )
            # gated == intersection when this denominator is selected, else 0.
            model.add_constraint(gated <= intersection)
            model.add_constraint(gated <= max_intersection * selector)
            model.add_constraint(
                gated >= intersection - max_intersection * (1 - selector)
            )
            selectors.append((selector, extra_count))
            ratio_terms.append(gated * (1.0 / denominator))

        model.add_constraint(
            linear_sum(selector for selector, _ in selectors) == 1,
            name=f"qd_den_pick[{attribute}]",
        )
        model.add_constraint(
            linear_sum(selector * count for selector, count in selectors) == extras,
            name=f"qd_den_match[{attribute}]",
        )
        # Jaccard distance = 1 - intersection / denominator.
        return LinearExpression({}, 1.0) - linear_sum(ratio_terms)


class JaccardDistance(DistanceMeasure):
    """The paper's ``DIS_Jaccard``: Jaccard distance between the two top-k sets.

    MILP linearization: following the paper's implementation notes, minimising
    the Jaccard distance over a fixed-size top-``k*`` is equivalent to
    maximising the number of original top-``k*`` items that remain, so the
    objective is ``k* - Σ l_{t,k*}`` over the tuples representing the original
    top-``k*`` items.
    """

    code = "JAC"
    outcome_based = True

    def evaluate(
        self,
        query: SPJQuery,
        refined_query: SPJQuery,
        original_result: RankedResult,
        refined_result: RankedResult,
        k: int,
    ) -> float:
        return self.evaluate_rankings(original_result, refined_result, k)

    def evaluate_rankings(
        self, original_result: RankedResult, refined_result: RankedResult, k: int
    ) -> float:
        original_items = set(original_result.top_k_keys(k))
        refined_items = set(refined_result.top_k_keys(k))
        return _jaccard(original_items, refined_items)

    def required_topk_positions(self, context: MILPBuildContext) -> dict[int, set[int]]:
        required: dict[int, set[int]] = {}
        for positions in context.original_topk_positions:
            for position in positions:
                required.setdefault(position, set()).add(context.k_star)
        return required

    def build_objective(self, context: MILPBuildContext) -> LinearExpression:
        kept = []
        for positions in context.original_topk_positions:
            for position in positions:
                kept.append(context.topk_variable(position, context.k_star))
        return LinearExpression({}, float(context.k_star)) - linear_sum(kept)


class KendallDistance(DistanceMeasure):
    """Fagin et al.'s Kendall's tau for top-k lists, Cases 2 and 3 only.

    Because refinements never reorder tuples, the only discordant pairs are
    those where a tuple leaves the original top-``k*`` (Case 2, paired with
    every originally-worse tuple that stays) or is displaced by a newly
    entering tuple (Case 3).  The MILP follows the paper's Section 5.1
    formulation: auxiliary variables ``CaseII_t``/``CaseIII_t`` per original
    top-``k*`` tuple, bounded by big-M expressions over the ``l_{t,k*}``
    variables, summed into the objective.
    """

    code = "KEN"
    outcome_based = True

    def evaluate(
        self,
        query: SPJQuery,
        refined_query: SPJQuery,
        original_result: RankedResult,
        refined_result: RankedResult,
        k: int,
    ) -> float:
        return self.evaluate_rankings(original_result, refined_result, k)

    def evaluate_rankings(
        self, original_result: RankedResult, refined_result: RankedResult, k: int
    ) -> float:
        """The exact Fagin Cases 2+3 penalty between the two top-``k`` lists.

        Case 3 pairs one departed item with one entering item.  Case 2 pairs an
        item present in both lists with an item present in exactly one of them
        and ranked above it there (a departed item above a surviving one in the
        original list, or an entering item above a surviving one in the refined
        list).  This is the textbook measure the paper's Example 2.4 computes;
        the MILP objective below follows the coarser linearization the paper's
        implementation section describes, so the reported ``distance_value`` of
        a Kendall solve can differ slightly from its ``objective_value``.
        """
        original_keys = original_result.top_k_keys(k)
        refined_keys = refined_result.top_k_keys(k)
        original_set = set(original_keys)
        refined_set = set(refined_keys)
        departed = [key for key in original_keys if key not in refined_set]
        entered = [key for key in refined_keys if key not in original_set]

        # Case 3: every (departed, entered) pair is discordant.
        total = float(len(departed) * len(entered))

        # Case 2a: a departed item ranked above a surviving item originally.
        for index, key in enumerate(original_keys):
            if key in refined_set:
                continue
            total += sum(
                1 for other in original_keys[index + 1 :] if other in refined_set
            )
        # Case 2b: an entering item ranked above a surviving item in the
        # refined list (it displaced that survivor downwards).
        for index, key in enumerate(refined_keys):
            if key in original_set:
                continue
            total += sum(
                1 for other in refined_keys[index + 1 :] if other in original_set
            )
        return total

    def required_topk_positions(self, context: MILPBuildContext) -> dict[int, set[int]]:
        # Case 3 counts how many tuples outside the original top-k* enter the
        # refined top-k*, so every annotated tuple needs an l_{t,k*} variable.
        return {
            annotated_tuple.position: {context.k_star}
            for annotated_tuple in context.annotated.tuples
        }

    def build_objective(self, context: MILPBuildContext) -> LinearExpression:
        model = context.model
        k_star = context.k_star
        big_m = len(context.annotated) + 1

        original_positions = [
            positions[0] for positions in context.original_topk_positions if positions
        ]
        original_set = set(original_positions)
        outside = [
            annotated_tuple.position
            for annotated_tuple in context.annotated.tuples
            if annotated_tuple.position not in original_set
            and context.has_topk_variable(annotated_tuple.position, k_star)
        ]
        entering = linear_sum(
            context.topk_variable(position, k_star) for position in outside
        )

        case_terms = []
        for rank, position in enumerate(original_positions):
            membership = context.topk_variable(position, k_star)
            worse_survivors = linear_sum(
                context.topk_variable(other, k_star)
                for other in original_positions[rank + 1 :]
            )

            case_two = model.continuous_var(f"ken_case2[{position}]", lower=0.0)
            context.add_linking_constraint(case_two <= big_m * (1 - membership))
            context.add_linking_constraint(
                case_two <= big_m * membership + worse_survivors
            )
            context.add_linking_constraint(
                case_two >= worse_survivors - big_m * membership
            )

            case_three = model.continuous_var(f"ken_case3[{position}]", lower=0.0)
            context.add_linking_constraint(case_three <= big_m * (1 - membership))
            context.add_linking_constraint(case_three <= big_m * membership + entering)
            context.add_linking_constraint(case_three >= entering - big_m * membership)

            case_terms.append(case_two + case_three)

        return linear_sum(case_terms) if case_terms else LinearExpression()


_DISTANCES: dict[str, type[DistanceMeasure]] = {
    "pred": PredicateDistance,
    "qd": PredicateDistance,
    "predicate": PredicateDistance,
    "jaccard": JaccardDistance,
    "jac": JaccardDistance,
    "kendall": KendallDistance,
    "ken": KendallDistance,
}


def get_distance(name: str | DistanceMeasure) -> DistanceMeasure:
    """Resolve a distance measure by name (``"pred"``, ``"jaccard"``, ``"kendall"``)."""
    if isinstance(name, DistanceMeasure):
        return name
    key = name.lower()
    if key not in _DISTANCES:
        raise RefinementError(
            f"unknown distance measure {name!r}; available: pred, jaccard, kendall"
        )
    return _DISTANCES[key]()
