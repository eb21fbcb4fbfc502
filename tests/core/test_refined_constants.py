"""Reading refined numerical constants off a MILP solution.

:func:`repro.core.milp_builder.refined_constant` turns the solver's raw
constant and per-value indicator decisions into the constant the refined
query carries.  The refined query must keep exactly the values whose
indicators are 1 — honouring the operator's strictness — without reporting a
distance above the objective.  The two regression cases reproduce answers
that once broke this on meps: a raw constant a rounding error below a
domain value, and a strict ``>`` snapped onto the smallest kept value.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, EricaBaseline, RefinementSolver, at_least
from repro.core.milp_builder import refined_constant
from repro.datasets import load_dataset
from repro.milp import Model
from repro.milp.solution import Solution, SolveStatus
from repro.relational.predicates import NumericalPredicate


class _Domain:
    """The two facts ``refined_constant`` reads from an annotated ~Q(D)."""

    def __init__(self, values, gap):
        self._values = list(values)
        self._gap = gap

    def numeric_domain(self, attribute):
        return self._values

    def smallest_gap(self, attribute):
        return self._gap


def decide(symbol, original, values, kept, raw, gap=1.0):
    """Run the helper on a solution that keeps ``kept`` and sets ``raw``."""
    predicate = NumericalPredicate("A", symbol, original)
    key = ("A", predicate.operator)
    model = Model("decision")
    constant = model.continuous_var("C", lower=None)
    indicators = {(*key, value): model.binary_var(f"x{value:g}") for value in values}
    assignment = {constant: raw}
    for (_, _, value), variable in indicators.items():
        assignment[variable] = float(value in kept)
    solution = Solution(
        status=SolveStatus.OPTIMAL,
        objective_value=0.0,
        values=assignment,
        solver_name="test",
    )
    return refined_constant(
        predicate, _Domain(values, gap), solution, {key: constant}, indicators
    )


def test_raw_constant_a_rounding_error_below_a_dropped_value():
    # x[44] = 0 but C = 43.999999999999986 would still keep 44.
    assert decide(">", 22, [42, 43, 44, 45, 46], {45, 46}, 43.999999999999986) == 44.0


def test_strict_lower_bound_never_snaps_onto_a_kept_value():
    # Snapping "> 45" would drop 45; the raw constant keeps exactly {45, 46}.
    assert decide(">", 50, [43, 44, 45, 46], {45, 46}, 44.0) == 44.0


def test_strict_upper_bound_a_rounding_error_above_a_dropped_value():
    assert decide("<", 0, [1, 2, 3, 4], {1, 2}, 3.0000000001) == 3.0


def test_readable_snap_is_kept_when_exact_and_no_farther():
    assert decide(">=", 4.0, [3.0, 3.6, 4.0], {3.6, 4.0}, 3.5999999999, gap=0.4) == 3.6
    assert decide("<=", 2.0, [1.0, 2.0, 3.0], {1.0, 2.0}, 2.0000000001) == 2.0


def test_exact_raw_constant_is_returned_unchanged():
    # The original 4.2 already keeps exactly {5}; snapping to 5 would move
    # the constant away from it.
    assert decide(">=", 4.2, [3.0, 3.5, 5.0], {5.0}, 4.2, gap=0.5) == 4.2


def test_nearest_admitted_constant_when_nothing_else_is_exact():
    # The original 10 lies above every kept value of "> C": the nearest
    # constant the indicator rows admit is min(kept) - gap.
    assert decide(">", 10, [1, 2, 3, 4], {3, 4}, 1.9999999) == 2.0


@pytest.fixture(scope="module")
def meps():
    return load_dataset("meps", num_rows=1200)


def test_solver_jaccard_answer_keeps_its_model_deviation(meps):
    constraints = ConstraintSet([at_least(5, 10, Sex="M")])
    result = RefinementSolver(
        meps.database,
        meps.query,
        constraints,
        epsilon=0.0,
        distance="jaccard",
        method="milp+opt",
    ).solve()
    assert result.feasible
    assert result.deviation == 0.0
    assert result.constraint_counts["l[Sex=M,k=10]=5"] >= 5


def test_erica_answers_have_exactly_the_requested_output_size(meps):
    constraints = ConstraintSet([at_least(5, 10, Sex="M")])
    result = EricaBaseline(
        meps.database, meps.query, constraints, output_size=50
    ).solve(num_solutions=3)
    assert result.feasible
    for answer in result.refinements:
        assert answer.output_size == 50
    distances = [answer.distance_value for answer in result.refinements]
    assert distances == sorted(distances)
