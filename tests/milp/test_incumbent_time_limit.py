"""Pinning tests for incumbents under limits in the branch-and-bound backend.

The portfolio racer leans on two behaviours fixed here:

* a warm start that already matches a proven ``known_lower_bound`` terminates
  the solve **immediately** — ``OPTIMAL``, zero LP relaxations, zero nodes —
  so a bound propagated from another engine short-circuits a fresh launch;
* a time-limited solve that found (or was seeded with) an incumbent reports
  ``TIME_LIMIT`` *with* the incumbent (``has_incumbent``), never losing a
  feasible answer to the clock.
"""

from __future__ import annotations

import pytest

import repro.milp.solvers.branch_and_bound as bnb
from repro.milp import Model, SolveStatus
from repro.milp.solvers import BranchAndBoundSolver, ScipySolver


def knapsack():
    model = Model("knapsack")
    values = [10, 13, 18, 31, 7, 15]
    weights = [2, 3, 4, 5, 1, 4]
    items = [model.binary_var(f"item{i}") for i in range(len(values))]
    model.add_constraint(
        sum(w * x for w, x in zip(weights, items)) <= 10, name="capacity"
    )
    model.maximize(sum(v * x for v, x in zip(values, items)))
    return model, items


@pytest.fixture
def counted_linprog(monkeypatch):
    """Count every LP relaxation the backend solves."""
    calls = []
    real = bnb.linprog

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(bnb, "linprog", counting)
    return calls


def test_warm_start_matching_known_bound_terminates_without_any_lp(counted_linprog):
    model, _ = knapsack()
    reference = BranchAndBoundSolver().solve(model)
    assert reference.is_optimal
    warm = dict(reference.values)
    counted_linprog.clear()

    solution = BranchAndBoundSolver().solve(
        model,
        time_limit=10.0,
        warm_start_values=warm,
        known_lower_bound=reference.objective_value,
    )
    assert solution.status is SolveStatus.OPTIMAL
    assert solution.has_incumbent and solution.is_feasible
    assert solution.objective_value == pytest.approx(reference.objective_value)
    assert solution.nodes_explored == 0
    assert counted_linprog == [], "the proof must pre-empt even the root LP"


def test_time_limited_solve_keeps_the_warm_incumbent(counted_linprog):
    model, _ = knapsack()
    reference = BranchAndBoundSolver().solve(model)
    warm = dict(reference.values)
    counted_linprog.clear()

    # No known bound: the solve cannot prove anything in zero time, but it
    # must surface the seeded incumbent rather than returning empty-handed.
    solution = BranchAndBoundSolver().solve(
        model, time_limit=0.0, warm_start_values=warm
    )
    assert solution.status is SolveStatus.TIME_LIMIT
    assert solution.has_incumbent
    assert solution.is_feasible
    assert solution.objective_value == pytest.approx(reference.objective_value)
    # Only the root relaxation ran before the clock cut in.
    assert len(counted_linprog) <= 1


def test_infeasible_warm_start_is_discarded_not_trusted():
    model, items = knapsack()
    overweight = {item: 1.0 for item in items}  # violates the capacity row
    solution = BranchAndBoundSolver().solve(
        model, warm_start_values=overweight, known_lower_bound=1e9
    )
    # The bogus warm start must not short-circuit the solve into returning an
    # infeasible assignment; the search runs and finds the true optimum.
    assert solution.is_optimal
    assert solution.objective_value == pytest.approx(56.0)


def test_scipy_objective_target_stop_recovers_the_incumbent(monkeypatch):
    """The target stop (HiGHS status 12) must not surface as an empty ERROR.

    scipy's wrapper discards the solution vector when HiGHS stops on
    ``objective_target``, so the backend re-solves once without the target.
    The first (discarded) stop is simulated here because whether HiGHS
    checks the target before or after proving optimality is timing-dependent
    on small models.
    """
    import scipy.optimize

    model, _ = knapsack()
    reference = ScipySolver().solve(model)
    assert reference.is_optimal

    real_milp = scipy.optimize.milp
    calls = []

    def target_stopping(*args, **kwargs):
        options = kwargs.get("options", {})
        calls.append(dict(options))
        if "objective_target" in options:
            from scipy.optimize import OptimizeResult

            return OptimizeResult(
                status=4,
                x=None,
                fun=None,
                message=(
                    "model_status is Target for objective reached; "
                    "primal_status is Feasible"
                ),
            )
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", target_stopping)
    solution = ScipySolver().solve(
        model, known_lower_bound=reference.objective_value
    )
    assert len(calls) == 2
    assert "objective_target" in calls[0] and "objective_target" not in calls[1]
    assert solution.is_feasible and solution.has_incumbent
    assert solution.objective_value == pytest.approx(reference.objective_value)


def test_has_incumbent_is_false_without_an_assignment():
    model = Model()
    x = model.binary_var("x")
    model.add_constraint(x >= 1)
    model.add_constraint(x <= 0)
    model.minimize(x)
    solution = BranchAndBoundSolver().solve(model)
    assert solution.status is SolveStatus.INFEASIBLE
    assert not solution.has_incumbent
    assert not solution.is_feasible
