"""Pinning tests for incumbents under limits and the backends' solve hints.

Branch-and-bound behaviours fixed here, which the cut loop and Erica's
enumeration rely on when they pass their hints to it:

* a warm start that already matches a proven ``known_lower_bound`` terminates
  the solve **immediately** — ``OPTIMAL``, zero LP relaxations, zero nodes;
* a time-limited solve that found (or was seeded with) an incumbent reports
  ``TIME_LIMIT`` *with* the incumbent (``has_incumbent``), never losing a
  feasible answer to the clock (the portfolio's MILP slices rely on this).

The scipy backend accepts the same two hints and ignores them: every solve is
one ``scipy.optimize.milp`` call.
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


def test_scipy_solves_once_and_ignores_the_branch_and_bound_hints(monkeypatch):
    """Both hints reach the scipy backend, and neither changes its one call."""
    import scipy.optimize

    model, _ = knapsack()
    reference = ScipySolver().solve(model)
    assert reference.is_optimal

    real_milp = scipy.optimize.milp
    calls = []

    def counting(*args, **kwargs):
        calls.append(dict(kwargs["options"]))
        return real_milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", counting)
    solution = ScipySolver().solve(
        model,
        time_limit=10.0,
        warm_start_values=dict(reference.values),
        known_lower_bound=reference.objective_value,
    )
    # Exactly one HiGHS call, with no option derived from the hints.
    assert calls == [{"mip_rel_gap": 0.0, "time_limit": 10.0}]
    assert solution.is_optimal
    assert solution.objective_value == pytest.approx(reference.objective_value)


def test_scipy_rejects_an_unknown_option():
    """A branch-and-bound-only option is an error, not silently dropped."""
    model, _ = knapsack()
    with pytest.raises(TypeError):
        ScipySolver().solve(model, node_limit=10)


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
