"""A branch-and-bound MILP solver written in Python.

The solver performs a best-first search over LP relaxations solved with
:func:`scipy.optimize.linprog` (HiGHS LP).  It is exact: it terminates with
``OPTIMAL`` once the best node bound matches the incumbent, and with
``INFEASIBLE`` when no integral assignment satisfies the constraints.  It is
intentionally simple — no cutting planes, no presolve beyond what HiGHS does
for each relaxation — because its role in this repository is to cross-check
the primary SciPy/HiGHS MILP backend.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linprog

from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.base import SolverBackend

_INTEGRALITY_TOLERANCE = 1e-6


@dataclass(order=True)
class _Node:
    """A subproblem in the branch-and-bound tree, ordered by its LP bound."""

    bound: float
    tie_breaker: int = field(compare=True)
    lower: np.ndarray = field(compare=False, default=None)
    upper: np.ndarray = field(compare=False, default=None)


class BranchAndBoundSolver(SolverBackend):
    """Best-first branch and bound over LP relaxations."""

    name = "branch_and_bound"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        node_limit: int = 200_000,
        absolute_gap: float = 1e-6,
        warm_start_values=None,
        warm_start_tolerance: float = 1e-6,
        known_lower_bound: float | None = None,
        **_options,
    ) -> Solution:
        """Solve ``model``; exact unless a limit interrupts the search.

        ``warm_start_values`` may carry a variable → value mapping (e.g. the
        incumbent of a previous solve).  It is *checked* against the current
        constraints before use, so passing a solution that newer rows (no-good
        cuts) exclude is safe — it is simply discarded.  When it is feasible
        it seeds the incumbent, letting best-first search prune immediately.

        ``known_lower_bound`` is a proven lower bound on the optimal objective
        (in :class:`Solution` units, i.e. including the objective constant and
        the model's sense).  Enumeration loops know one: appending constraints
        can only increase a minimum, so the previous optimum is a valid bound.
        The search stops as soon as the incumbent matches it.
        """
        form = model.to_standard_form()
        n = len(form.variables)
        started = time.perf_counter()
        if n == 0:
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective_value=form.objective_constant,
                values={},
                solver_name=self.name,
            )

        integral_indices = np.flatnonzero(form.integrality == 1)
        counter = itertools.count()

        internal_lower = -np.inf
        if known_lower_bound is not None:
            internal_lower = float(known_lower_bound) - form.objective_constant
            if form.maximize:
                internal_lower = -internal_lower

        # Check the warm start *before* touching any LP: a warm incumbent that
        # already matches a proven lower bound is optimal, and the solve must
        # terminate immediately (zero relaxations) — the portfolio racer leans
        # on this when one engine's proof reaches another's launch.
        incumbent_value = np.inf
        incumbent_x: np.ndarray | None = None
        warm_x = self._feasible_warm_start(form, warm_start_values, warm_start_tolerance)
        if warm_x is not None:
            incumbent_value = float(form.c @ warm_x)
            incumbent_x = warm_x

        heap: list[_Node] = []
        if incumbent_x is None or incumbent_value > internal_lower + absolute_gap:
            root_relaxation = self._solve_relaxation(form, form.lower, form.upper)
            if root_relaxation is None:
                if incumbent_x is None:
                    return Solution(
                        status=SolveStatus.INFEASIBLE,
                        solver_name=self.name,
                        solve_seconds=time.perf_counter() - started,
                    )
                # A feasible warm start refutes root-LP infeasibility (numerics);
                # fall through and return the incumbent.
            else:
                root_bound, _ = root_relaxation
                heap = [
                    _Node(
                        root_bound, next(counter), form.lower.copy(), form.upper.copy()
                    )
                ]
        nodes_explored = 0
        status = SolveStatus.OPTIMAL

        while heap:
            if incumbent_x is not None and incumbent_value <= internal_lower + absolute_gap:
                # The incumbent matches a proven lower bound: optimal.
                break
            if time_limit is not None and time.perf_counter() - started > time_limit:
                status = SolveStatus.TIME_LIMIT
                break
            if nodes_explored >= node_limit:
                status = SolveStatus.NODE_LIMIT
                break

            node = heapq.heappop(heap)
            if node.bound >= incumbent_value - absolute_gap:
                # Bound cannot improve on the incumbent; search is complete
                # because the heap is ordered by bound.
                break

            relaxation = self._solve_relaxation(form, node.lower, node.upper)
            nodes_explored += 1
            if relaxation is None:
                continue
            bound, x = relaxation
            if bound >= incumbent_value - absolute_gap:
                continue

            branch_index = self._most_fractional(x, integral_indices)
            if branch_index is None:
                # Integral solution: new incumbent.
                if bound < incumbent_value:
                    incumbent_value = bound
                    incumbent_x = x
                continue

            floor_value = np.floor(x[branch_index])
            # "Down" child: x_i <= floor(value)
            down_upper = node.upper.copy()
            down_upper[branch_index] = floor_value
            if node.lower[branch_index] <= down_upper[branch_index]:
                heapq.heappush(
                    heap, _Node(bound, next(counter), node.lower.copy(), down_upper)
                )
            # "Up" child: x_i >= floor(value) + 1
            up_lower = node.lower.copy()
            up_lower[branch_index] = floor_value + 1
            if up_lower[branch_index] <= node.upper[branch_index]:
                heapq.heappush(
                    heap, _Node(bound, next(counter), up_lower, node.upper.copy())
                )

        elapsed = time.perf_counter() - started
        if incumbent_x is None:
            terminal = (
                SolveStatus.INFEASIBLE if status is SolveStatus.OPTIMAL else status
            )
            return Solution(
                status=terminal,
                solver_name=self.name,
                solve_seconds=elapsed,
                nodes_explored=nodes_explored,
            )

        values = {}
        for i, var in enumerate(form.variables):
            value = float(incumbent_x[i])
            if var.is_integral:
                value = float(round(value))
            values[var] = value
        objective = incumbent_value
        if form.maximize:
            objective = -objective
        objective += form.objective_constant
        return Solution(
            status=status,
            objective_value=objective,
            values=values,
            solver_name=self.name,
            solve_seconds=elapsed,
            nodes_explored=nodes_explored,
        )

    # -- internals -----------------------------------------------------------

    @staticmethod
    def _feasible_warm_start(form, values, tolerance: float = 1e-6):
        """Vector for a warm-start mapping if it satisfies ``form``, else ``None``."""
        if not values:
            return None
        x = np.array([float(values.get(var, 0.0)) for var in form.variables])
        integral = form.integrality == 1
        x[integral] = np.round(x[integral])
        if np.any(x < form.lower - tolerance) or np.any(x > form.upper + tolerance):
            return None
        if form.a_ub.shape[0] and np.any(form.a_ub @ x > form.b_ub + tolerance):
            return None
        if form.a_eq.shape[0] and np.any(np.abs(form.a_eq @ x - form.b_eq) > tolerance):
            return None
        return x

    @staticmethod
    def _solve_relaxation(form, lower: np.ndarray, upper: np.ndarray):
        """Solve the LP relaxation; return ``(objective, x)`` or ``None``."""
        bounds = list(zip(lower, upper))
        result = linprog(
            c=form.c,
            A_ub=form.a_ub if form.a_ub.shape[0] else None,
            b_ub=form.b_ub if form.a_ub.shape[0] else None,
            A_eq=form.a_eq if form.a_eq.shape[0] else None,
            b_eq=form.b_eq if form.a_eq.shape[0] else None,
            bounds=bounds,
            method="highs",
        )
        if not result.success:
            return None
        return float(result.fun), np.asarray(result.x, dtype=float)

    @staticmethod
    def _most_fractional(x: np.ndarray, integral_indices: np.ndarray):
        """Index of the integral variable farthest from an integer, or None."""
        if integral_indices.size == 0:
            return None
        fractional_parts = np.abs(
            x[integral_indices] - np.round(x[integral_indices])
        )
        worst = int(np.argmax(fractional_parts))
        if fractional_parts[worst] <= _INTEGRALITY_TOLERANCE:
            return None
        return int(integral_indices[worst])
