"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS)."""

from __future__ import annotations

import time

import numpy as np

from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers.base import SolverBackend


# HiGHS status codes documented by scipy.optimize.milp.
_STATUS_MAP = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.TIME_LIMIT,  # iteration/time limit reached
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

#: Every solve is exact: HiGHS's default relative gap (1e-4) may stop short of
#: the optimum a refinement's distance is compared on.
_MIP_REL_GAP = 0.0


class ScipySolver(SolverBackend):
    """Exact MILP solves through SciPy's HiGHS bindings."""

    name = "scipy"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        warm_start_values=None,
        known_lower_bound: float | None = None,
    ) -> Solution:
        """Solve ``model`` with one :func:`scipy.optimize.milp` call.

        The solve is exact (:data:`_MIP_REL_GAP`) and stops early only on
        ``time_limit``.  On a ``TIME_LIMIT`` stop the best incumbent found so
        far is returned (``res.x`` is present), not an empty solution, so
        callers — and the benchmark rows — still see the best-found
        objective.

        ``warm_start_values`` and ``known_lower_bound`` are the hints the cut
        loop and Erica pass for branch-and-bound; ``scipy.optimize.milp`` has
        no MIP start and no useful early stop on a bound, so they are
        accepted and ignored.
        """
        # Resolved per call, so a patched ``scipy.optimize.milp`` (tests,
        # tracing) takes effect.
        from scipy.optimize import Bounds, LinearConstraint, milp

        form = model.to_standard_form()
        n = len(form.variables)
        if n == 0:
            return Solution(
                status=SolveStatus.OPTIMAL,
                objective_value=form.objective_constant,
                values={},
                solver_name=self.name,
            )

        constraints = []
        if form.a_ub.shape[0]:
            constraints.append(
                LinearConstraint(form.a_ub, -np.inf * np.ones(form.a_ub.shape[0]), form.b_ub)
            )
        if form.a_eq.shape[0]:
            constraints.append(LinearConstraint(form.a_eq, form.b_eq, form.b_eq))

        options = {"mip_rel_gap": _MIP_REL_GAP}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)

        started = time.perf_counter()
        result = milp(
            c=form.c,
            constraints=constraints,
            integrality=form.integrality,
            bounds=Bounds(lb=form.lower, ub=form.upper),
            options=options,
        )
        elapsed = time.perf_counter() - started

        status = _STATUS_MAP.get(result.status, SolveStatus.ERROR)
        values: dict = {}
        objective = None
        if result.x is not None:
            x = np.asarray(result.x, dtype=float)
            values = {var: self._clean(var, x[i]) for i, var in enumerate(form.variables)}
            raw_objective = float(form.c @ x)
            if form.maximize:
                raw_objective = -raw_objective
            objective = raw_objective + form.objective_constant
            if status is not SolveStatus.OPTIMAL:
                # An incumbent exists even though the solver stopped early.
                status = SolveStatus.TIME_LIMIT
        return Solution(
            status=status,
            objective_value=objective,
            values=values,
            solver_name=self.name,
            solve_seconds=elapsed,
        )

    @staticmethod
    def _clean(variable, value: float) -> float:
        """Snap integral variables to the nearest integer to remove noise."""
        if variable.is_integral:
            return float(round(value))
        return float(value)
