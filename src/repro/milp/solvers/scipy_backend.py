"""MILP backend built on :func:`scipy.optimize.milp` (HiGHS)."""

from __future__ import annotations

import time
import warnings

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


class ScipySolver(SolverBackend):
    """Exact MILP solves through SciPy's HiGHS bindings."""

    name = "scipy"

    def solve(
        self,
        model,
        time_limit: float | None = None,
        mip_rel_gap: float = 0.0,
        presolve: bool | None = None,
        known_lower_bound: float | None = None,
        **options,
    ) -> Solution:
        """Solve ``model`` through :func:`scipy.optimize.milp`.

        ``mip_rel_gap``/``presolve``/``time_limit`` map to the HiGHS options
        of the same names; anything HiGHS-specific beyond those can be passed
        verbatim via ``options["highs_options"]`` (a dict).  On a
        ``TIME_LIMIT``/``NODE_LIMIT`` stop the best incumbent found so far is
        returned (``res.x`` is present), not an empty solution, so callers —
        and the benchmark rows — still see the best-found objective.

        ``known_lower_bound`` — a proven bound no feasible solution can beat
        (the cut loop's round bound, a portfolio race's published proof) —
        maps to the HiGHS ``objective_target``: HiGHS stops the moment an
        incumbent reaches it.  SciPy's wrapper extracts the solution vector
        only for a fixed allowlist of model statuses that does not include
        the target stop (HiGHS status 12), so when that stop fires the
        incumbent comes back as ``res.x is None`` with an error code.  The
        stop itself proves the optimum equals the bound, so the backend
        re-solves once without the target to recover the incumbent — the
        guidance then costs one extra (early-stopped) solve instead of
        returning an empty ``ERROR`` solution.
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

        bounds = Bounds(lb=form.lower, ub=form.upper)
        solver_options: dict[str, object] = {"mip_rel_gap": mip_rel_gap}
        if time_limit is not None:
            solver_options["time_limit"] = float(time_limit)
        if presolve is not None:
            solver_options["presolve"] = bool(presolve)
        solver_options.update(options.get("highs_options", {}))
        if known_lower_bound is not None:
            # Translate the external-objective bound into HiGHS's internal
            # minimisation units (constant stripped, sign flipped when the
            # model maximises).
            target = float(known_lower_bound) - form.objective_constant
            if form.maximize:
                target = -target
            solver_options["objective_target"] = target

        started = time.perf_counter()
        with warnings.catch_warnings():
            # scipy.optimize.milp warns about options it does not recognise
            # before passing them to HiGHS verbatim; objective_target is one
            # of those, and the pass-through is exactly what we want.
            warnings.filterwarnings(
                "ignore", message="Unrecognized options detected"
            )
            result = milp(
                c=form.c,
                constraints=constraints,
                integrality=form.integrality,
                bounds=bounds,
                options=solver_options,
            )
            if result.x is None and "objective_target" in solver_options:
                # HiGHS stopped because an incumbent reached the objective
                # target, but scipy discards the solution vector for that
                # model status.  Reaching the target proves the optimum
                # equals the known bound, so an ordinary re-solve recovers
                # the incumbent.
                retry_options = dict(solver_options)
                del retry_options["objective_target"]
                result = milp(
                    c=form.c,
                    constraints=constraints,
                    integrality=form.integrality,
                    bounds=bounds,
                    options=retry_options,
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
