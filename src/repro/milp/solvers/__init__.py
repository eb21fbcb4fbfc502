"""Solver backends for the MILP modeling layer.

Two exact backends are provided:

``"scipy"``
    Wraps :func:`scipy.optimize.milp` (the HiGHS branch-and-cut solver).  This
    is the default.

``"branch_and_bound"``
    A best-first branch-and-bound written in Python over LP relaxations
    solved with :func:`scipy.optimize.linprog`.  It is exact but slower; it
    exists as an independent cross-check of the HiGHS results.

``get_solver("auto")`` honours the ``REPRO_MILP_BACKEND`` environment variable
(any registered backend name) and otherwise picks ``scipy``.
"""

from __future__ import annotations

import os

from repro.exceptions import SolverError
from repro.milp.solvers.base import SolverBackend
from repro.milp.solvers.branch_and_bound import BranchAndBoundSolver
from repro.milp.solvers.scipy_backend import ScipySolver

_REGISTRY: dict[str, type[SolverBackend]] = {
    "scipy": ScipySolver,
    "highs": ScipySolver,
    "branch_and_bound": BranchAndBoundSolver,
    "bnb": BranchAndBoundSolver,
}


def available_solvers() -> list[str]:
    """Names of the registered backends, the default first."""
    return ["scipy", "branch_and_bound"]


#: Environment variable consulted by ``get_solver("auto")``; lets CI and
#: benchmark runs force the fallback backend without touching call sites.
BACKEND_ENV_VAR = "REPRO_MILP_BACKEND"


def get_solver(name: str = "auto") -> SolverBackend:
    """Instantiate a solver backend by name (``"auto"`` picks the best).

    ``"auto"`` resolves, in order: the ``REPRO_MILP_BACKEND`` environment
    variable (when set and non-empty; an unknown value raises
    :class:`~repro.exceptions.SolverError` rather than being silently
    ignored), then ``"scipy"``.
    """
    key = name.lower()
    if key == "auto":
        override = os.environ.get(BACKEND_ENV_VAR, "").strip().lower()
        if override:
            if override not in _REGISTRY:
                raise SolverError(
                    f"unknown {BACKEND_ENV_VAR} backend {override!r}; "
                    f"available: {sorted(set(_REGISTRY))}"
                )
            key = override
        else:
            key = "scipy"
    if key not in _REGISTRY:
        raise SolverError(
            f"unknown solver {name!r}; available: {sorted(set(_REGISTRY))}"
        )
    return _REGISTRY[key]()


__all__ = [
    "BACKEND_ENV_VAR",
    "BranchAndBoundSolver",
    "ScipySolver",
    "SolverBackend",
    "available_solvers",
    "get_solver",
]
