"""A small mixed-integer linear programming (MILP) toolkit.

The paper models Best Approximation Refinement as a MILP and solves it with
CPLEX through PuLP.  Neither is available offline, so this subpackage provides
the substrate from scratch:

* a modeling layer (:class:`Variable`, :class:`LinearExpression`,
  :class:`LinearConstraint`, :class:`Model`) with a PuLP-like feel, and
* two interchangeable exact backends — :mod:`repro.milp.solvers.scipy_backend`
  (HiGHS via :func:`scipy.optimize.milp`) and
  :mod:`repro.milp.solvers.branch_and_bound` (best-first branch and bound
  over LP relaxations).

Typical usage::

    from repro.milp import Model, Variable

    model = Model("example")
    x = model.binary_var("x")
    y = model.continuous_var("y", lower=0.0, upper=10.0)
    model.add_constraint(2 * x + y <= 8, name="cap")
    model.minimize(-3 * x - y)
    solution = model.solve()
    assert solution.is_optimal
"""

from repro.milp.constraint import ConstraintSense, LinearConstraint
from repro.milp.expression import (
    LinearExpression,
    Variable,
    VariableKind,
    linear_sum,
)
from repro.milp.model import (
    SENSE_EQ,
    SENSE_GE,
    SENSE_LE,
    Model,
    ObjectiveSense,
    StandardForm,
)
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers import BACKEND_ENV_VAR, available_solvers, get_solver

__all__ = [
    "BACKEND_ENV_VAR",
    "ConstraintSense",
    "LinearConstraint",
    "LinearExpression",
    "Model",
    "ObjectiveSense",
    "SENSE_EQ",
    "SENSE_GE",
    "SENSE_LE",
    "Solution",
    "SolveStatus",
    "StandardForm",
    "Variable",
    "VariableKind",
    "available_solvers",
    "get_solver",
    "linear_sum",
]
