"""The build context shared between the MILP builder and the distance measures.

The distance measures need access to the variables the builder created (the
categorical annotation variables ``A_v``, the refined numerical constants
``C_{A,⋄}`` and the top-k membership variables ``l_{t,k}``) in order to express
their objective.  :class:`MILPBuildContext` is the narrow interface through
which they get it, keeping the builder and the distances decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.core.constraints import ConstraintSet
from repro.milp.constraint import LinearConstraint
from repro.milp.expression import Variable
from repro.milp.model import Model
from repro.provenance.lineage import AnnotatedDatabase
from repro.relational.executor import RankedResult
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery


@dataclass
class MILPBuildContext:
    """Everything a distance measure needs to linearise itself.

    Attributes
    ----------
    model:
        The MILP model under construction; distances may add auxiliary
        variables and constraints to it.
    query:
        The original query ``Q``.
    annotated:
        The annotated ``~Q(D)`` (already pruned if the relevancy optimization
        is active).
    constraints:
        The cardinality constraint set ``C``.
    k_star:
        The largest ``k`` with a constraint.
    original_result:
        The ranked output of the original query (used by outcome-based
        distances).
    original_topk_positions:
        For each item of the original top-``k*``, the positions (within
        ``annotated``) of the tuples representing it.  Items may map to more
        than one position when the query is DISTINCT and the item has
        duplicates in ``~Q(D)``.
    categorical_variables:
        ``(attribute, value) -> A_v``.
    numerical_constant_variables:
        ``(attribute, operator) -> C_{A,⋄}``.
    topk_variables:
        ``(position, k) -> l_{t,k}``; only the positions/k the builder decided
        are needed have variables.
    linking_constraints:
        The distance measures' auxiliary *linking* rows, collected by
        :meth:`add_linking_constraint`; the builder adds them to the model
        after the objective and the seed rows.
    """

    model: Model
    query: SPJQuery
    annotated: AnnotatedDatabase
    constraints: ConstraintSet
    k_star: int
    original_result: RankedResult
    original_topk_positions: list[list[int]] = field(default_factory=list)
    categorical_variables: Mapping[tuple[str, object], Variable] = field(default_factory=dict)
    numerical_constant_variables: Mapping[tuple[str, Operator], Variable] = field(
        default_factory=dict
    )
    topk_variables: Mapping[tuple[int, int], Variable] = field(default_factory=dict)
    linking_constraints: list[LinearConstraint] = field(default_factory=list)

    def add_linking_constraint(self, constraint: LinearConstraint) -> None:
        """Queue a row that links auxiliary variables to membership variables.

        The Kendall case rows reference only original top-k positions, whose
        rank and membership rows are always in the model from the start, so
        the builder adds the queued rows after them rather than pooling them
        for the cut loop.
        """
        self.linking_constraints.append(constraint)

    def topk_variable(self, position: int, k: int) -> Variable:
        """The ``l_{t,k}`` variable for a tuple position, failing loudly if absent."""
        return self.topk_variables[(position, k)]

    def has_topk_variable(self, position: int, k: int) -> bool:
        return (position, k) in self.topk_variables
