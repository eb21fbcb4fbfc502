"""Groups, cardinality constraints over top-k prefixes, and deviation.

A *group* (Section 2.1) is defined by a conjunction of equality conditions on
categorical attributes, e.g. ``Gender = 'F'`` or ``Gender = 'F' AND Income =
'Low'``.  A *cardinality constraint* ``l_{G,k} = n`` (resp. ``u_{G,k} = n``)
requires at least (resp. at most) ``n`` tuples of group ``G`` among the top-k
of the ranking.  The *deviation* of a ranking from a constraint set
(Definition 2.6) is the mean relative shortfall across constraints, where
over-satisfaction is not penalised.  :class:`ResolvedConstraints` resolves
the groups' memberships over one ranked relation, so the deviation of a
result over it reads them at the result's positions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

import numpy as np

from repro.exceptions import ConstraintError
from repro.relational.executor import RankedResult
from repro.relational.relation import Relation


class Group:
    """A data subgroup defined by equality conditions on categorical attributes."""

    __slots__ = ("_conditions", "condition_map")

    def __init__(self, conditions: Mapping[str, object]) -> None:
        if not conditions:
            raise ConstraintError("a group needs at least one attribute condition")
        self._conditions = tuple(sorted(conditions.items(), key=lambda item: item[0]))
        #: Read-only attribute -> value mapping, cached so per-candidate
        #: constraint counting never rebuilds a dict.
        self.condition_map: Mapping[str, object] = MappingProxyType(
            dict(self._conditions)
        )

    @property
    def conditions(self) -> dict[str, object]:
        return dict(self._conditions)

    @property
    def attributes(self) -> list[str]:
        return [attribute for attribute, _ in self._conditions]

    def matches(self, values: Mapping[str, object]) -> bool:
        """Whether a row (attribute → value mapping) belongs to this group."""
        return all(values.get(attribute) == value for attribute, value in self._conditions)

    def label(self) -> str:
        """Human-readable label, e.g. ``Gender=F``."""
        return ",".join(f"{attribute}={value}" for attribute, value in self._conditions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Group) and self._conditions == other._conditions

    def __hash__(self) -> int:
        return hash(self._conditions)

    def __repr__(self) -> str:
        return f"Group({self.label()})"


class BoundType(enum.Enum):
    """Whether a constraint is a lower bound (``l``) or an upper bound (``u``)."""

    LOWER = "lower"
    UPPER = "upper"

    @property
    def sign(self) -> int:
        """The paper's ``Sign(c)``: +1 for lower bounds, -1 for upper bounds."""
        return 1 if self is BoundType.LOWER else -1


@dataclass(frozen=True)
class CardinalityConstraint:
    """A constraint ``l_{G,k} = n`` or ``u_{G,k} = n``.

    Attributes
    ----------
    group:
        The protected group the constraint talks about.
    k:
        The ranking prefix length the constraint applies to.
    bound:
        The required cardinality ``n``.
    bound_type:
        Lower (at least ``n``) or upper (at most ``n``).
    """

    group: Group
    k: int
    bound: int
    bound_type: BoundType

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ConstraintError(f"constraint prefix k must be positive, got {self.k}")
        if self.bound < 0:
            raise ConstraintError(f"constraint bound must be non-negative, got {self.bound}")
        if self.bound > self.k:
            raise ConstraintError(
                f"constraint bound {self.bound} cannot exceed its prefix length {self.k}"
            )

    # -- semantics ---------------------------------------------------------------

    def count_in(self, result: RankedResult) -> int:
        """Number of top-k tuples of ``result`` belonging to the group."""
        return result.count_group_in_top_k(self.k, self.group.condition_map)

    def shortfall(self, count: int) -> int:
        """The paper's ``max(Sign(c) * (n - count), 0)``."""
        return max(self.bound_type.sign * (self.bound - count), 0)

    def deviation(self, result: RankedResult) -> float:
        """Relative violation of this single constraint on ``result``."""
        return self.shortfall(self.count_in(result)) / self.denominator()

    def is_satisfied(self, result: RankedResult) -> bool:
        return self.shortfall(self.count_in(result)) == 0

    def denominator(self) -> float:
        """The paper's relative-violation normaliser ``n``.

        An upper bound of 0 ("no tuples of G in the top-k") would otherwise
        divide by zero, so clamp at 1.  Public so count-based fast paths
        (e.g. the batched Naive+prov deviation) share the one clamp rule.
        """
        return float(max(self.bound, 1))

    def label(self) -> str:
        symbol = "l" if self.bound_type is BoundType.LOWER else "u"
        return f"{symbol}[{self.group.label()},k={self.k}]={self.bound}"

    def __repr__(self) -> str:
        return f"CardinalityConstraint({self.label()})"


def at_least(n: int, k: int, **conditions) -> CardinalityConstraint:
    """Shorthand for a lower-bound constraint, e.g. ``at_least(3, 6, Gender="F")``."""
    return CardinalityConstraint(Group(conditions), k=k, bound=n, bound_type=BoundType.LOWER)


def at_most(n: int, k: int, **conditions) -> CardinalityConstraint:
    """Shorthand for an upper-bound constraint, e.g. ``at_most(1, 3, Income="High")``."""
    return CardinalityConstraint(Group(conditions), k=k, bound=n, bound_type=BoundType.UPPER)


class ConstraintSet:
    """A set of cardinality constraints (the paper's ``C``)."""

    def __init__(self, constraints: Iterable[CardinalityConstraint]) -> None:
        constraints = list(constraints)
        if not constraints:
            raise ConstraintError("a constraint set must contain at least one constraint")
        self._constraints = tuple(constraints)

    @property
    def constraints(self) -> tuple[CardinalityConstraint, ...]:
        return self._constraints

    def __len__(self) -> int:
        return len(self._constraints)

    def __iter__(self) -> Iterator[CardinalityConstraint]:
        return iter(self._constraints)

    @property
    def k_star(self) -> int:
        """The largest prefix length with a constraint (the paper's ``k*``)."""
        return max(constraint.k for constraint in self._constraints)

    @property
    def k_values(self) -> list[int]:
        """Distinct prefix lengths, ascending."""
        return sorted({constraint.k for constraint in self._constraints})

    @property
    def groups(self) -> list[Group]:
        """Distinct groups mentioned by the constraints."""
        seen: list[Group] = []
        for constraint in self._constraints:
            if constraint.group not in seen:
                seen.append(constraint.group)
        return seen

    def bound_types_per_group(self) -> dict[Group, set[BoundType]]:
        """Which bound types each group appears with (drives the Section 4 relaxation)."""
        mapping: dict[Group, set[BoundType]] = {}
        for constraint in self._constraints:
            mapping.setdefault(constraint.group, set()).add(constraint.bound_type)
        return mapping

    # -- deviation (Definition 2.6) ----------------------------------------------

    def deviation(self, result: RankedResult) -> float:
        """Mean relative violation of the constraints on a ranked result.

        Each constraint counts its group among the result's first ``k`` rows;
        a sweep over many results of one relation resolves the memberships
        once instead (:class:`ResolvedConstraints`, the same float
        operations: added to 0.0 in order, which ``sum()`` does not promise
        for floats)."""
        total = 0.0
        for constraint in self._constraints:
            total += constraint.deviation(result)
        return total / len(self._constraints)

    def is_satisfied(self, result: RankedResult, epsilon: float = 0.0) -> bool:
        """Whether the ranking deviates from the constraint set by at most ``epsilon``."""
        return self.deviation(result) <= epsilon + 1e-9

    def counts(self, result: RankedResult) -> dict[str, int]:
        """Per-constraint group counts in the top-k (useful for reports and tests)."""
        return {
            constraint.label(): constraint.count_in(result)
            for constraint in self._constraints
        }

    def subset(self, count: int) -> "ConstraintSet":
        """The first ``count`` constraints (used by the Figure 6 sweep)."""
        if not 1 <= count <= len(self._constraints):
            raise ConstraintError(
                f"cannot take {count} constraints from a set of {len(self._constraints)}"
            )
        return ConstraintSet(self._constraints[:count])

    def __repr__(self) -> str:
        inner = ", ".join(constraint.label() for constraint in self._constraints)
        return f"ConstraintSet({inner})"


class ResolvedConstraints:
    """A constraint set resolved over one rank-ordered relation, as a
    prepared query resolves its selectors: per constraint its prefix ``k``,
    the group's membership over the relation's rows
    (:meth:`ColumnStore.members`), ``Sign(c)``, bound and denominator.  The
    deviation of a result whose positions index that relation then reads
    each membership at the result's first ``k`` positions.
    """

    __slots__ = ("ordered", "terms")

    def __init__(
        self, constraints: Iterable[CardinalityConstraint], ordered: Relation
    ) -> None:
        store = ordered.column_store()
        self.ordered = ordered
        self.terms = tuple(
            (
                constraint.k,
                store.members(constraint.group.condition_map),
                constraint.bound_type.sign,
                constraint.bound,
                constraint.denominator(),
            )
            for constraint in constraints
        )

    def deviation(self, result: RankedResult) -> float:
        """Definition 2.6 on a result over ``ordered``: each constraint's
        ``shortfall(count) / denominator()``, added to 0 in order, then
        divided by the number of constraints."""
        positions = result.positions
        total = 0.0
        for k, members, sign, bound, denominator in self.terms:
            top = members[:k] if positions is None else members[positions[:k]]
            total += max(sign * (bound - int(np.count_nonzero(top))), 0) / denominator
        return total / len(self.terms)
