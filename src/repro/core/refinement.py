"""Refinements of selection predicates and the space of possible refinements.

Following Section 2.1 (and the refinement notion of Mishra & Koudas), a
refinement of a query changes the constant of numerical predicates and/or the
value set of categorical predicates, leaving everything else (joins,
projection, ranking) untouched.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import RefinementError
from repro.provenance.lineage import AnnotatedDatabase
from repro.relational.predicates import (
    CategoricalPredicate,
    Conjunction,
    NumericalPredicate,
    Operator,
)
from repro.relational.query import SPJQuery

NumericalKey = tuple[str, Operator]


def candidate_digits(sizes: Sequence[int], start: int, count: int) -> list[np.ndarray]:
    """Per-dimension value positions of ``count`` consecutive candidates.

    Candidates of a cross product of dimensions with the given ``sizes`` are
    numbered as :meth:`RefinementSpace.enumerate` yields them (the last
    dimension varies fastest); candidate ``start + i`` takes value
    ``digits[j][i]`` of dimension ``j``.
    """
    index = np.arange(start, start + count, dtype=np.int64)
    digits = []
    for size in reversed(sizes):
        index, digit = np.divmod(index, size)
        digits.append(digit)
    return digits[::-1]


@dataclass(frozen=True)
class Refinement:
    """New predicate parameters keyed by the predicate they refine.

    ``numerical`` maps ``(attribute, operator)`` to the refined constant;
    ``categorical`` maps an attribute name to the refined value set.  Missing
    keys keep the original predicate unchanged, so ``Refinement()`` is the
    identity refinement.
    """

    numerical: Mapping[NumericalKey, float] = field(default_factory=dict)
    categorical: Mapping[str, frozenset] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerical", dict(self.numerical))
        object.__setattr__(
            self,
            "categorical",
            {attribute: frozenset(values) for attribute, values in self.categorical.items()},
        )
        for attribute, values in self.categorical.items():
            if not values:
                raise RefinementError(
                    f"categorical refinement on {attribute!r} must keep at least one value"
                )

    # -- application ---------------------------------------------------------------

    def apply(self, query: SPJQuery) -> SPJQuery:
        """The refined query ``Q'`` obtained by applying this refinement to ``query``."""
        predicates = []
        for predicate in query.where:
            if isinstance(predicate, NumericalPredicate):
                key = (predicate.attribute, predicate.operator)
                if key in self.numerical:
                    predicate = predicate.with_constant(self.numerical[key])
            elif isinstance(predicate, CategoricalPredicate):
                if predicate.attribute in self.categorical:
                    predicate = predicate.with_values(self.categorical[predicate.attribute])
            predicates.append(predicate)
        return SPJQuery(
            tables=query.tables,
            where=Conjunction(predicates),
            order_by=query.order_by,
            select=query.select,
            distinct=query.distinct,
            name=f"{query.name}'",
        )

    def is_identity(self, query: SPJQuery) -> bool:
        """Whether applying this refinement to ``query`` changes nothing."""
        for predicate in query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            if key in self.numerical and self.numerical[key] != predicate.constant:
                return False
        for predicate in query.categorical_predicates:
            if (
                predicate.attribute in self.categorical
                and self.categorical[predicate.attribute] != predicate.values
            ):
                return False
        return True

    def describe(self, query: SPJQuery) -> str:
        """Readable change summary relative to ``query`` (used in examples/reports)."""
        changes = []
        for predicate in query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            if key in self.numerical and self.numerical[key] != predicate.constant:
                changes.append(
                    f"{predicate.attribute} {predicate.operator.value} "
                    f"{predicate.constant:g} -> {self.numerical[key]:g}"
                )
        for predicate in query.categorical_predicates:
            refined = self.categorical.get(predicate.attribute)
            if refined is not None and refined != predicate.values:
                added = sorted(refined - predicate.values, key=str)
                removed = sorted(predicate.values - refined, key=str)
                parts = []
                if added:
                    parts.append("+{" + ", ".join(map(str, added)) + "}")
                if removed:
                    parts.append("-{" + ", ".join(map(str, removed)) + "}")
                changes.append(f"{predicate.attribute}: " + " ".join(parts))
        return "; ".join(changes) if changes else "(no change)"

    @classmethod
    def identity(cls, query: SPJQuery) -> "Refinement":
        """The refinement that reproduces ``query`` exactly."""
        numerical = {
            (predicate.attribute, predicate.operator): predicate.constant
            for predicate in query.numerical_predicates
        }
        categorical = {
            predicate.attribute: predicate.values
            for predicate in query.categorical_predicates
        }
        return cls(numerical=numerical, categorical=categorical)


class RefinementSpace:
    """The space of possible refinements of a query over a database.

    Candidate constants for a numerical predicate are the distinct values of
    its attribute in ``~Q(D)`` (refining to any other constant selects the
    same set of tuples as one of these).  Candidate value sets for a
    categorical predicate are all non-empty subsets of the attribute's active
    domain.  The exhaustive baselines enumerate this space lazily; the MILP
    never materialises it.
    """

    def __init__(self, query: SPJQuery, annotated: AnnotatedDatabase) -> None:
        self.query = query
        self.annotated = annotated
        self._numerical_candidates: dict[NumericalKey, list[float]] = {}
        for predicate in query.numerical_predicates:
            domain = annotated.numeric_domain(predicate.attribute)
            delta = annotated.smallest_gap(predicate.attribute)
            # A refinement is characterised by the set of values it selects,
            # but its *distance* depends on the constant chosen to represent
            # that set.  The MILP picks the representative closest to the
            # original constant (a domain value, or a domain value shifted by
            # the +/- delta margin of expressions (1)/(2)); enumerating the
            # same representatives keeps the exhaustive baselines exact.
            candidates = set(domain) | {predicate.constant}
            candidates.update(value + delta for value in domain)
            candidates.update(value - delta for value in domain)
            self._numerical_candidates[(predicate.attribute, predicate.operator)] = sorted(
                candidates
            )
        self._categorical_domains: dict[str, list[object]] = {
            predicate.attribute: annotated.categorical_domains[predicate.attribute]
            for predicate in query.categorical_predicates
        }

    # -- dimensions -----------------------------------------------------------------

    def dimensions(self) -> list[NumericalKey | str]:
        """The enumeration dimensions, outermost first.

        Numerical ``(attribute, operator)`` keys in query order, then
        categorical attributes in query order; the last dimension varies
        fastest in :meth:`enumerate`.
        """
        return [*self._numerical_candidates, *self._categorical_domains]

    def dimension_size(self, position: int) -> int:
        """Exact candidate count of one dimension (may be astronomically large)."""
        keys = self.dimensions()
        if position < len(self._numerical_candidates):
            return len(self._numerical_candidates[keys[position]])
        return self._subset_count(keys[position])

    def dimension_values(self, position: int) -> Iterator:
        """A fresh iterator over one dimension's candidate values, in order.

        Numerical constants ascending; categorical value subsets nearest to
        the original set first (generated lazily, never materialised).
        """
        keys = self.dimensions()
        if position < len(self._numerical_candidates):
            return iter(self._numerical_candidates[keys[position]])
        return self._ordered_subsets(keys[position])

    def refinement(self, values: Sequence) -> Refinement:
        """The candidate choosing ``values[i]`` on dimension ``i``."""
        split = len(self._numerical_candidates)
        return Refinement(
            numerical=dict(zip(self._numerical_candidates, values[:split])),
            categorical=dict(zip(self._categorical_domains, values[split:])),
        )

    def _subset_count(self, attribute: str) -> int:
        """Number of subsets :meth:`_ordered_subsets` yields for ``attribute``.

        Toggling domain values against the original set empties it exactly
        once when every original value is in the domain; an original value
        no tuple carries stays in every subset, so none is empty.
        """
        domain = self._categorical_domains[attribute]
        empty = 1 if self._original_values(attribute) <= set(domain) else 0
        return 2 ** len(domain) - empty

    def _original_values(self, attribute: str) -> frozenset:
        return next(
            predicate.values
            for predicate in self.query.categorical_predicates
            if predicate.attribute == attribute
        )

    # -- size accounting -----------------------------------------------------------

    def size(self) -> int:
        """Number of candidate refinements (may be astronomically large)."""
        return math.prod(
            self.dimension_size(position) for position in range(self.num_dimensions())
        )

    def numerical_candidates(self, key: NumericalKey) -> list[float]:
        return list(self._numerical_candidates[key])

    def categorical_domain(self, attribute: str) -> list[object]:
        return list(self._categorical_domains[attribute])

    def num_dimensions(self) -> int:
        """Number of enumeration dimensions (numerical keys + categorical attributes)."""
        return len(self._numerical_candidates) + len(self._categorical_domains)

    # -- enumeration -----------------------------------------------------------------

    def __iter__(self) -> Iterator[Refinement]:
        return self.enumerate()

    def enumerate(self) -> Iterator[Refinement]:
        """Lazily enumerate every candidate refinement.

        The dimensions of :meth:`dimensions` nest outermost first, so the last
        one varies fastest.  Categorical subsets are enumerated in order of
        increasing symmetric difference from the original value set so that,
        under a timeout, the exhaustive baselines explore "small" refinements
        first (as a human would).  Nothing is materialised up front: for a
        categorical domain of 114 values (Astronauts) the space has ~2^114
        members and the baselines rely on their timeout to stop early.
        """
        count = self.num_dimensions()

        def expand(position: int, chosen: tuple):
            if position == count:
                yield self.refinement(chosen)
                return
            for value in self.dimension_values(position):
                yield from expand(position + 1, chosen + (value,))

        return expand(0, ())

    def _ordered_subsets(self, attribute: str) -> Iterator[frozenset]:
        """Yield non-empty subsets of the attribute domain, nearest-to-original first.

        Subsets are generated by toggling ``d`` values of the domain relative
        to the original value set, for ``d = 0, 1, 2, ...`` — so the number of
        changed values grows monotonically and the generator never needs to
        materialise the full power set.
        """
        domain = self._categorical_domains[attribute]
        original = self._original_values(attribute)
        for toggles in range(len(domain) + 1):
            for toggled in itertools.combinations(domain, toggles):
                candidate = frozenset(original.symmetric_difference(toggled))
                if candidate:
                    yield candidate
