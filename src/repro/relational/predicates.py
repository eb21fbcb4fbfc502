"""Selection predicates over numerical and categorical attributes.

The paper's query class (Section 2) combines two predicate forms with AND:

* numerical predicates ``A ⋄ C`` with ``⋄ ∈ {<, <=, =, >, >=}``, and
* categorical predicates ``A = c1 OR A = c2 OR ...`` i.e. ``A IN C``.

A *refinement* changes the constant of a numerical predicate or the value set
of a categorical predicate; the predicate classes therefore expose
``with_constant`` / ``with_values`` so refined queries can be built without
mutating the original.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Mapping, Sequence

from repro.exceptions import QueryError


class Operator(enum.Enum):
    """Comparison operators allowed in numerical predicates."""

    LESS = "<"
    LESS_EQUAL = "<="
    EQUAL = "="
    GREATER = ">"
    GREATER_EQUAL = ">="

    @property
    def is_strict(self) -> bool:
        """True for strict inequalities (the paper's ``St(⋄) = 1``)."""
        return self in (Operator.LESS, Operator.GREATER)

    @property
    def is_lower_bound(self) -> bool:
        """True when the predicate keeps values *at least* the constant."""
        return self in (Operator.GREATER, Operator.GREATER_EQUAL)

    @property
    def is_upper_bound(self) -> bool:
        """True when the predicate keeps values *at most* the constant."""
        return self in (Operator.LESS, Operator.LESS_EQUAL)

    def compare(self, value: float, constant: float) -> bool:
        """Evaluate ``value ⋄ constant``."""
        if self is Operator.LESS:
            return value < constant
        if self is Operator.LESS_EQUAL:
            return value <= constant
        if self is Operator.EQUAL:
            return value == constant
        if self is Operator.GREATER:
            return value > constant
        return value >= constant

    @classmethod
    def from_symbol(cls, symbol: str) -> "Operator":
        for member in cls:
            if member.value == symbol:
                return member
        raise QueryError(f"unknown comparison operator {symbol!r}")


class NumericalPredicate:
    """A predicate of the form ``attribute ⋄ constant``."""

    __slots__ = ("attribute", "operator", "constant")

    def __init__(self, attribute: str, operator: Operator | str, constant: float) -> None:
        if isinstance(operator, str):
            operator = Operator.from_symbol(operator)
        self.attribute = attribute
        self.operator = operator
        self.constant = float(constant)

    def matches(self, row: Mapping[str, object]) -> bool:
        """Whether ``row`` satisfies the predicate (missing/None fails)."""
        value = row.get(self.attribute)
        if value is None:
            return False
        return self.operator.compare(float(value), self.constant)

    def matches_value(self, value: float) -> bool:
        """Whether a bare attribute value satisfies the predicate."""
        return self.operator.compare(float(value), self.constant)

    def with_constant(self, constant: float) -> "NumericalPredicate":
        """A copy of this predicate with a refined constant."""
        return NumericalPredicate(self.attribute, self.operator, constant)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NumericalPredicate)
            and self.attribute == other.attribute
            and self.operator == other.operator
            and self.constant == other.constant
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.operator, self.constant))

    def __repr__(self) -> str:
        return f"NumericalPredicate({self.attribute} {self.operator.value} {self.constant:g})"


class CategoricalPredicate:
    """A predicate of the form ``attribute IN {v1, ..., vm}``."""

    __slots__ = ("attribute", "values")

    def __init__(self, attribute: str, values: Iterable[object]) -> None:
        values = frozenset(values)
        if not values:
            raise QueryError(
                f"categorical predicate on {attribute!r} needs at least one value"
            )
        self.attribute = attribute
        self.values = values

    def matches(self, row: Mapping[str, object]) -> bool:
        return row.get(self.attribute) in self.values

    def matches_value(self, value: object) -> bool:
        return value in self.values

    def with_values(self, values: Iterable[object]) -> "CategoricalPredicate":
        """A copy of this predicate with a refined value set."""
        return CategoricalPredicate(self.attribute, values)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CategoricalPredicate)
            and self.attribute == other.attribute
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.attribute, self.values))

    def __repr__(self) -> str:
        rendered = ", ".join(repr(v) for v in sorted(self.values, key=str))
        return f"CategoricalPredicate({self.attribute} IN {{{rendered}}})"


Predicate = NumericalPredicate | CategoricalPredicate


class Conjunction:
    """A conjunction (AND) of numerical and categorical predicates."""

    __slots__ = ("_predicates", "_numerical", "_categorical")

    def __init__(self, predicates: Sequence[Predicate] = ()) -> None:
        self._predicates = tuple(predicates)
        self._numerical: list[NumericalPredicate] | None = None
        self._categorical: list[CategoricalPredicate] | None = None

    @property
    def predicates(self) -> tuple[Predicate, ...]:
        return self._predicates

    @property
    def numerical(self) -> list[NumericalPredicate]:
        """The paper's ``Num(Q)`` (cached; treat the list as read-only)."""
        if self._numerical is None:
            self._numerical = [
                p for p in self._predicates if isinstance(p, NumericalPredicate)
            ]
        return self._numerical

    @property
    def categorical(self) -> list[CategoricalPredicate]:
        """The paper's ``Cat(Q)`` (cached; treat the list as read-only)."""
        if self._categorical is None:
            self._categorical = [
                p for p in self._predicates if isinstance(p, CategoricalPredicate)
            ]
        return self._categorical

    @property
    def attributes(self) -> list[str]:
        """The paper's ``Preds(Q)``: attributes appearing in predicates."""
        return [p.attribute for p in self._predicates]

    @property
    def constants(self) -> tuple:
        """The paper's constants ``C``, in predicate order: a numerical
        predicate's constant, a categorical predicate's value set."""
        return tuple(
            p.constant if isinstance(p, NumericalPredicate) else p.values
            for p in self._predicates
        )

    def bind(self, constants: Sequence) -> "Conjunction":
        """The same predicates with ``constants`` (as :attr:`constants` lists them)."""
        return Conjunction(
            [
                p.with_constant(c) if isinstance(p, NumericalPredicate) else p.with_values(c)
                for p, c in zip(self._predicates, constants, strict=True)
            ]
        )

    def __len__(self) -> int:
        return len(self._predicates)

    def __iter__(self) -> Iterator[Predicate]:
        return iter(self._predicates)

    def matches(self, row: Mapping[str, object]) -> bool:
        """Whether ``row`` satisfies every predicate in the conjunction."""
        return all(predicate.matches(row) for predicate in self._predicates)

    def replace(self, old: Predicate, new: Predicate) -> "Conjunction":
        """A copy with ``old`` replaced by ``new`` (used to apply refinements)."""
        if old not in self._predicates:
            raise QueryError(f"predicate {old!r} is not part of this conjunction")
        replaced = [new if p == old else p for p in self._predicates]
        return Conjunction(replaced)

    def without(self, predicate: Predicate) -> "Conjunction":
        """A copy with ``predicate`` removed."""
        return Conjunction([p for p in self._predicates if p != predicate])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Conjunction) and self._predicates == other._predicates

    def __hash__(self) -> int:
        return hash(self._predicates)

    def __repr__(self) -> str:
        if not self._predicates:
            return "Conjunction(TRUE)"
        return "Conjunction(" + " AND ".join(repr(p) for p in self._predicates) + ")"
