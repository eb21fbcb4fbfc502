"""Lineage annotations over the unfiltered query output ``~Q(D)``."""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import QueryError
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor, RankedResult
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery


class _RowValues(Mapping):
    """Read-only attribute → value view over one row tuple.

    Every :class:`AnnotatedTuple` of one annotation shares a single
    name → position index and keeps only its row tuple, instead of
    materialising one dict per tuple — at paper scale (34k+ rows) that is the
    difference between one index and tens of thousands of dicts.  The MILP
    builder and the row-based baselines read it exactly like the dict it
    replaces (``[]``, ``.get``, ``.values()`` in schema order).
    """

    __slots__ = ("_index", "_row")

    def __init__(self, index: Mapping[str, int], row: tuple) -> None:
        self._index = index
        self._row = row

    def __getitem__(self, name: str) -> object:
        return self._row[self._index[name]]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _RowValues):
            if self._index is other._index:
                return self._row == other._row
            return dict(self) == dict(other)
        if isinstance(other, Mapping):
            return dict(self) == dict(other)
        return NotImplemented

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclass(frozen=True)
class CategoricalAtom:
    """Annotation ``A_v``: "the categorical predicate on ``attribute`` includes ``value``"."""

    attribute: str
    value: object

    def label(self) -> str:
        return f"{self.attribute}[{self.value}]"


@dataclass(frozen=True)
class NumericalAtom:
    """Annotation ``A_{v,⋄}``: "``value ⋄ C`` holds for the refined constant ``C``"."""

    attribute: str
    operator: Operator
    value: float

    def label(self) -> str:
        return f"{self.attribute}[{self.value:g}{self.operator.value}]"


LineageAtom = CategoricalAtom | NumericalAtom


class _AtomInterner:
    """Process-wide intern tables for lineage atoms.

    Repeated annotations of the same workload — benchmark sweeps, the MILP
    and the baselines sharing a query — share one atom object per distinct
    ``(attribute, value)`` instead of re-allocating per annotation.  A lock
    makes the tables thread-safe, and the ``os.register_at_fork`` hooks keep
    the interner safe to reuse in a child of a ``fork``: the lock is held
    across the fork so a child can never inherit it mid-update, and the child
    re-creates its own released lock.  The tables hold only immutable atoms,
    so the inherited contents stay valid.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._categorical: dict[tuple, CategoricalAtom] = {}
        self._numerical: dict[tuple, NumericalAtom] = {}
        if hasattr(os, "register_at_fork"):  # pragma: no branch
            os.register_at_fork(
                before=self._before_fork,
                after_in_parent=self._after_fork_parent,
                after_in_child=self._after_fork_child,
            )

    def _before_fork(self) -> None:
        self._lock.acquire()

    def _after_fork_parent(self) -> None:
        self._lock.release()

    def _after_fork_child(self) -> None:
        self._lock = threading.Lock()

    def categorical(self, attribute: str, value: object) -> CategoricalAtom:
        key = (attribute, value)
        atom = self._categorical.get(key)
        if atom is None:
            with self._lock:
                atom = self._categorical.setdefault(
                    key, CategoricalAtom(attribute, value)
                )
        return atom

    def numerical(
        self, attribute: str, operator: Operator, value: float
    ) -> NumericalAtom:
        key = (attribute, operator, value)
        atom = self._numerical.get(key)
        if atom is None:
            with self._lock:
                atom = self._numerical.setdefault(
                    key, NumericalAtom(attribute, operator, value)
                )
        return atom

    def clear(self) -> None:
        with self._lock:
            self._categorical.clear()
            self._numerical.clear()


#: The shared interner used by every annotation pass in this process.
ATOM_INTERNER = _AtomInterner()


@dataclass(frozen=True)
class AnnotatedTuple:
    """A tuple of ``~Q(D)`` together with its lineage annotation.

    Attributes
    ----------
    position:
        0-based rank of the tuple in ``~Q(D)`` (the ranking that any
        refinement preserves).
    values:
        The full-width row as an attribute → value mapping.
    lineage:
        The set of annotation atoms whose conjunction selects this tuple
        (the paper's ``Lineage(t)``).
    distinct_key:
        Values of the DISTINCT attributes, or ``None`` for non-DISTINCT queries.
    score:
        Value of the ranking attribute.
    """

    position: int
    values: Mapping[str, object]
    lineage: frozenset[LineageAtom]
    distinct_key: tuple[object, ...] | None
    score: float

    def __getitem__(self, attribute: str) -> object:
        return self.values[attribute]


class AnnotatedDatabase:
    """The annotated output of ``~Q(D)`` plus the derived index structures.

    This object is what both the MILP construction (Section 3) and the
    provenance-accelerated baselines consume: it contains everything needed to
    reason about *every possible refinement* of the input query without going
    back to the DBMS.
    """

    def __init__(
        self,
        query: SPJQuery,
        tuples: list[AnnotatedTuple],
        categorical_domains: dict[str, list[object]],
        numerical_domains: dict[str, list[float]],
    ) -> None:
        self.query = query
        self.tuples = tuples
        self.categorical_domains = categorical_domains
        self.numerical_domains = numerical_domains
        self._duplicates_before = self._compute_duplicates()
        self._lineage_classes = self._compute_lineage_classes()

    # -- construction helpers --------------------------------------------------

    def _compute_duplicates(self) -> dict[int, list[int]]:
        """For each tuple position, the better-ranked positions sharing its DISTINCT key."""
        earlier: dict[tuple[object, ...], list[int]] = {}
        duplicates: dict[int, list[int]] = {}
        for annotated in self.tuples:
            if annotated.distinct_key is None:
                duplicates[annotated.position] = []
                continue
            previous = earlier.setdefault(annotated.distinct_key, [])
            duplicates[annotated.position] = list(previous)
            previous.append(annotated.position)
        return duplicates

    def _compute_lineage_classes(self) -> dict[frozenset[LineageAtom], list[int]]:
        """Group tuple positions by identical lineage (the classes ``[Lineage(t)]``)."""
        classes: dict[frozenset[LineageAtom], list[int]] = {}
        for annotated in self.tuples:
            classes.setdefault(annotated.lineage, []).append(annotated.position)
        return classes

    # -- accessors ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def duplicates_before(self, position: int) -> list[int]:
        """The paper's ``S(t)`` for the tuple at ``position``."""
        return self._duplicates_before[position]

    @property
    def lineage_classes(self) -> dict[frozenset[LineageAtom], list[int]]:
        """Mapping from lineage to the positions sharing it (each in rank order)."""
        return self._lineage_classes

    @property
    def num_lineage_classes(self) -> int:
        return len(self._lineage_classes)

    def tuples_in_group(self, member) -> list[AnnotatedTuple]:
        """Tuples whose values satisfy a group-membership callable."""
        return [t for t in self.tuples if member(t.values)]

    def numeric_domain(self, attribute: str) -> list[float]:
        """Sorted distinct values of a numerical predicate attribute."""
        return self.numerical_domains[attribute]

    def big_m(self, attribute: str) -> float:
        """A constant strictly larger than ``max |v|`` over the attribute domain."""
        domain = self.numerical_domains[attribute]
        return max(abs(value) for value in domain) + 1.0

    def smallest_gap(self, attribute: str) -> float:
        """The paper's ``delta``: smaller than the smallest pairwise domain gap."""
        domain = self.numerical_domains[attribute]
        if len(domain) < 2:
            return 1e-3
        gaps = [b - a for a, b in zip(domain, domain[1:]) if b > a]
        smallest = min(gaps) if gaps else 1.0
        return smallest / 2.0

    def relevant_prefix(self, k_star: int) -> list[AnnotatedTuple]:
        """Relevancy-based pruning (Section 4): top-``k*`` of each lineage class.

        A tuple past position ``k*`` within its lineage equivalence class can
        never reach the global top-``k*`` of any refinement, because every
        refinement that selects it also selects all better-ranked tuples of the
        same class.  The returned list preserves global rank order.
        """
        keep: set[int] = set()
        for positions in self._lineage_classes.values():
            keep.update(positions[:k_star])
        return [t for t in self.tuples if t.position in keep]


def annotate(
    query: SPJQuery, database: Database, executor: QueryExecutor | None = None
) -> AnnotatedDatabase:
    """Annotate the unfiltered output ``~Q(D)`` of ``query`` over ``database``.

    Passing the caller's ``executor`` reuses its cached join/sort of ``~Q(D)``
    and, on the sqlite backend, pushes the distinct lineage-atom scan into SQL
    (one ``GROUP BY`` over the predicate attribute columns).
    """
    if executor is None:
        executor = QueryExecutor(database)
    unfiltered: RankedResult = executor.evaluate_unfiltered(query)
    return annotate_result(query, unfiltered, scan=executor.annotation_scan(query))


def _lineage_table(
    query: SPJQuery, scan: Iterable[tuple]
) -> dict[tuple, frozenset[LineageAtom]]:
    """Interned lineage set per distinct predicate-value combination.

    ``scan`` rows carry the categorical predicate values first, then the
    numerical ones (the :meth:`annotation_scan` column order).  Combinations
    with ``None`` in a numerical column belong to dead tuples and get no
    entry.  Keys normalise numerical values to ``float`` so that rows gathered
    from the original relations (which may hold ``int``) hit the same entry
    as the ``REAL`` values sqlite returns.
    """
    categorical = list(query.categorical_predicates)
    numerical = list(query.numerical_predicates)
    table: dict[tuple, frozenset[LineageAtom]] = {}
    for combo in scan:
        atoms: list[LineageAtom] = []
        key: list = []
        dead = False
        for offset, predicate in enumerate(categorical):
            value = combo[offset]
            atoms.append(ATOM_INTERNER.categorical(predicate.attribute, value))
            key.append(value)
        for offset, predicate in enumerate(numerical, start=len(categorical)):
            raw = combo[offset]
            if raw is None:
                dead = True
                break
            value = float(raw)
            atoms.append(
                ATOM_INTERNER.numerical(predicate.attribute, predicate.operator, value)
            )
            key.append(value)
        if dead:
            continue
        table[tuple(key)] = frozenset(atoms)
    return table


def annotate_result(
    query: SPJQuery, unfiltered: RankedResult, scan: Iterable[tuple] | None = None
) -> AnnotatedDatabase:
    """Annotate an already evaluated ``~Q(D)`` result (used by the benchmarks).

    Annotation atoms are built column-wise: each predicate contributes one
    atom per *distinct* attribute value, interned process-wide
    (:data:`ATOM_INTERNER`) and shared across all tuples carrying that value,
    and lineage sets are likewise interned per distinct atom combination —
    tuples in the same lineage equivalence class share one ``frozenset``
    object, which also speeds up the class grouping downstream.

    ``scan`` (the sqlite backend's ``GROUP BY`` over the lineage-atom
    columns) pre-builds the lineage table so each row resolves its lineage
    with a single dict lookup; rows whose values don't hit the table (e.g.
    after a type drift through SQL) fall back to the column-cached scan.

    Tuples with ``None`` in a numerical predicate attribute are *dead*: no
    refinement can ever select them (``None`` fails every comparison), so they
    are omitted from the annotation instead of crashing ``float(None)``.
    Positions keep their rank in ``~Q(D)`` (they may have gaps).  A ``None``
    ranking value scores as 0, mirroring :meth:`RankedResult.scores`.
    """
    relation = unfiltered.relation
    schema = relation.schema

    for predicate in query.where:
        if predicate.attribute not in schema:
            raise QueryError(
                f"predicate attribute {predicate.attribute!r} is missing from the "
                f"joined relation; available: {schema.names}"
            )

    categorical_domains: dict[str, list[object]] = {}
    for predicate in query.categorical_predicates:
        categorical_domains[predicate.attribute] = relation.domain(predicate.attribute)

    store = relation.column_store()
    numerical_domains: dict[str, list[float]] = {}
    for position, predicate in enumerate(query.numerical_predicates):
        values = None
        if scan is not None:
            # One scan column per *predicate* (attributes may repeat across
            # predicates, e.g. GPA <= and GPA >=), categorical columns first.
            offset = len(query.categorical_predicates) + position
            values = sorted(
                {float(combo[offset]) for combo in scan if combo[offset] is not None}
            )
        if values is None:
            view = store.numeric(predicate.attribute)
            if view is not None:
                values = np.unique(view[~np.isnan(view)]).tolist()
        if values is None:
            values = sorted(
                float(v)
                for v in set(relation.column(predicate.attribute))
                if v is not None
            )
        numerical_domains[predicate.attribute] = values

    select = list(query.select)
    distinct_indices = (
        [schema.index_of(name) for name in select] if query.distinct and select else None
    )
    order_index = schema.index_of(query.order_by.attribute)
    names = schema.names
    # One shared name -> position index; every tuple's values-view wraps its
    # row tuple instead of materialising a dict (see _RowValues).
    name_index = {name: position for position, name in enumerate(names)}

    categorical_columns = [
        (predicate.attribute, schema.index_of(predicate.attribute), {})
        for predicate in query.categorical_predicates
    ]
    numerical_columns = [
        (predicate.attribute, predicate.operator, schema.index_of(predicate.attribute), {})
        for predicate in query.numerical_predicates
    ]
    lineage_cache: dict[tuple[LineageAtom, ...], frozenset[LineageAtom]] = {}
    lineage_table = _lineage_table(query, scan) if scan is not None else None
    predicate_indices = [index for _, index, _ in categorical_columns] + [
        index for _, _, index, _ in numerical_columns
    ]
    numerical_start = len(categorical_columns)

    annotated: list[AnnotatedTuple] = []
    for position, row in enumerate(relation.rows):
        lineage = None
        if lineage_table is not None:
            combo = tuple(
                row[index]
                if offset < numerical_start
                else (None if row[index] is None else float(row[index]))
                for offset, index in enumerate(predicate_indices)
            )
            if None in combo[numerical_start:]:
                continue  # dead tuple
            lineage = lineage_table.get(combo)
        if lineage is None:
            atoms: list[LineageAtom] = []
            dead = False
            for attribute, index, atom_cache in categorical_columns:
                value = row[index]
                atom = atom_cache.get(value)
                if atom is None:
                    atom = atom_cache[value] = ATOM_INTERNER.categorical(
                        attribute, value
                    )
                atoms.append(atom)
            for attribute, operator, index, atom_cache in numerical_columns:
                raw = row[index]
                if raw is None:
                    dead = True
                    break
                value = float(raw)
                atom = atom_cache.get(value)
                if atom is None:
                    atom = atom_cache[value] = ATOM_INTERNER.numerical(
                        attribute, operator, value
                    )
                atoms.append(atom)
            if dead:
                continue
            atom_key = tuple(atoms)
            lineage = lineage_cache.get(atom_key)
            if lineage is None:
                lineage = lineage_cache[atom_key] = frozenset(atoms)
        distinct_key = (
            tuple(row[i] for i in distinct_indices) if distinct_indices is not None else None
        )
        annotated.append(
            AnnotatedTuple(
                position=position,
                values=_RowValues(name_index, row),
                lineage=lineage,
                distinct_key=distinct_key,
                score=0.0 if row[order_index] is None else float(row[order_index]),
            )
        )

    return AnnotatedDatabase(query, annotated, categorical_domains, numerical_domains)
