"""NumPy-backed columnar storage for relations (the vectorized engine).

A :class:`ColumnStore` keeps a relation's data column-wise as ``object``-dtype
arrays so that rows round-trip exactly (the same Python objects come back out),
with two cached derived views per column:

* a ``float64`` view (``None`` mapped to NaN) for numerical comparisons and
  stable sorting, and
* a factorized integer-code view (value -> small int) for categorical
  membership tests, group counts and DISTINCT de-duplication.

Selection evaluates a :class:`~repro.relational.predicates.Conjunction` as one
boolean mask per predicate AND-ed together, instead of materialising a dict
per row.

Derived stores produced by :meth:`ColumnStore.take` / :meth:`ColumnStore.head`
/ :meth:`ColumnStore.project` are *deferred*: they record only their eager
root store and the row coordinates into it, and gather a column the first
time it is read.  Chained derivations compose their coordinates, so every
store points straight at its root.  The float and code views belong to the
root: each is computed there once, and a derived store slices the root's view
at its coordinates.  A code only identifies a value of the root's column, so
the views are compared for equality and never read as positions in the
derived store.  This is what makes the exhaustive baselines cheap — a
candidate refinement's result is a set of positions over the shared ordered
join, and its selection masks and group memberships
(:meth:`ColumnStore.members`) read views the join's root built once.

This is the memory backend's only engine; the parity tests hold it to the
sqlite pushdown backend.
"""

from __future__ import annotations

import functools
from typing import Mapping, Sequence

import numpy as np

from repro.relational.predicates import (
    CategoricalPredicate,
    Conjunction,
    NumericalPredicate,
    Operator,
)
from repro.relational.schema import Schema

#: The NumPy comparison behind each numerical predicate operator.
COMPARISONS = {
    Operator.LESS: np.less,
    Operator.LESS_EQUAL: np.less_equal,
    Operator.EQUAL: np.equal,
    Operator.GREATER: np.greater,
    Operator.GREATER_EQUAL: np.greater_equal,
}


def _compose_coordinates(base, indices, parent_length: int):
    """Row coordinates equivalent to applying ``base`` then ``indices``.

    ``base`` and ``indices`` are each either a slice or an int array; the
    composition keeps deferred stores pointing at their eager root instead of
    building chains of parents.
    """
    if isinstance(base, slice):
        base_range = range(*base.indices(parent_length))
        if isinstance(indices, slice):
            sub = base_range[indices]
            stop = sub.stop if sub.stop >= 0 else None
            return slice(sub.start, stop, sub.step)
        # Python-style negative positions count from the end of the *base*
        # window, exactly as fancy indexing into the gathered array would.
        indices = np.where(indices < 0, indices + len(base_range), indices)
        return (base_range.start + base_range.step * indices).astype(np.int64)
    return base[indices]


def _float_view(values: list):
    """``float64`` array of ``values`` (``None`` -> NaN); ``None`` if one is not a number."""
    try:
        return np.array(
            [np.nan if value is None else float(value) for value in values],
            dtype=float,
        )
    except (TypeError, ValueError):
        return None


def _factorize(values: list):
    """``(codes, mapping)`` of ``values`` in first-seen order; ``None`` if one is unhashable."""
    mapping: dict = {}
    codes = np.empty(len(values), dtype=np.int64)
    try:
        for position, value in enumerate(values):
            codes[position] = mapping.setdefault(value, len(mapping))
    except TypeError:
        return None
    return codes, mapping


class ColumnStore:
    """Column-wise storage of one relation's data.

    Arrays are ``object`` dtype and aligned with the schema; mutating them is
    forbidden by convention (relations are immutable).  A store is either
    *eager* (every column array present) or *deferred* (``_source`` holds the
    eager root store plus the row coordinates into it; columns are gathered
    lazily on first access).  The float and code views are the root's,
    computed there once.
    """

    __slots__ = ("schema", "length", "_arrays", "_numeric", "_codes", "_source")

    def __init__(self, schema: Schema, arrays: Sequence, length: int) -> None:
        self.schema = schema
        self._arrays = list(arrays)
        self.length = int(length)
        self._numeric: dict = {}
        self._codes: dict = {}
        self._source: tuple | None = None

    @classmethod
    def _deferred(cls, schema: Schema, root: "ColumnStore", indices, length: int) -> "ColumnStore":
        store = cls(schema, [None] * len(schema), length)
        store._source = (root, indices)
        return store

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_rows(cls, schema: Schema, rows: Sequence[tuple]) -> "ColumnStore":
        width = len(schema)
        count = len(rows)
        if count == 0:
            return cls(schema, [np.empty(0, dtype=object) for _ in range(width)], 0)
        matrix = np.empty((count, width), dtype=object)
        for j in range(width):
            matrix[:, j] = [row[j] for row in rows]
        return cls(schema, [matrix[:, j] for j in range(width)], count)

    # -- raw access ------------------------------------------------------------

    def array(self, name: str):
        """The object-dtype array of one column (gathered on first access)."""
        index = self.schema.index_of(name)
        array = self._arrays[index]
        if array is None:
            parent, indices = self._source
            array = self._arrays[index] = parent.array(name)[indices]
        return array

    def to_rows(self) -> list[tuple]:
        """Materialise the stored columns back into row tuples."""
        if not self._arrays:
            return [() for _ in range(self.length)]
        return list(zip(*(self.array(name).tolist() for name in self.schema.names)))

    # -- derived views ---------------------------------------------------------

    def numeric(self, name: str):
        """``float64`` view of a column (``None`` -> NaN); ``None`` if impossible.

        The root's view sliced at this store's coordinates: a column with a
        non-numeric value anywhere in the root has no view.
        """
        if name in self._numeric:
            return self._numeric[name]
        if self._source is None:
            view = _float_view(self.array(name).tolist())
        else:
            root, indices = self._source
            view = root.numeric(name)
            if view is not None:
                view = view[indices]
        self._numeric[name] = view
        return view

    def codes(self, name: str):
        """``(codes, mapping)`` factorization of a column; ``None`` if unhashable.

        The root's factorization sliced at this store's coordinates:
        ``mapping`` holds every value of the root's column.
        """
        if name in self._codes:
            return self._codes[name]
        if self._source is None:
            factorized = _factorize(self.array(name).tolist())
        else:
            root, indices = self._source
            factorized = root.codes(name)
            if factorized is not None:
                factorized = (factorized[0][indices], factorized[1])
        self._codes[name] = factorized
        return factorized

    # -- derivations -------------------------------------------------------------

    def take(self, indices) -> "ColumnStore":
        """Rows at the given coordinates (a slice or an integer array).

        The result is a deferred store: no column is gathered until read.
        Taking from a deferred store composes the coordinates, so derivation
        chains stay one hop from the eager root.
        """
        if isinstance(indices, slice):
            length = len(range(*indices.indices(self.length)))
        else:
            if not isinstance(indices, np.ndarray):
                indices = np.asarray(indices, dtype=np.int64)
            elif indices.dtype == bool:
                # Boolean masks select rows; the derived length is the number
                # of True entries, not the mask size.
                indices = indices.nonzero()[0]
            length = len(indices)
        parent, coordinates = self, indices
        if self._source is not None:
            parent, base = self._source
            coordinates = _compose_coordinates(base, indices, parent.length)
        return ColumnStore._deferred(self.schema, parent, coordinates, length)

    def head(self, k: int) -> "ColumnStore":
        return self.take(slice(0, max(k, 0)))

    def project(self, names: Sequence[str]) -> "ColumnStore":
        """Restrict to a subset of columns: a deferred store over the same root rows."""
        root, rows = self._source or (self, slice(0, self.length))
        return ColumnStore._deferred(self.schema.project(names), root, rows, self.length)

    def with_column(self, schema: Schema, values: Sequence) -> "ColumnStore":
        """A store extended with one appended column holding ``values``.

        ``schema`` is the extended schema; cached views of the existing
        columns carry over.
        """
        column = np.empty(self.length, dtype=object)
        for position, value in enumerate(values):
            column[position] = value
        arrays = [self.array(name) for name in self.schema.names]
        derived = ColumnStore(schema, arrays + [column], self.length)
        derived._numeric.update(self._numeric)
        derived._codes.update(self._codes)
        return derived

    def concatenated(self, other: "ColumnStore") -> "ColumnStore":
        """The rows of ``self`` followed by the rows of ``other`` (same schema)."""
        arrays = [
            np.concatenate([self.array(name), other.array(name)])
            for name in self.schema.names
        ]
        return ColumnStore(self.schema, arrays, self.length + other.length)

    # -- vectorized operators ---------------------------------------------------

    def mask(self, conjunction: Conjunction):
        """Boolean selection mask for a conjunction; ``None`` -> caller fallback."""
        selectors = self.selectors(conjunction)
        if selectors is None:
            return None
        if not selectors:
            return np.ones(self.length, dtype=bool)
        return selection(selectors, conjunction.constants)

    def selectors(self, conjunction: Conjunction):
        """One mask function per predicate, of the predicate's constant (a
        number or a value set), resolved once over this store's views;
        ``None`` when a predicate column has no float or code view."""
        selectors = []
        for predicate in conjunction:
            if isinstance(predicate, NumericalPredicate):
                select = self._numerical_selector(predicate)
            else:
                select = self._categorical_selector(predicate)
            if select is None:
                return None
            selectors.append(select)
        return tuple(selectors)

    def _numerical_selector(self, predicate: NumericalPredicate):
        if predicate.attribute not in self.schema:
            # Row semantics: a missing attribute reads as None, which fails.
            return lambda constant: np.zeros(self.length, dtype=bool)
        values = self.numeric(predicate.attribute)
        if values is None:
            return None
        # NaN (was None) compares False under every operator, matching the
        # row path's "missing/None fails" rule.
        return functools.partial(COMPARISONS[predicate.operator], values)

    def _categorical_selector(self, predicate: CategoricalPredicate):
        if predicate.attribute not in self.schema:
            return lambda values: np.full(self.length, None in values, dtype=bool)
        factorized = self.codes(predicate.attribute)
        if factorized is None:
            return None
        codes, mapping = factorized

        def select(values):
            # A lookup table over the codes: a value no row holds has no code.
            member = np.zeros(len(mapping), dtype=bool)
            for value in values:
                code = mapping.get(value)
                if code is not None:
                    member[code] = True
            return member[codes]

        return select

    def argsort_by(self, name: str, descending: bool):
        """Stable sort order by one column, NULLs last; ``None`` -> fallback.

        NaN (the image of ``None``) sorts to the end of ``argsort`` for both
        the negated and the plain key, which is exactly the deterministic
        "NULLs last" contract.
        """
        values = self.numeric(name)
        if values is None:
            return None
        keys = -values if descending else values
        return np.argsort(keys, kind="stable")

    def first_occurrence(self, names: Sequence[str], rows=None):
        """Positions of the first row for each distinct key, in row order,
        among ``rows`` (ascending positions; every row when ``None``).

        Raises ``TypeError`` when a key column holds an unhashable value.
        """
        columns = []
        for name in names:
            factorized = self.codes(name)
            if factorized is None:
                raise TypeError(f"column {name!r} holds an unhashable value")
            columns.append(factorized[0] if rows is None else factorized[0][rows])
        if rows is None:
            rows = np.arange(self.length)
        if not columns:
            return rows[:1]
        if len(columns) == 1:
            _, first = np.unique(columns[0], return_index=True)
        else:
            stacked = np.stack(columns, axis=1)
            _, first = np.unique(stacked, axis=0, return_index=True)
        return rows[np.sort(first)]

    def members(self, conditions: Mapping[str, object], rows=None):
        """Whether each row among ``rows`` (positions or a slice; every row
        when ``None``) satisfies every ``attribute == value`` condition: the
        one definition of group membership, with row semantics.  A missing
        attribute reads as ``None``, and a value no row holds matches
        nothing; the root's codes are compared, or the values row by row
        where the value or the column is unhashable."""
        rows = slice(None) if rows is None else rows
        mask = np.ones(self.length, dtype=bool)[rows]
        for attribute, value in conditions.items():
            mask &= self._equals(attribute, value, rows)
        return mask

    def _equals(self, attribute: str, value, rows):
        if attribute not in self.schema:
            return value is None
        factorized = self.codes(attribute)
        try:
            code = None if factorized is None else factorized[1].get(value, -1)
        except TypeError:  # an unhashable value
            code = None
        if code is None:
            column = self.array(attribute)[rows].tolist()
            return np.array([bool(item == value) for item in column], dtype=bool)
        # Codes are non-negative: -1, a value no row holds, matches nothing.
        return factorized[0][rows] == code


def selection(selectors: Sequence, constants: Sequence):
    """The rows a conjunction keeps: the AND of each predicate's mask at its
    constant (at least one predicate).  Every mask is a fresh array, so the
    first one is the running mask and the rest are AND-ed into it."""
    mask = None
    for select, constant in zip(selectors, constants, strict=True):
        part = select(constant)
        if mask is None:
            mask = part
        else:
            mask &= part
    return mask


def combined_codes(store: ColumnStore, names: Sequence[str]):
    """A single ``int64`` array identifying each row's key over ``names``.

    Rows share a code exactly when they have equal values in every key
    column.  ``None`` when factorization is impossible.
    """
    if not names:
        return None
    parts = []
    for name in names:
        factorized = store.codes(name)
        if factorized is None:
            return None
        parts.append(factorized[0])
    if len(parts) == 1:
        return parts[0]
    mapping: dict = {}
    combined = np.empty(store.length, dtype=np.int64)
    for position, key in enumerate(zip(*(part.tolist() for part in parts))):
        combined[position] = mapping.setdefault(key, len(mapping))
    return combined


__all__ = ["COMPARISONS", "ColumnStore", "combined_codes", "selection"]
