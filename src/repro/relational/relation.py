"""The :class:`Relation` container: a schema plus an ordered bag of rows.

A relation's data lives in a :class:`~repro.relational.columnar.ColumnStore`,
and every relational operator runs on it — selection as boolean masks,
ordering as a stable ``argsort``, joins as hash joins over key-column views
with fancy-indexed gathers — and returns a store-backed relation.  Row tuples
are an input (the dataset generators and tests build relations from them)
and a cached view (``rows``, iteration and indexing materialise them on first
use).

Invariants:

* At least one of ``_rows`` / ``_store`` is always populated; whichever side
  is missing is derived on first use and cached (``_materialized()`` /
  ``_columns()``).  Conversion never loses information — object-dtype columns
  round-trip the same Python objects.
* Both representations are immutable once attached: operators return new
  relations, and the row order is the single source of ranking truth.
* Operators whose condition has no columnar form (a callable selection, an
  ordering attribute without a float view) compute row positions in Python
  and ``take`` them from the same store.
* ``tests/relational/test_columnar_parity.py`` holds the engine to the sqlite
  pushdown backend: identical rows, row order and value *types* on every
  registered dataset.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.relational.columnar import ColumnStore
from repro.relational.predicates import Conjunction
from repro.relational.schema import Attribute, AttributeKind, Schema


def _domain_sort_key(value: object) -> tuple:
    """Total order over domain values: numbers first (by magnitude), then others.

    Normalising numeric values to ``float`` keeps mixed ``int``/``float``
    domains in one ordered run (``1`` before ``1.5`` before ``2``) instead of
    splitting them by type name.
    """
    if isinstance(value, (int, float)) and not isinstance(value, complex):
        return (0, float(value), "")
    return (1, str(type(value)), str(value))


class Relation:
    """An ordered bag of tuples conforming to a :class:`Schema`.

    All operations return new relations; relations are never mutated in place.
    """

    __slots__ = ("name", "schema", "_rows", "_store")

    def __init__(
        self,
        name: str,
        schema: Schema,
        rows: Iterable[Sequence[object]] = (),
    ) -> None:
        self.name = name
        self.schema = schema
        width = len(schema)
        stored: list[tuple[object, ...]] = []
        for row in rows:
            row = tuple(row)
            if len(row) != width:
                raise SchemaError(
                    f"row {row!r} has {len(row)} values, schema {schema!r} expects {width}"
                )
            stored.append(row)
        self._rows = stored
        self._store: ColumnStore | None = None

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        name: str,
        schema: Schema,
        records: Iterable[Mapping[str, object]],
    ) -> "Relation":
        """Build a relation from dict records (missing keys become ``None``)."""
        names = schema.names
        rows = [tuple(record.get(column) for column in names) for record in records]
        return cls(name, schema, rows)

    @classmethod
    def from_store(cls, name: str, store: ColumnStore) -> "Relation":
        """Wrap a column store without materialising rows."""
        relation = cls.__new__(cls)
        relation.name = name
        relation.schema = store.schema
        relation._rows = None
        relation._store = store
        return relation

    # -- representation management -----------------------------------------------

    def _materialized(self) -> list[tuple[object, ...]]:
        """The row tuples, converting from columns on first use."""
        if self._rows is None:
            self._rows = self._store.to_rows()
        return self._rows

    def _columns(self) -> ColumnStore:
        """The column store, converting from rows on first use."""
        if self._store is None:
            self._store = ColumnStore.from_rows(self.schema, self._rows)
        return self._store

    def column_store(self) -> ColumnStore:
        """Public accessor for the columnar representation."""
        return self._columns()

    # -- basic accessors --------------------------------------------------------

    @property
    def rows(self) -> list[tuple[object, ...]]:
        """The stored rows (copy of the list, rows themselves are immutable)."""
        return list(self._materialized())

    def __len__(self) -> int:
        if self._rows is not None:
            return len(self._rows)
        return self._store.length

    def __iter__(self) -> Iterator[tuple[object, ...]]:
        return iter(self._materialized())

    def __getitem__(self, position: int) -> tuple[object, ...]:
        return self._materialized()[position]

    def is_empty(self) -> bool:
        return len(self) == 0

    def column(self, attribute: str) -> list[object]:
        """All values of ``attribute`` in row order."""
        index = self.schema.index_of(attribute)
        if self._rows is None:
            return self._store.array(attribute).tolist()
        return [row[index] for row in self._rows]

    def domain(self, attribute: str) -> list[object]:
        """Distinct values of ``attribute`` (sorted for determinism).

        Numeric values are normalised to a common sort key, so mixed
        ``int``/``float`` domains come out in true numeric order.
        """
        values = set(self.column(attribute))
        values.discard(None)
        return sorted(values, key=_domain_sort_key)

    def row_as_dict(self, position: int) -> dict[str, object]:
        return dict(zip(self.schema.names, self._materialized()[position]))

    def iter_dicts(self) -> Iterator[dict[str, object]]:
        """Rows as attribute → value dicts, in row order.

        Store-backed relations iterate straight over their columns instead of
        materialising (and caching) the row tuples first.
        """
        names = self.schema.names
        if self._rows is None:
            store = self._store
            if not names:
                for _ in range(store.length):
                    yield {}
                return
            columns = [store.array(name).tolist() for name in names]
            for row in zip(*columns):
                yield dict(zip(names, row))
            return
        for row in self._rows:
            yield dict(zip(names, row))

    def value(self, position: int, attribute: str) -> object:
        """Value of ``attribute`` in the row at ``position``."""
        return self._materialized()[position][self.schema.index_of(attribute)]

    # -- relational operators ----------------------------------------------------

    def select(self, condition: Conjunction | Callable[[dict], bool]) -> "Relation":
        """Rows satisfying ``condition`` (a Conjunction or a row-dict callable)."""
        if isinstance(condition, Conjunction) and not len(condition):
            # TRUE selects everything; relations are immutable, so callers
            # can share this one instead of gathering a full copy.
            return self
        return self.take(self.matching(condition))

    def matching(self, condition: Conjunction | Callable[[dict], bool]) -> np.ndarray:
        """Positions of the rows satisfying ``condition``, in row order."""
        if isinstance(condition, Conjunction):
            mask = self._columns().mask(condition)
            if mask is not None:
                return mask.nonzero()[0]
            predicate = condition.matches
        else:
            predicate = condition
        # Callable (or mask-incompatible) conditions evaluate row by row.
        kept = [
            position
            for position, values in enumerate(self.iter_dicts())
            if predicate(values)
        ]
        return np.asarray(kept, dtype=np.int64)

    def take(self, positions) -> "Relation":
        """Rows at the given positions, in the given order."""
        return Relation.from_store(self.name, self._columns().take(positions))

    def project(self, attributes: Sequence[str], distinct: bool = False) -> "Relation":
        """Project onto ``attributes``; optionally de-duplicate keeping first.

        DISTINCT raises ``TypeError`` on an unhashable value, as a Python
        set of the projected rows would.
        """
        projected = self._columns().project(attributes)
        if distinct:
            projected = projected.take(projected.first_occurrence(attributes))
        return Relation.from_store(self.name, projected)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on all shared attribute names (hash join).

        The hash table is keyed on the shared key columns and the output is
        gathered with fancy indexing, so full result rows are never
        materialised as tuples.
        """
        joined_schema = self.schema.join(other.schema)
        left_store = self._columns()
        right_store = other._columns()
        shared = self.schema.common_attributes(other.schema)
        right_extra = [
            attribute.name
            for attribute in other.schema
            if attribute.name not in self.schema
        ]
        if not shared:
            # Cartesian product (TPC-H style star joins).
            left_idx = np.repeat(np.arange(len(self)), len(other))
            right_idx = np.tile(np.arange(len(other)), len(self))
        else:
            right_keys = list(
                zip(*(right_store.array(name).tolist() for name in shared))
            )
            buckets: dict[tuple[object, ...], list[int]] = {}
            for position, key in enumerate(right_keys):
                buckets.setdefault(key, []).append(position)
            left_keys = list(
                zip(*(left_store.array(name).tolist() for name in shared))
            )
            left_positions: list[int] = []
            right_positions: list[int] = []
            for position, key in enumerate(left_keys):
                for match in buckets.get(key, ()):
                    left_positions.append(position)
                    right_positions.append(match)
            left_idx = np.array(left_positions, dtype=np.int64)
            right_idx = np.array(right_positions, dtype=np.int64)
        arrays = [left_store.array(name)[left_idx] for name in self.schema.names]
        arrays.extend(right_store.array(name)[right_idx] for name in right_extra)
        store = ColumnStore(joined_schema, arrays, int(left_idx.shape[0]))
        return Relation.from_store(f"{self.name}*{other.name}", store)

    def order_by(self, attribute: str, descending: bool = True) -> "Relation":
        """Stable sort by ``attribute`` (ties keep their current order).

        ``None`` values sort last in both directions, preserving their
        relative order, instead of raising ``TypeError``.
        """
        # The float view would sort float-parseable *strings* numerically, so
        # the argsort is only used for attributes declared numerical; other
        # columns sort their Python values.
        if attribute in self.schema and self.schema.attribute(attribute).is_numerical:
            order = self._columns().argsort_by(attribute, descending)
            if order is not None:
                return self.take(order)
        values = self.column(attribute)
        non_null = [position for position, value in enumerate(values) if value is not None]
        nulls = [position for position, value in enumerate(values) if value is None]
        ordered = sorted(non_null, key=values.__getitem__, reverse=descending)
        return self.take(np.asarray(ordered + nulls, dtype=np.int64))

    def head(self, k: int) -> "Relation":
        """The first ``k`` rows (the top-k of a ranked relation)."""
        return Relation.from_store(self.name, self._columns().head(k))

    def concat(self, other: "Relation") -> "Relation":
        """Append the rows of ``other`` (schemas must match)."""
        if self.schema != other.schema:
            raise SchemaError("cannot concatenate relations with different schemas")
        return Relation.from_store(
            self.name, self._columns().concatenated(other._columns())
        )

    def rename(self, name: str) -> "Relation":
        renamed = Relation.from_store(name, self._columns())
        renamed._rows = self._rows
        return renamed

    def with_column(
        self,
        attribute: Attribute,
        compute: Callable[[dict], object],
    ) -> "Relation":
        """Add a derived column computed from each row (e.g. MEPS utilization)."""
        if attribute.name in self.schema:
            raise SchemaError(f"attribute {attribute.name!r} already exists")
        new_schema = Schema(list(self.schema.attributes) + [attribute])
        computed = [compute(values) for values in self.iter_dicts()]
        return Relation.from_store(
            self.name, self._columns().with_column(new_schema, computed)
        )

    # -- statistics ----------------------------------------------------------------

    def count_where(self, condition: Callable[[dict], bool]) -> int:
        """Number of rows satisfying a row-dict predicate."""
        return sum(1 for values in self.iter_dicts() if condition(values))

    def min_max(self, attribute: str) -> tuple[float, float]:
        """Minimum and maximum of a numerical attribute (ignores ``None``)."""
        if self.schema.kind_of(attribute) is not AttributeKind.NUMERICAL:
            raise SchemaError(f"attribute {attribute!r} is not numerical")
        values = [float(v) for v in self.column(attribute) if v is not None]
        if not values:
            raise SchemaError(f"attribute {attribute!r} has no non-null values")
        return min(values), max(values)

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, rows={len(self)}, schema={self.schema!r})"
