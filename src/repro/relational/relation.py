"""The :class:`Relation` container: a schema plus an ordered bag of rows.

Relations have a dual representation.  They can be constructed from row
tuples (the original API, used by the dataset generators and tests) or from a
:class:`~repro.relational.columnar.ColumnStore`; either side is materialised
lazily from the other.  Every relational operator runs on the columnar
representation — selection as boolean masks, ordering as a stable
``argsort``, joins as hash joins over key-column views with fancy-indexed
gathers, derived-column/concat/callable operators over column iterators — and
on the original row-at-a-time implementation under
:func:`repro.relational.columnar.rowwise_fallback`.

Dual-representation invariants:

* At least one of ``_rows`` / ``_store`` is always populated; whichever side
  is missing is derived on first use and cached (``_materialized()`` /
  ``_columns()``).  Conversion never loses information — object-dtype columns
  round-trip the same Python objects.
* Both representations are immutable once attached: operators return new
  relations, and the row order is the single source of ranking truth in both.
* Every operator must produce identical rows, row order, and value *types* on
  either representation; ``tests/relational/test_columnar_parity.py`` holds
  the engines to byte-identical output on every registered dataset.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import SchemaError
from repro.relational import columnar
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

    def _columns(self) -> ColumnStore | None:
        """The column store when the vectorized engine should be used."""
        if not columnar.vectorization_enabled():
            return None
        if self._store is None:
            self._store = ColumnStore.from_rows(self.schema, self._rows)
        return self._store

    def column_store(self) -> ColumnStore | None:
        """Public accessor for the columnar representation (or ``None``)."""
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
        if isinstance(condition, Conjunction):
            if not len(condition):
                # TRUE selects everything; relations are immutable, so the
                # unfiltered ~Q evaluations can share this one instead of
                # gathering a full copy.
                return self
            store = self._columns()
            if store is not None:
                mask = store.mask(condition)
                if mask is not None:
                    return Relation.from_store(
                        self.name, store.take(np.flatnonzero(mask))
                    )
            predicate = condition.matches
        else:
            predicate = condition
        store = self._columns()
        if store is not None:
            # Callable (or mask-incompatible) conditions still evaluate row by
            # row, but the result stays columnar: a coordinate take over the
            # shared store instead of a fresh row relation.
            kept = [
                position
                for position, values in enumerate(self.iter_dicts())
                if predicate(values)
            ]
            return Relation.from_store(
                self.name, store.take(np.asarray(kept, dtype=np.int64))
            )
        names = self.schema.names
        kept = [
            row
            for row in self._materialized()
            if predicate(dict(zip(names, row)))
        ]
        return Relation(self.name, self.schema, kept)

    def take(self, positions) -> "Relation":
        """Rows at the given positions, in the given order."""
        store = self._columns()
        if store is not None:
            return Relation.from_store(self.name, store.take(positions))
        rows = self._materialized()
        return Relation(self.name, self.schema, [rows[p] for p in positions])

    def project(self, attributes: Sequence[str], distinct: bool = False) -> "Relation":
        """Project onto ``attributes``; optionally de-duplicate keeping first."""
        store = self._columns()
        if store is not None:
            projected = store.project(attributes)
            if distinct:
                first = projected.first_occurrence(attributes)
                if first is None:
                    return self._project_rows(attributes, distinct)
                projected = projected.take(first)
            return Relation.from_store(self.name, projected)
        return self._project_rows(attributes, distinct)

    def _project_rows(self, attributes: Sequence[str], distinct: bool) -> "Relation":
        indices = [self.schema.index_of(attribute) for attribute in attributes]
        projected_schema = self.schema.project(attributes)
        rows = [tuple(row[i] for i in indices) for row in self._materialized()]
        if distinct:
            seen: set[tuple[object, ...]] = set()
            unique: list[tuple[object, ...]] = []
            for row in rows:
                if row not in seen:
                    seen.add(row)
                    unique.append(row)
            rows = unique
        return Relation(self.name, projected_schema, rows)

    def natural_join(self, other: "Relation") -> "Relation":
        """Natural join on all shared attribute names (hash join).

        On the columnar path the hash table is keyed on views of the shared
        key columns and the output is gathered with fancy indexing, so full
        result rows are never materialised as tuples.
        """
        joined_schema = self.schema.join(other.schema)
        left_store = self._columns()
        right_store = other._columns() if left_store is not None else None
        if left_store is not None and right_store is not None:
            return self._natural_join_columnar(
                other, joined_schema, left_store, right_store
            )
        return self._natural_join_rows(other, joined_schema)

    def _natural_join_columnar(
        self,
        other: "Relation",
        joined_schema: Schema,
        left_store: ColumnStore,
        right_store: ColumnStore,
    ) -> "Relation":
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

    def _natural_join_rows(self, other: "Relation", joined_schema: Schema) -> "Relation":
        shared = self.schema.common_attributes(other.schema)
        left_rows = self._materialized()
        right_rows = other._materialized()
        if not shared:
            rows = [left + right for left in left_rows for right in right_rows]
            return Relation(f"{self.name}*{other.name}", joined_schema, rows)

        left_key = [self.schema.index_of(name) for name in shared]
        right_key = [other.schema.index_of(name) for name in shared]
        right_extra = [
            other.schema.index_of(attribute.name)
            for attribute in other.schema
            if attribute.name not in self.schema
        ]

        buckets: dict[tuple[object, ...], list[tuple[object, ...]]] = {}
        for row in right_rows:
            key = tuple(row[i] for i in right_key)
            buckets.setdefault(key, []).append(row)

        rows = []
        for row in left_rows:
            key = tuple(row[i] for i in left_key)
            for match in buckets.get(key, ()):
                rows.append(row + tuple(match[i] for i in right_extra))
        return Relation(f"{self.name}*{other.name}", joined_schema, rows)

    def order_by(self, attribute: str, descending: bool = True) -> "Relation":
        """Stable sort by ``attribute`` (ties keep their current order).

        ``None`` values sort last in both directions, preserving their
        relative order, instead of raising ``TypeError``.
        """
        store = self._columns()
        # The float view would sort float-parseable *strings* numerically,
        # diverging from the row path's lexicographic order — so the columnar
        # sort is only used for attributes declared numerical.
        if (
            store is not None
            and attribute in self.schema
            and self.schema.attribute(attribute).is_numerical
        ):
            order = store.argsort_by(attribute, descending)
            if order is not None:
                return Relation.from_store(self.name, store.take(order))
        index = self.schema.index_of(attribute)
        rows = self._materialized()
        non_null = [row for row in rows if row[index] is not None]
        nulls = [row for row in rows if row[index] is None]
        ordered = sorted(non_null, key=lambda row: row[index], reverse=descending)
        return Relation(self.name, self.schema, ordered + nulls)

    def head(self, k: int) -> "Relation":
        """The first ``k`` rows (the top-k of a ranked relation)."""
        store = self._columns()
        if store is not None:
            return Relation.from_store(self.name, store.head(k))
        return Relation(self.name, self.schema, self._materialized()[:k])

    def concat(self, other: "Relation") -> "Relation":
        """Append the rows of ``other`` (schemas must match)."""
        if self.schema != other.schema:
            raise SchemaError("cannot concatenate relations with different schemas")
        left = self._columns()
        right = other._columns() if left is not None else None
        if left is not None and right is not None:
            return Relation.from_store(self.name, left.concatenated(right))
        return Relation(
            self.name, self.schema, self._materialized() + other._materialized()
        )

    def rename(self, name: str) -> "Relation":
        if self._rows is None:
            return Relation.from_store(name, self._store)
        return Relation(name, self.schema, self._rows)

    def with_column(
        self,
        attribute: Attribute,
        compute: Callable[[dict], object],
    ) -> "Relation":
        """Add a derived column computed from each row (e.g. MEPS utilization)."""
        if attribute.name in self.schema:
            raise SchemaError(f"attribute {attribute.name!r} already exists")
        names = self.schema.names
        new_schema = Schema(list(self.schema.attributes) + [attribute])
        store = self._columns()
        if store is not None:
            computed = [compute(values) for values in self.iter_dicts()]
            return Relation.from_store(
                self.name, store.with_column(new_schema, computed)
            )
        rows = [
            row + (compute(dict(zip(names, row))),) for row in self._materialized()
        ]
        return Relation(self.name, new_schema, rows)

    # -- statistics ----------------------------------------------------------------

    def count_where(self, condition: Callable[[dict], bool]) -> int:
        """Number of rows satisfying a row-dict predicate."""
        return sum(1 for values in self.iter_dicts() if condition(values))

    def group_count(self, conditions: Mapping[str, object]) -> int:
        """Rows matching every ``attribute == value`` equality condition.

        This is the vectorized membership count behind cardinality-constraint
        evaluation; missing attributes read as ``None`` (row semantics).
        """
        store = self._columns()
        if store is not None and all(
            attribute in self.schema for attribute in conditions
        ):
            fast = store.count_conditions(conditions)
            if fast is not None:
                return fast
        return self.count_where(
            lambda row: all(
                row.get(attribute) == value for attribute, value in conditions.items()
            )
        )

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
