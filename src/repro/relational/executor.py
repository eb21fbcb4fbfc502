"""Evaluation of :class:`~repro.relational.query.SPJQuery` over a database.

Two execution backends sit behind :class:`QueryExecutor`:

``memory`` (default)
    The in-memory columnar engine (:mod:`repro.relational.columnar`), with
    per-query-shape join and ordered-join caches.

``sqlite``
    Selection, ordering and DISTINCT pushed down into sqlite
    (:mod:`repro.relational.sqlite_backend`); only result row coordinates
    come back, and the executor gathers them column-wise from the original
    relations, so the join is never materialised in Python.

The backend is chosen per executor (``backend=`` constructor argument) or
process-wide via the ``REPRO_EXECUTOR_BACKEND`` environment variable.  Both
backends produce byte-identical :class:`RankedResult`\\ s.
"""

from __future__ import annotations

import operator
import os
import threading
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.analysis.debug_locks import guard_mapping
from repro.exceptions import QueryError
from repro.relational import columnar
from repro.relational.columnar import ColumnStore
from repro.relational.database import Database
from repro.relational.predicates import Conjunction, NumericalPredicate
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import Schema

#: Supported execution backends, in documentation order.
EXECUTOR_BACKENDS = ("memory", "sqlite")


class _SQLiteConnectionPool:
    """Per-thread :class:`SQLiteExecutor` handles behind one executor.

    ``sqlite3`` connections must not be shared across threads, so a threaded
    caller (the serving layer admits concurrent refine requests) gets one
    connection per thread, created lazily on first use.  The pool is bounded:
    threaded HTTP servers spawn short-lived request threads, and without a cap
    every dead thread would leak its connection.  Eviction closes the oldest
    connection — safe because :mod:`repro.relational.sqlite_backend` opens
    with ``check_same_thread=False`` (usage stays per-thread by construction;
    only ``close`` crosses threads).
    """

    MAX_CONNECTIONS = 16

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executors: dict[int, object] = guard_mapping(
            {}, self._lock, "_SQLiteConnectionPool._executors"
        )

    def get(self):
        """The calling thread's executor, or ``None`` if it has none yet.

        Even this read takes the lock: ``put`` evicts other threads' entries,
        so the table mutates under concurrent readers.
        """
        with self._lock:
            return self._executors.get(threading.get_ident())

    def put(self, executor) -> None:
        ident = threading.get_ident()
        evict = []
        with self._lock:
            self._executors[ident] = executor
            while len(self._executors) > self.MAX_CONNECTIONS:
                oldest = next(iter(self._executors))
                if oldest == ident:
                    break
                evict.append(self._executors.pop(oldest))
        for stale in evict:
            stale.close()

    def clear(self, close: bool = False) -> None:
        with self._lock:
            executors = list(self._executors.values())
            self._executors.clear()
        if close:
            for executor in executors:
                executor.close()


class RankedResult:
    """The ranked output of an SPJ query: the rows of a rank-ordered relation
    at given positions.

    A memory result is its row positions, after DISTINCT, over the
    executor's cached ordered join: its length reads the positions, a top-k
    group count reads the group's membership at the first ``k`` of them, and
    ``relation`` and ``projected`` are built on first read.  ``~Q``'s result
    is the ordered join itself.  A sqlite result is the relation gathered
    from its pushdown coordinates, all its rows.

    Attributes
    ----------
    query:
        The query that produced this result.  A result of
        :meth:`PreparedQuery.bind` holds the query given to
        :meth:`QueryExecutor.prepare`: its tables, ranking, projection and
        DISTINCT, all that a result reads, are the bound query's, but its
        constants are its own.
    ordered:
        The rank-ordered relation the positions index: the ordered join on
        the memory backend, the gathered result on sqlite.
    positions:
        The result's rows in ``ordered``, ascending (rank order); ``None``
        for every row.
    """

    __slots__ = ("query", "ordered", "positions", "_relation", "_projected")

    def __init__(self, query: SPJQuery, ordered: Relation, positions=None) -> None:
        self.query = query
        self.ordered = ordered
        self.positions = positions
        self._relation = ordered if positions is None else None
        self._projected = None

    def __len__(self) -> int:
        return len(self.ordered) if self.positions is None else len(self.positions)

    @property
    def relation(self) -> Relation:
        """The full-width result: joined rows that satisfy the selection,
        ordered by the ``ORDER BY`` clause, de-duplicated when the query is
        DISTINCT.  Keeping the full width (not just the projected columns)
        lets cardinality constraints test group membership on attributes
        that are not part of the projection."""
        if self._relation is None:
            self._relation = self.ordered.take(self.positions)
        return self._relation

    @property
    def projected(self) -> Relation:
        """The user-visible projection of ``relation``."""
        if self._projected is None:
            select = self.query.select
            self._projected = self.relation.project(select) if select else self.relation
        return self._projected

    def _top(self, k: int):
        """Positions in ``ordered`` of the first ``k`` rows."""
        k = max(k, 0)
        return slice(0, k) if self.positions is None else self.positions[:k]

    def top_k(self, k: int) -> Relation:
        """The top-``k`` rows of the full-width result."""
        return self.ordered.take(self._top(k))

    def item_key(self, position: int) -> tuple[object, ...]:
        """Identity of the item at ``position`` for set/rank comparisons.

        DISTINCT queries identify items by their projected (distinct) values;
        otherwise the identity is the full row.
        """
        if self.query.distinct and self.query.select:
            return tuple(self.projected[position])
        return tuple(self.relation[position])

    def top_k_keys(self, k: int) -> list[tuple[object, ...]]:
        """Identities of the top-``k`` items, in rank order.

        Materialises only the top-``k`` rows (not the full result), keeping
        outcome-based distance evaluation cheap.
        """
        top = self.top_k(k)
        if self.query.distinct and self.query.select:
            top = top.project(self.query.select)
        return top.rows

    def count_in_top_k(self, k: int, member: Callable[[dict], bool]) -> int:
        """Number of top-``k`` rows satisfying a group-membership test."""
        # repro-lint: disable=hot-path-rowwise -- a callable membership test reads row dicts; only the CLI inspect command and the examples call it
        return sum(1 for values in self.top_k(k).iter_dicts() if member(values))

    def count_group_in_top_k(self, k: int, conditions: Mapping[str, object]) -> int:
        """Number of top-``k`` rows matching equality ``conditions``: the
        group's membership (:meth:`ColumnStore.members`) of the first ``k``
        positions only, so a count costs ``k``, not the ordered join."""
        members = self.ordered.column_store().members(conditions, self._top(k))
        return int(np.count_nonzero(members))

    def scores(self) -> list[float]:
        """Values of the ranking attribute, in rank order (``None`` scores as 0)."""
        return [
            0.0 if value is None else float(value)
            for value in self.relation.column(self.query.order_by.attribute)
        ]


def _shape(query: SPJQuery) -> tuple:
    """What a prepared query resolves besides its ordered join: each
    predicate's attribute and operator, the projection and DISTINCT."""
    return (
        tuple(
            (predicate.attribute, predicate.operator.value)
            if isinstance(predicate, NumericalPredicate)
            else (predicate.attribute,)
            for predicate in query.where
        ),
        query.select,
        query.distinct,
    )


class PreparedQuery:
    """A query shape prepared once on an executor: each :meth:`bind` evaluates
    it with new constants, as a DBMS runs a prepared statement.

    On the ``memory`` backend, preparing validates the shape against the
    join and resolves, over the ordered join's root, every predicate's float
    view or code table and its comparison (:meth:`ColumnStore.selectors`);
    the executor keeps that resolution for every later query of the shape.
    A binding then costs the check that no relation was swapped, its masks
    and DISTINCT, and returns the selected positions over the ordered join:
    no relation is built until the result's rows are read.  On ``sqlite`` a
    binding fills in the per-shape pushdown statement.  A prepared query is
    immutable, so concurrent searches share it.
    """

    __slots__ = ("query", "_executor", "_relations", "_ordered", "_selectors")

    def __init__(
        self,
        executor: "QueryExecutor",
        query: SPJQuery,
        relations: tuple[Relation, ...] = (),
        ordered: Relation | None = None,
        selectors: tuple | None = None,
    ) -> None:
        self.query = query
        self._executor = executor
        self._relations = relations
        self._ordered = ordered
        self._selectors = selectors

    def bind(self, constants: Sequence) -> RankedResult:
        """The result of the query with ``constants`` in place of its own, one
        per predicate as :attr:`Conjunction.constants` lists them: the rows,
        projection and length ``evaluate`` gives the bound query, as its
        positions over the ordered join on the memory backend.  Its
        ``query`` is the prepared one (see :attr:`RankedResult.query`)."""
        query = self.query
        executor = self._executor
        if executor.backend == "sqlite":
            return executor._evaluate_sqlite(query, query.where.bind(constants))
        if not all(
            map(operator.is_, map(executor.database.relation, query.tables), self._relations)
        ):
            # A relation was swapped since preparing: bind the shape over it.
            return executor.prepare(query).bind(constants)
        ordered, selectors = self._ordered, self._selectors
        if selectors is None:
            # A predicate column without a view: the row path.
            positions = ordered.matching(query.where.bind(constants))
        elif selectors:
            positions = columnar.selection(selectors, constants).nonzero()[0]
        else:
            positions = None  # no predicate: ``~Q`` keeps every row
        if query.distinct and query.select:
            positions = ordered.column_store().first_occurrence(query.select, positions)
        return RankedResult(query, ordered, positions)


class QueryExecutor:
    """Evaluates SPJ queries over a :class:`Database` via a pluggable backend.

    On the (default) ``memory`` backend the executor caches the joined
    relation per table list and the *ordered* join per ``(tables, ORDER BY)``
    pair: ordering before selecting is equivalent to the textbook
    select-then-order pipeline because both sorts are stable (filtering
    commutes with a stable sort), and it lets repeated evaluations over the
    same tables — the exhaustive baselines re-evaluate thousands of candidate
    refinements — skip the join and sort entirely.  Each cache holds one
    entry per query shape; swapping a relation in the database replaces the
    stale entry on the next evaluation.  The ordered-join entry also keeps
    the shapes prepared over it (:meth:`prepare`), so a repeated shape is not
    re-validated, and the float and code views the selections and top-k
    counts read are computed once on the join's eager root.  ``evaluate``
    binds a query's own constants to its prepared shape; ``Naive`` prepares
    the shape once per search and binds each candidate's.  A binding costs
    the swap check and its predicate masks, and its result is the selected
    positions over the ordered join (:class:`RankedResult`).

    On the ``sqlite`` backend the join, selection, ordering and DISTINCT all
    run inside sqlite over indexed base tables; the executor only gathers the
    returned row coordinates into a result relation.
    """

    def __init__(self, database: Database, backend: str | None = None) -> None:
        self.database = database
        if backend is None:
            backend = os.environ.get("REPRO_EXECUTOR_BACKEND", "memory")
        backend = backend.lower()
        if backend not in EXECUTOR_BACKENDS:
            raise QueryError(
                f"unknown executor backend {backend!r}; "
                f"available: {list(EXECUTOR_BACKENDS)}"
            )
        self.backend = backend
        # The shape caches are check-then-build; concurrent refine requests
        # through one warm session share this executor, so cache construction
        # is serialized behind a lock (reads of a built entry are then safe
        # because entries are immutable once stored).
        self._cache_lock = threading.RLock()
        self._join_cache: dict = guard_mapping(
            {}, self._cache_lock, "QueryExecutor._join_cache"
        )
        self._ordered_cache: dict = guard_mapping(
            {}, self._cache_lock, "QueryExecutor._ordered_cache"
        )
        self._sqlite_pool = _SQLiteConnectionPool()

    def close_connections(self) -> None:
        """Close every pooled sqlite connection (session teardown)."""
        self._sqlite_pool.clear(close=True)

    # -- public API --------------------------------------------------------------

    def evaluate(self, query: SPJQuery) -> RankedResult:
        """Evaluate ``query`` and return its ranked result.

        On the memory backend this is ``query``'s prepared shape bound to
        its own constants, the one selection path.
        """
        if self.backend == "sqlite":
            return self._evaluate_sqlite(query)
        return self.prepare(query).bind(query.where.constants)

    def prepare(self, query: SPJQuery) -> PreparedQuery:
        """``query``'s shape, validated and resolved once; see :class:`PreparedQuery`.

        On the memory backend the ordered-join entry keeps the selectors of
        every shape prepared over it, so a repeated shape is a lookup after
        the swap check of :meth:`_join`.  The entry holds no prepared query,
        which would hold this executor in a cycle.
        """
        if self.backend == "sqlite":
            return PreparedQuery(self, query)
        key = (query.tables, query.order_by.attribute, query.order_by.descending)
        shape = _shape(query)
        with self._cache_lock:
            relations, joined = self._join(query.tables)
            cached = self._ordered_cache.get(key)
            current = cached is not None and cached[0] is joined
            if current and shape in cached[2]:
                return PreparedQuery(self, query, relations, cached[1], cached[2][shape])
            self._validate(query, joined.schema)
            if current:
                _, ordered, shapes = cached
            else:
                ordered = joined.order_by(
                    query.order_by.attribute, descending=query.order_by.descending
                )
                shapes = {}
            selectors = ordered.column_store().selectors(query.where)
            self._ordered_cache[key] = (joined, ordered, {**shapes, shape: selectors})
            return PreparedQuery(self, query, relations, ordered, selectors)

    def evaluate_unfiltered(self, query: SPJQuery) -> RankedResult:
        """Evaluate the paper's ``~Q``: no selection, no DISTINCT, same ranking."""
        return self.evaluate(query.without_selection())

    def annotation_scan(self, query: SPJQuery):
        """Distinct lineage-atom combinations of ``~Q(D)``, pushed into SQL.

        On the sqlite backend this is one ``GROUP BY`` over the predicate
        attribute columns of the unfiltered join; the annotation pass then
        interns atoms and lineage sets per distinct combination and assigns
        them to rows with a single dict lookup each.  ``None`` on the memory
        backend (the annotation pass falls back to its column-cached scan).
        """
        if self.backend != "sqlite" or not query.where:
            return None
        return self._ensure_sqlite().annotation_scan(query)

    # -- sqlite pushdown -----------------------------------------------------------

    def _ensure_sqlite(self):
        from repro.relational.sqlite_backend import SQLiteExecutor

        sqlite = self._sqlite_pool.get()
        # Construction and refresh both copy the database's relations into
        # the calling thread's own store.  They take the cache lock, so the
        # threads' cold starts and reloads after a swap run one at a time.
        with self._cache_lock:
            if sqlite is None:
                sqlite = SQLiteExecutor(self.database)
                self._sqlite_pool.put(sqlite)
            else:
                sqlite.refresh()
        return sqlite

    def _evaluate_sqlite(
        self, query: SPJQuery, where: Conjunction | None = None
    ) -> RankedResult:
        """Push the whole query, with ``where`` as its selection when given (a
        binding of its constants), into sqlite and gather only the result rows."""
        schemas = [self.database.relation(name).schema for name in query.tables]
        joined_schema = schemas[0]
        for schema in schemas[1:]:
            joined_schema = joined_schema.join(schema)
        self._validate(query, joined_schema)

        sqlite = self._ensure_sqlite()
        coordinates = sqlite.pushdown_positions(
            query if where is None else query.with_where(where)
        )
        relation = self._gather(query, joined_schema, coordinates)
        if (
            query.distinct
            and query.select
            and not sqlite.supports_distinct_pushdown
        ):
            relation = relation.take(relation.column_store().first_occurrence(query.select))
        return RankedResult(query, relation)

    def _gather(
        self,
        query: SPJQuery,
        joined_schema: Schema,
        coordinates: Sequence[tuple[int, ...]],
    ) -> Relation:
        """Assemble the full-width result from per-table row coordinates.

        Values are taken from the original relations (the same Python
        objects the memory backend returns), one fancy-indexed gather per
        output column.
        """
        tables = query.tables
        name = "*".join(tables)
        relations = [self.database.relation(table) for table in tables]
        source: dict[str, int] = {}
        for position, relation in enumerate(relations):
            for attribute in relation.schema.names:
                source.setdefault(attribute, position)
        count = len(coordinates)
        stores = [relation.column_store() for relation in relations]
        rid_arrays = [
            np.fromiter((row[i] for row in coordinates), dtype=np.int64, count=count)
            for i in range(len(tables))
        ]
        arrays = [
            stores[source[attribute]].array(attribute)[rid_arrays[source[attribute]]]
            for attribute in joined_schema.names
        ]
        return Relation.from_store(name, ColumnStore(joined_schema, arrays, count))

    # -- helpers -------------------------------------------------------------------

    def _join(self, tables: Sequence[str]) -> tuple[tuple[Relation, ...], Relation]:
        """``(input relations, natural join)`` of ``tables``, rebuilt when the
        database swaps one."""
        if not tables:
            raise QueryError("cannot evaluate a query over an empty table list")
        tables = tuple(tables)
        with self._cache_lock:
            relations = tuple(self.database.relation(name) for name in tables)
            # The entry keeps the input relations alive, so an identity check
            # against them can never be fooled by a replacement allocated at a
            # recycled address; a swap replaces the whole entry.
            cached = self._join_cache.get(tables)
            if cached is None or not all(map(operator.is_, relations, cached[0])):
                joined = relations[0]
                for relation in relations[1:]:
                    joined = joined.natural_join(relation)
                self._join_cache[tables] = cached = (relations, joined)
            return cached

    @staticmethod
    def _validate(query: SPJQuery, schema: Schema) -> None:
        unknown = [
            attribute
            for attribute in query.predicate_attributes
            if attribute not in schema
        ]
        if unknown:
            raise QueryError(
                f"query {query.name!r} filters on unknown attributes {unknown}"
            )
        if query.order_by.attribute not in schema:
            raise QueryError(
                f"query {query.name!r} orders by unknown attribute "
                f"{query.order_by.attribute!r}"
            )
        for attribute in query.select:
            if attribute not in schema:
                raise QueryError(
                    f"query {query.name!r} projects unknown attribute {attribute!r}"
                )
