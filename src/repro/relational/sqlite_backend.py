"""SQLite execution backend for SPJ queries (standard library ``sqlite3``).

The paper evaluates queries on DuckDB; sqlite plays that role here.  The
backend is a first-class execution engine behind
:class:`~repro.relational.executor.QueryExecutor` (selected with
``QueryExecutor(db, backend="sqlite")`` or ``REPRO_EXECUTOR_BACKEND=sqlite``):
selection, ordering and DISTINCT de-duplication are pushed down into sqlite,
and only the *row coordinates* of the result cross back into Python, where the
executor gathers them column-wise from the original relations — so paper-scale
joins are never materialised as Python tuples.

Pushdown queries are rendered once per query *shape* — the parameter-free
skeleton of tables, predicate attributes/operators and IN-list sizes — with
``?`` placeholders for every threshold and value.  Candidate refinements of
the same query therefore reuse one compiled sqlite statement (the connection's
statement cache is keyed on SQL text) with freshly bound parameters.  Join-key
columns and the ranking attribute are indexed on first use.

The original cross-check API (:meth:`SQLiteExecutor.execute` returning
projected values, and :meth:`SQLiteExecutor.execute_sql` for raw SQL) is kept
for the examples and the property-based tests.

Every store is an in-memory database, one per thread of a
:class:`~repro.relational.executor.QueryExecutor`: a cache of the source
relations, loaded on first use, reloaded table by table when the database
swaps a relation, and rebuilt from them when it reads as corrupted.
"""

from __future__ import annotations

import sqlite3
import time
from typing import Callable, Sequence, TypeVar

from repro import faults
from repro.core.deadline import current_deadline
from repro.exceptions import StoreCorruptionError, StoreLockedError
from repro.relational.database import Database
from repro.relational.predicates import Conjunction, NumericalPredicate
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation
from repro.relational.schema import AttributeKind
from repro.relational.sqlgen import _quote_identifier, render_where_params

#: Locked-store retry backoff: base doubles per retry up to the cap.
_LOCK_RETRY_BASE_S = 0.02
_LOCK_RETRY_CAP_S = 0.25
#: Total lock-retry budget when no request deadline is in scope.
_LOCK_RETRY_DEFAULT_BUDGET_S = 2.0
#: Automatic store rebuilds tolerated within one guarded operation.
_MAX_REBUILDS_PER_CALL = 2

_T = TypeVar("_T")


def _is_lock_error(error: sqlite3.OperationalError) -> bool:
    message = str(error)
    return "locked" in message or "busy" in message


def _is_corruption_error(error: sqlite3.DatabaseError) -> bool:
    message = str(error)
    return "malformed" in message or "not a database" in message


def _predicate_parameters(where: Conjunction) -> list:
    """Bound parameter values for a pushdown statement, in placeholder order."""
    parameters: list = []
    for predicate in where:
        if isinstance(predicate, NumericalPredicate):
            parameters.append(predicate.constant)
        else:
            parameters.extend(v for v in predicate.values if v is not None)
    return parameters


class SQLiteExecutor:
    """Materialises a :class:`Database` into an in-memory sqlite store and
    runs queries as SQL."""

    def __init__(self, database: Database) -> None:
        self._database = database
        #: Automatic rebuilds performed after corruption detection.
        self.rebuilds = 0
        #: Guarded store accesses (also the fault-injection key stream).
        self._access_count = 0
        self._window_functions = sqlite3.sqlite_version_info >= (3, 25, 0)
        self._connect()

    def _connect(self) -> None:
        """Open an empty in-memory store and load every relation into it."""
        # Each SQLiteExecutor is used by exactly one thread (QueryExecutor
        # hands out one per thread from its connection pool), but pool
        # eviction and session teardown close connections from *another*
        # thread — which sqlite3 only permits with check_same_thread=False.
        self.connection = sqlite3.connect(
            ":memory:", cached_statements=256, check_same_thread=False
        )
        #: Loaded relation per table name.  Holding the object itself (not a
        #: bare id) keeps it alive, so a replacement relation can never reuse
        #: the freed object's id and masquerade as the loaded one.
        self._loaded: dict[str, Relation] = {}
        self._indexed: set[tuple[str, str]] = set()
        self._sql_cache: dict[tuple, str] = {}
        for relation in self._database:
            self._ensure_relation(relation)
        self.connection.commit()

    def close(self) -> None:
        self.connection.close()

    def __enter__(self) -> "SQLiteExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- loading -------------------------------------------------------------------

    def _ensure_relation(self, relation: Relation) -> bool:
        """Load ``relation`` unless the store already holds this object.

        Returns ``True`` when the table was actually (re)loaded.
        """
        name = relation.name
        if self._loaded.get(name) is relation:
            return False
        self.connection.execute(f"DROP TABLE IF EXISTS {_quote_identifier(name)}")
        self._indexed = {entry for entry in self._indexed if entry[0] != name}
        self._load_relation(relation)
        return True

    def _load_relation(self, relation: Relation) -> None:
        cursor = self.connection.cursor()
        columns = []
        for attribute in relation.schema:
            sql_type = (
                "REAL" if attribute.kind is AttributeKind.NUMERICAL else "TEXT"
            )
            columns.append(f"{_quote_identifier(attribute.name)} {sql_type}")
        cursor.execute(
            f"CREATE TABLE {_quote_identifier(relation.name)} "
            f"({', '.join(columns)})"
        )
        placeholders = ", ".join("?" for _ in relation.schema)
        cursor.executemany(
            f"INSERT INTO {_quote_identifier(relation.name)} "
            f"VALUES ({placeholders})",
            relation.rows,
        )
        self._loaded[relation.name] = relation

    def refresh(self) -> None:
        """Re-load any relation that was swapped in (or added to) the database.

        Relations are tracked by object identity: :class:`Relation` objects
        are immutable, so the same object means unchanged contents.
        """
        stale = False
        for relation in self._database:
            if self._ensure_relation(relation):
                stale = True
        if stale:
            # Alias/source resolution can change with a new schema.
            self._sql_cache.clear()
            self.connection.commit()

    # -- degradation: lock retries and corruption rebuild ------------------------------

    def _guarded(self, what: str, operation: Callable[[], _T]) -> _T:
        """Run a store operation with lock retries and automatic rebuild.

        A locked store is retried with capped exponential backoff until the
        ambient request deadline (or a fixed budget without one) runs out,
        then surfaces as the typed, retryable :class:`StoreLockedError`.  A
        corrupted store (``database disk image is malformed`` / ``file is not
        a database``) is rebuilt in place from the source relations — the
        store is a cache, so rebuilding is always safe — and only becomes
        :class:`StoreCorruptionError` when rebuilding does not help.
        """
        key = self._access_count
        self._access_count += 1
        deadline = current_deadline()
        attempt = 0
        rebuilds_this_call = 0
        delay = _LOCK_RETRY_BASE_S
        started = time.monotonic()
        while True:
            try:
                if faults.armed():
                    faults.fire("sqlite-lock", key=key, attempt=attempt)
                    faults.fire("sqlite-corrupt", key=key, attempt=attempt)
                return operation()
            except sqlite3.OperationalError as error:
                if not _is_lock_error(error):
                    raise
                if deadline is not None:
                    remaining = deadline.remaining()
                    if remaining <= 0:
                        raise StoreLockedError(
                            f"store stayed locked during {what} until the "
                            "request deadline expired"
                        ) from error
                    sleep_s = min(delay, remaining)
                elif time.monotonic() - started >= _LOCK_RETRY_DEFAULT_BUDGET_S:
                    raise StoreLockedError(
                        f"store stayed locked during {what} for "
                        f"{_LOCK_RETRY_DEFAULT_BUDGET_S:g}s"
                    ) from error
                else:
                    sleep_s = delay
                time.sleep(sleep_s)
                delay = min(delay * 2, _LOCK_RETRY_CAP_S)
                attempt += 1
            except sqlite3.DatabaseError as error:
                if not _is_corruption_error(error):
                    raise
                if rebuilds_this_call >= _MAX_REBUILDS_PER_CALL:
                    raise StoreCorruptionError(
                        f"store stayed corrupted during {what} after "
                        f"{rebuilds_this_call} rebuild(s)"
                    ) from error
                self._rebuild()
                rebuilds_this_call += 1
                attempt += 1

    def _rebuild(self) -> None:
        """Drop the corrupted store and reload it from the source relations."""
        self.rebuilds += 1
        try:
            self.connection.close()
        except sqlite3.Error:
            pass
        try:
            self._connect()
        except sqlite3.Error as error:
            raise StoreCorruptionError("rebuilding the corrupted store failed") from error

    # -- pushdown execution -----------------------------------------------------------

    @property
    def supports_distinct_pushdown(self) -> bool:
        """Whether DISTINCT de-duplication runs inside sqlite (window functions)."""
        return self._window_functions

    def pushdown_positions(self, query: SPJQuery) -> list[tuple[int, ...]]:
        """Rank-ordered result coordinates: one 0-based row position per table.

        Selection, ordering and (window functions permitting) DISTINCT all run
        inside sqlite; the caller gathers the actual values from the original
        relations, so results are byte-identical to the in-memory engines.
        Predicate constants are bound as statement parameters, so refinement
        candidates of one query shape reuse a single compiled plan.

        Store failures degrade instead of crashing the request: locked
        stores are retried under the ambient deadline and corruption
        triggers an automatic rebuild (see :meth:`_guarded`).
        """
        return self._guarded("pushdown", lambda: self._pushdown_positions(query))

    def _pushdown_positions(self, query: SPJQuery) -> list[tuple[int, ...]]:
        self._ensure_indexes(query)
        sql = self._pushdown_sql(query)
        cursor = self.connection.execute(sql, _predicate_parameters(query.where))
        return cursor.fetchall()

    def _ensure_indexes(self, query: SPJQuery) -> None:
        """Index the query's join-key columns and its ranking attribute."""
        schemas = [self._database.relation(name).schema for name in query.tables]
        first_table: dict[str, int] = {}
        wanted: set[tuple[str, str]] = set()
        for position, schema in enumerate(schemas):
            for attribute in schema.names:
                if attribute in first_table:
                    wanted.add((query.tables[first_table[attribute]], attribute))
                    wanted.add((query.tables[position], attribute))
                else:
                    first_table[attribute] = position
        order_attribute = query.order_by.attribute
        if order_attribute in first_table:
            wanted.add((query.tables[first_table[order_attribute]], order_attribute))
        for table, column in sorted(wanted - self._indexed):
            index_name = _quote_identifier(f"idx_{table}_{column}")
            self.connection.execute(
                f"CREATE INDEX IF NOT EXISTS {index_name} ON "
                f"{_quote_identifier(table)} ({_quote_identifier(column)})"
            )
            self._indexed.add((table, column))

    def _pushdown_sql(self, query: SPJQuery) -> str:
        """The (cached) parameterized pushdown statement for a query shape."""
        shape = (
            query.tables,
            tuple(
                (predicate.attribute, predicate.operator.value)
                if isinstance(predicate, NumericalPredicate)
                else (
                    predicate.attribute,
                    sum(1 for v in predicate.values if v is not None),
                    None in predicate.values,
                )
                for predicate in query.where
            ),
            query.order_by.attribute,
            query.order_by.descending,
            query.distinct,
            query.select,
        )
        sql = self._sql_cache.get(shape)
        if sql is None:
            sql = self._sql_cache[shape] = self._build_pushdown_sql(query)
        return sql

    def _aliased_join(self, tables) -> tuple[list[str], dict[str, str], list[str]]:
        """Aliases, attribute -> alias map and FROM parts of the natural join.

        Natural-join semantics with explicit conditions: each shared
        attribute equates with the first table that carries it, and IS (not
        =) matches the in-memory hash join where NULL keys join with NULL.
        Shared by the pushdown statement and the annotation scan so both
        always join identically.
        """
        aliases = [f"t{i}" for i in range(len(tables))]
        schemas = [self._database.relation(name).schema for name in tables]
        source: dict[str, str] = {}
        for name in schemas[0].names:
            source[name] = aliases[0]
        from_parts = [f"{_quote_identifier(tables[0])} AS {aliases[0]}"]
        for position in range(1, len(tables)):
            alias = aliases[position]
            quoted = f"{_quote_identifier(tables[position])} AS {alias}"
            shared = [name for name in schemas[position].names if name in source]
            if shared:
                conditions = " AND ".join(
                    f"{source[name]}.{_quote_identifier(name)} IS "
                    f"{alias}.{_quote_identifier(name)}"
                    for name in shared
                )
                from_parts.append(f"JOIN {quoted} ON {conditions}")
            else:
                from_parts.append(f"CROSS JOIN {quoted}")
            for name in schemas[position].names:
                source.setdefault(name, alias)
        return aliases, source, from_parts

    def _build_pushdown_sql(self, query: SPJQuery) -> str:
        aliases, source, from_parts = self._aliased_join(query.tables)

        where_parts = []
        for predicate in query.where:
            column = f"{source[predicate.attribute]}.{_quote_identifier(predicate.attribute)}"
            if isinstance(predicate, NumericalPredicate):
                where_parts.append(f"{column} {predicate.operator.value} ?")
                continue
            clauses = []
            non_null_count = sum(1 for v in predicate.values if v is not None)
            if non_null_count:
                placeholders = ", ".join("?" for _ in range(non_null_count))
                clauses.append(f"{column} IN ({placeholders})")
            if None in predicate.values:
                # Row semantics: None matches a categorical predicate that
                # lists None, while SQL IN-lists never match NULL.
                clauses.append(f"{column} IS NULL")
            where_parts.append(
                clauses[0] if len(clauses) == 1 else "(" + " OR ".join(clauses) + ")"
            )
        where_clause = " AND ".join(where_parts) if where_parts else "1 = 1"

        # Total, deterministic order: the ranking attribute with NULLs last,
        # then the base-table row positions — exactly the in-memory engine's
        # stable sort over the left-deep join order.
        rank = f"{source[query.order_by.attribute]}.{_quote_identifier(query.order_by.attribute)}"
        direction = "DESC" if query.order_by.descending else "ASC"
        rowids = ", ".join(f"{alias}.rowid" for alias in aliases)
        from_clause = " ".join(from_parts)

        if query.distinct and query.select and self._window_functions:
            partition = ", ".join(
                f"{source[name]}.{_quote_identifier(name)}" for name in query.select
            )
            inner_rids = ", ".join(
                f"{aliases[i]}.rowid AS __r{i}" for i in range(len(aliases))
            )
            window_order = f"({rank} IS NULL), {rank} {direction}, {rowids}"
            inner = (
                f"SELECT {inner_rids}, ({rank} IS NULL) AS __rank_null, "
                f"{rank} AS __rank, ROW_NUMBER() OVER "
                f"(PARTITION BY {partition} ORDER BY {window_order}) AS __pick "
                f"FROM {from_clause} WHERE {where_clause}"
            )
            outer_rids = ", ".join(f"__r{i} - 1" for i in range(len(aliases)))
            outer_order = ", ".join(
                ["__rank_null", f"__rank {direction}"]
                + [f"__r{i}" for i in range(len(aliases))]
            )
            return (
                f"SELECT {outer_rids} FROM ({inner}) "
                f"WHERE __pick = 1 ORDER BY {outer_order}"
            )

        rid_select = ", ".join(f"{alias}.rowid - 1" for alias in aliases)
        return (
            f"SELECT {rid_select} FROM {from_clause} WHERE {where_clause} "
            f"ORDER BY ({rank} IS NULL), {rank} {direction}, {rowids}"
        )

    # -- annotation pushdown -----------------------------------------------------------

    def annotation_scan(self, query: SPJQuery) -> list[tuple]:
        """Distinct lineage-atom value combinations of ``~Q(D)`` via ``GROUP BY``.

        One row per distinct combination of the query's predicate-attribute
        values across the unfiltered join, in predicate order (categorical
        attributes first, then numerical — matching the annotation pass).
        The annotation scan then interns one lineage set per combination
        instead of consulting per-predicate atom caches row by row.
        """
        return self._guarded("annotation scan", lambda: self._annotation_scan(query))

    def _annotation_scan(self, query: SPJQuery) -> list[tuple]:
        _, source, from_parts = self._aliased_join(query.tables)
        attributes = [
            predicate.attribute for predicate in query.categorical_predicates
        ] + [predicate.attribute for predicate in query.numerical_predicates]
        columns = ", ".join(
            f"{source[name]}.{_quote_identifier(name)}" for name in attributes
        )
        cursor = self.connection.execute(
            f"SELECT {columns} FROM {' '.join(from_parts)} GROUP BY {columns}"
        )
        return cursor.fetchall()

    # -- value-level execution (cross-checking and examples) --------------------------

    def execute(self, query: SPJQuery) -> list[tuple]:
        """Run ``query`` and return the projected rows in rank order.

        DISTINCT ranking queries are rewritten with GROUP BY so that sqlite can
        order groups by the best score among their duplicates, matching the
        "keep the better-ranked duplicate" semantics of the in-memory engine.
        """
        return self._guarded("execute", lambda: self._execute(query))

    def _execute(self, query: SPJQuery) -> list[tuple]:
        cursor = self.connection.cursor()
        sql, parameters = self._render(query)
        cursor.execute(sql, parameters)
        return [tuple(row) for row in cursor.fetchall()]

    def execute_sql(self, sql: str, parameters: Sequence = ()) -> list[tuple]:
        """Run raw SQL (escape hatch for tests and examples)."""
        cursor = self.connection.cursor()
        cursor.execute(sql, parameters)
        return [tuple(row) for row in cursor.fetchall()]

    def _render(self, query: SPJQuery) -> tuple[str, tuple]:
        """The query as SQL text plus its bound ``?`` parameters.

        Identifiers are quoted in; predicate values only ever travel in the
        parameter tuple (enforced by the ``sql-parameterization`` lint rule).
        """
        from_clause = " NATURAL JOIN ".join(
            _quote_identifier(table) for table in query.tables
        )
        where_clause, parameters = render_where_params(query.where)
        order_attribute = _quote_identifier(query.order_by.attribute)
        direction = "DESC" if query.order_by.descending else "ASC"

        if query.distinct and query.select:
            columns = ", ".join(_quote_identifier(name) for name in query.select)
            best = "MAX" if query.order_by.descending else "MIN"
            return (
                f"SELECT {columns} FROM {from_clause} WHERE {where_clause} "
                f"GROUP BY {columns} ORDER BY {best}({order_attribute}) {direction}",
                parameters,
            )

        columns = (
            ", ".join(_quote_identifier(name) for name in query.select)
            if query.select
            else "*"
        )
        return (
            f"SELECT {columns} FROM {from_clause} WHERE {where_clause} "
            f"ORDER BY {order_attribute} {direction}",
            parameters,
        )
