"""Regression tests for the relational-layer crash fixes.

1. ``QueryExecutor._join`` raises :class:`QueryError` on an empty table list
   (previously a bare ``IndexError``; a dead ``joined is None`` branch hid it).
2. ``Relation.order_by`` sorts ``None`` ranking values last deterministically
   (previously ``TypeError``), and ``RankedResult.scores`` zeroes them.
3. ``Relation.domain`` keeps mixed ``int``/``float`` numeric domains in one
   ordered run (previously split into two runs by type name).
"""

from __future__ import annotations

import pytest

from repro.exceptions import QueryError
from repro.relational import (
    CategoricalPredicate,
    Conjunction,
    Database,
    NumericalPredicate,
    QueryExecutor,
    Relation,
    Schema,
    SPJQuery,
)
from repro.relational.query import OrderBy
from repro.relational.schema import categorical, numerical


@pytest.fixture
def nullable_scores():
    schema = Schema([categorical("id"), numerical("score")])
    rows = [
        ("a", 2),
        ("b", None),
        ("c", 5),
        ("d", None),
        ("e", 3),
    ]
    return Relation("r", schema, rows)


class TestEmptyJoin:
    def test_join_of_empty_table_list_raises_query_error(self, students_db):
        executor = QueryExecutor(students_db)
        with pytest.raises(QueryError):
            executor._join(())

    def test_query_constructor_still_rejects_empty_tables(self):
        with pytest.raises(QueryError):
            SPJQuery(tables=[], where=(), order_by="x")


class TestJoinCacheInvalidation:
    def test_replacing_a_relation_invalidates_cached_results(self):
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        # Pinned to the memory backend: the assertions below are white-box
        # about its join caches (the sqlite backend tracks swaps separately,
        # see test_sqlite_backend_reloads_swapped_relations).
        executor = QueryExecutor(database, backend="memory")
        assert len(executor.evaluate(query)) == 2
        database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
        assert len(executor.evaluate(query)) == 3
        # The stale entry is replaced, not kept alongside (bounded memory).
        # White-box cache reads hold the cache lock (REPRO_DEBUG_LOCKS).
        with executor._cache_lock:
            assert len(executor._join_cache) == 1
            assert len(executor._ordered_cache) == 1

    def test_a_validated_shape_sees_a_swap_and_reads_the_new_root_views(self):
        schema = Schema([categorical("id"), numerical("score")])
        old = Relation("r", schema, [("a", 1), ("b", 2)])
        database = Database([old])
        query = SPJQuery(
            tables=["r"],
            where=Conjunction(
                [CategoricalPredicate("id", ["a", "c"]), NumericalPredicate("score", ">=", 1)]
            ),
            order_by="score",
            name="q",
        )
        executor = QueryExecutor(database, backend="memory")
        for _ in range(2):
            result = executor.evaluate(query)
            assert result.relation.rows == [("a", 1)]
        assert result.count_group_in_top_k(1, {"id": "a"}) == 1
        assert old.column_store().codes("id")[1] == {"a": 0, "b": 1}

        swapped = Relation("r", schema, [("c", 3), ("a", 1), ("b", 2)])
        database.add(swapped)
        result = executor.evaluate(query)
        assert result.relation.rows == [("c", 3), ("a", 1)]
        assert result.count_group_in_top_k(1, {"id": "c"}) == 1
        # The result's views are sliced from the new root's, built from its
        # rows; the old root's are left as they were.
        assert result.relation.column_store().codes("id")[1] == {"c": 0, "a": 1, "b": 2}
        assert old.column_store().codes("id")[1] == {"a": 0, "b": 1}


class TestBackendSelection:
    def _database(self):
        schema = Schema([categorical("id"), numerical("score")])
        return Database([Relation("r", schema, [("a", 1), ("b", 2)])])

    def test_unknown_backend_raises(self):
        with pytest.raises(QueryError):
            QueryExecutor(self._database(), backend="duckdb")

    def test_backend_defaults_to_memory(self, monkeypatch, tmp_path):
        monkeypatch.delenv("REPRO_EXECUTOR_BACKEND", raising=False)
        # A store path left in the environment selects nothing: every store
        # is in memory, and only REPRO_EXECUTOR_BACKEND picks the backend.
        monkeypatch.setenv("REPRO_EXECUTOR_DB", str(tmp_path / "stale.sqlite"))
        assert QueryExecutor(self._database()).backend == "memory"

    def test_backend_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "sqlite")
        assert QueryExecutor(self._database()).backend == "sqlite"

    def test_explicit_backend_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR_BACKEND", "sqlite")
        assert QueryExecutor(self._database(), backend="memory").backend == "memory"

    def test_sqlite_backend_reloads_swapped_relations(self):
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        executor = QueryExecutor(database, backend="sqlite")
        assert len(executor.evaluate(query)) == 2
        database.add(Relation("r", schema, [("a", 1), ("b", 2), ("c", 3)]))
        assert len(executor.evaluate(query)) == 3

    def test_sqlite_backend_survives_relation_id_reuse(self):
        """Repeated swaps where the freed Relation's id is reused must reload.

        The backend holds the loaded Relation objects (not bare ids), so a
        replacement allocated at a recycled address can never look current.
        """
        schema = Schema([categorical("id"), numerical("score")])
        database = Database([Relation("r", schema, [("a", 1), ("b", 2)])])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="q")
        executor = QueryExecutor(database, backend="sqlite")
        for extra in range(1, 6):
            rows = [("a", 1), ("b", 2)] + [(f"x{i}", 10 + i) for i in range(extra)]
            # The previous relation becomes garbage immediately; CPython often
            # hands its address to the next allocation.
            database.add(Relation("r", schema, rows))
            assert len(executor.evaluate(query)) == 2 + extra

    def test_sqlite_backend_validates_unknown_attributes(self):
        query = SPJQuery(
            tables=["r"],
            where=Conjunction([NumericalPredicate("nope", ">=", 1)]),
            order_by="score",
        )
        with pytest.raises(QueryError):
            QueryExecutor(self._database(), backend="sqlite").evaluate(query)


class TestNullOrdering:
    def test_order_by_descending_puts_nulls_last(self, nullable_scores):
        ordered = nullable_scores.order_by("score")
        assert [row[0] for row in ordered] == ["c", "e", "a", "b", "d"]

    def test_order_by_ascending_puts_nulls_last(self, nullable_scores):
        ordered = nullable_scores.order_by("score", descending=False)
        assert [row[0] for row in ordered] == ["a", "e", "c", "b", "d"]

    @pytest.mark.parametrize("descending", [True, False])
    def test_sqlite_backend_agrees_on_null_ordering(self, nullable_scores, descending):
        database = Database([nullable_scores])
        query = SPJQuery(
            tables=["r"], where=(), order_by=OrderBy("score", descending), name="q"
        )
        memory = [row[0] for row in nullable_scores.order_by("score", descending)]
        sqlite = QueryExecutor(database, backend="sqlite").evaluate(query)
        assert [row[0] for row in sqlite.relation] == memory

    def test_ranked_result_scores_zeroes_nulls(self, nullable_scores):
        database = Database([nullable_scores])
        query = SPJQuery(tables=["r"], where=(), order_by="score", name="nulls")
        result = QueryExecutor(database).evaluate(query)
        assert result.scores() == [5.0, 3.0, 2.0, 0.0, 0.0]

    def test_min_max_ignores_nulls(self, nullable_scores):
        assert nullable_scores.min_max("score") == (2.0, 5.0)

    def test_selection_on_nullable_column_excludes_nulls(self, nullable_scores):
        condition = Conjunction([NumericalPredicate("score", ">=", 0)])
        selected = nullable_scores.select(condition)
        assert [row[0] for row in selected] == ["a", "c", "e"]


class TestOrderingParityAndSelectIdentity:
    def test_float_parseable_strings_sort_lexicographically_on_both_engines(self):
        relation = Relation("r", Schema([categorical("id")]), [("1",), ("10",), ("2",)])
        query = SPJQuery(
            tables=["r"], where=(), order_by=OrderBy("id", descending=False), name="q"
        )
        memory = [row[0] for row in relation.order_by("id", descending=False)]
        sqlite = QueryExecutor(Database([relation]), backend="sqlite").evaluate(query)
        assert memory == [row[0] for row in sqlite.relation] == ["1", "10", "2"]

    def test_empty_conjunction_select_returns_the_relation_itself(self, nullable_scores):
        assert nullable_scores.select(Conjunction()) is nullable_scores

    def test_zero_column_projection_preserves_row_count(self, nullable_scores):
        projected = nullable_scores.project([]).head(2)
        assert len(projected) == 2
        assert projected.rows == [(), ()]


class TestNullsThroughTheNaiveBaselines:
    """NULLs in the ranking or predicate attributes must not crash setup."""

    def _database(self):
        schema = Schema([categorical("id"), categorical("grp"), numerical("x"), numerical("s")])
        rows = [
            ("a", "F", 1.0, 10.0),
            ("b", "F", None, 9.0),   # dead: None fails every numerical predicate
            ("c", "M", 2.0, None),   # NULL ranking value: sorts last, scores 0
            ("d", "M", 3.0, 7.0),
            ("e", "F", 4.0, 6.0),
        ]
        return Database([Relation("r", schema, rows)])

    def _query(self):
        return SPJQuery(
            tables=["r"],
            where=[NumericalPredicate("x", ">=", 2)],
            order_by="s",
            name="nullable",
        )

    def test_annotation_drops_dead_tuples_and_zeroes_null_scores(self):
        from repro.provenance.lineage import annotate

        annotated = annotate(self._query(), self._database())
        ids = [t.values["id"] for t in annotated.tuples]
        assert "b" not in ids  # dead tuple omitted, not a float(None) crash
        scores = {t.values["id"]: t.score for t in annotated.tuples}
        assert scores["c"] == 0.0

    def test_naive_searches_run_end_to_end_on_both_engines(self):
        from repro.core import ConstraintSet, NaiveProvenanceSearch, NaiveSearch, at_least

        constraints = ConstraintSet([at_least(1, 3, grp="F")])

        def run(cls, backend):
            return cls(
                self._database(),
                self._query(),
                constraints,
                epsilon=0.5,
                executor_backend=backend,
            ).search()

        for cls in (NaiveSearch, NaiveProvenanceSearch):
            memory = run(cls, "memory")
            sqlite = run(cls, "sqlite")
            assert memory.feasible and sqlite.feasible
            assert memory.refinement == sqlite.refinement
            assert memory.distance_value == sqlite.distance_value


class TestMixedNumericDomain:
    def test_domain_orders_mixed_int_float_numerically(self):
        schema = Schema([numerical("x")])
        relation = Relation("r", schema, [(1.5,), (1,), (2,), (0.5,), (None,)])
        assert relation.domain("x") == [0.5, 1, 1.5, 2]

    def test_domain_with_non_numeric_values_stays_deterministic(self):
        schema = Schema([categorical("x")])
        relation = Relation("r", schema, [("b",), ("a",), ("b",)])
        assert relation.domain("x") == ["a", "b"]

    def test_domain_is_engine_independent(self):
        schema = Schema([numerical("x")])
        relation = Relation("r", schema, [(3,), (1.25,), (2,), (1,), (2.5,)])
        store_backed = Relation.from_store("r", relation.column_store())
        assert relation.domain("x") == store_backed.domain("x") == [1, 1.25, 2, 2.5, 3]
