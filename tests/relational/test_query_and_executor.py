"""Tests for SPJ queries, the in-memory executor, SQL generation and sqlite."""

from __future__ import annotations

import gc
import inspect
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ConstraintSet, NaiveSearch, at_least, at_most
from repro.core.distances import PredicateDistance
from repro.core.refinement import Refinement
from repro.datasets import law_students_database, law_students_query, load_dataset
from repro.exceptions import QueryError
from repro.relational import (
    CategoricalPredicate,
    Conjunction,
    Database,
    NumericalPredicate,
    OrderBy,
    PreparedQuery,
    QueryExecutor,
    Relation,
    Schema,
    SPJQuery,
    SQLiteExecutor,
    columnar,
    render_sql,
)
from repro.relational.schema import categorical, numerical
from repro.relational.sqlgen import render_predicate, render_where


class TestSPJQuery:
    def test_requires_tables_and_order_by(self):
        with pytest.raises(QueryError):
            SPJQuery(tables=[], where=(), order_by="x")
        with pytest.raises(QueryError):
            SPJQuery(tables=["t"], where=(), order_by=None)

    def test_order_by_string_shorthand(self):
        query = SPJQuery(tables=["t"], where=(), order_by="score")
        assert query.order_by == OrderBy("score", descending=True)

    def test_predicate_accessors(self, scholarship):
        assert [p.attribute for p in scholarship.numerical_predicates] == ["GPA"]
        assert [p.attribute for p in scholarship.categorical_predicates] == ["Activity"]
        assert scholarship.predicate_attributes == ["GPA", "Activity"]
        assert scholarship.num_predicates == 2

    def test_with_where_keeps_everything_else(self, scholarship):
        new_where = Conjunction([NumericalPredicate("GPA", ">=", 3.5)])
        refined = scholarship.with_where(new_where)
        assert refined.tables == scholarship.tables
        assert refined.select == scholarship.select
        assert refined.distinct == scholarship.distinct
        assert refined.order_by == scholarship.order_by
        assert refined.where == new_where

    def test_without_selection_drops_predicates_and_distinct(self, scholarship):
        unfiltered = scholarship.without_selection()
        assert len(unfiltered.where) == 0
        assert not unfiltered.distinct
        assert unfiltered.order_by == scholarship.order_by


class TestExecutor:
    def test_scholarship_ranking_matches_paper(self, students_executor, scholarship):
        """Example 1.1: the ranking is [t4, t7, t8, t10, t11, t12] (then t14)."""
        result = students_executor.evaluate(scholarship)
        ids = [row[0] for row in result.projected.rows]
        assert ids == ["t4", "t7", "t8", "t10", "t11", "t12", "t14"]

    def test_example_12_refined_query_ranking(self, students_executor, scholarship):
        """Example 1.2: adding SO produces top-6 = t1, t2, t4, t6, t7, t8."""
        refined_where = Conjunction(
            [
                NumericalPredicate("GPA", ">=", 3.7),
                CategoricalPredicate("Activity", {"RB", "SO"}),
            ]
        )
        result = students_executor.evaluate(scholarship.with_where(refined_where))
        ids = [row[0] for row in result.projected.rows[:6]]
        assert ids == ["t1", "t2", "t4", "t6", "t7", "t8"]

    def test_example_13_refined_query_ranking(self, students_executor, scholarship):
        """Example 1.3: GPA>=3.6 and {RB, GD} gives top-6 t3, t4, t7, t8, t10, t11."""
        refined_where = Conjunction(
            [
                NumericalPredicate("GPA", ">=", 3.6),
                CategoricalPredicate("Activity", {"RB", "GD"}),
            ]
        )
        result = students_executor.evaluate(scholarship.with_where(refined_where))
        ids = [row[0] for row in result.projected.rows[:6]]
        assert ids == ["t3", "t4", "t7", "t8", "t10", "t11"]

    def test_distinct_keeps_best_ranked_duplicate(self, students_executor, scholarship):
        """t4 and t8 participate in both RB and TU but must appear once."""
        where = Conjunction(
            [
                NumericalPredicate("GPA", ">=", 3.7),
                CategoricalPredicate("Activity", {"RB", "TU"}),
            ]
        )
        result = students_executor.evaluate(scholarship.with_where(where))
        ids = [row[0] for row in result.projected.rows]
        assert ids.count("t4") == 1 and ids.count("t8") == 1

    def test_unfiltered_evaluation_contains_all_join_results(
        self, students_executor, scholarship
    ):
        unfiltered = students_executor.evaluate_unfiltered(scholarship)
        assert len(unfiltered) == 14  # 14 (student, activity) pairs in Table 2

    def test_top_k_and_item_keys(self, students_executor, scholarship):
        result = students_executor.evaluate(scholarship)
        assert len(result.top_k(3)) == 3
        keys = result.top_k_keys(3)
        assert [key[0] for key in keys] == ["t4", "t7", "t8"]

    def test_count_in_top_k(self, students_executor, scholarship):
        result = students_executor.evaluate(scholarship)
        females = result.count_in_top_k(6, lambda row: row["Gender"] == "F")
        assert females == 2  # t8 and t11, as the paper notes

    def test_scores_are_descending(self, students_executor, scholarship):
        result = students_executor.evaluate(scholarship)
        scores = result.scores()
        assert scores == sorted(scores, reverse=True)

    def test_unknown_predicate_attribute_raises(self, students_db):
        query = SPJQuery(
            tables=["Students"],
            where=Conjunction([NumericalPredicate("Nope", ">=", 1)]),
            order_by="SAT",
        )
        with pytest.raises(QueryError):
            QueryExecutor(students_db).evaluate(query)

    def test_unknown_order_by_attribute_raises(self, students_db):
        query = SPJQuery(tables=["Students"], where=(), order_by="Nope")
        with pytest.raises(QueryError):
            QueryExecutor(students_db).evaluate(query)

    def test_unknown_projection_attribute_raises(self, students_db):
        query = SPJQuery(
            tables=["Students"], where=(), order_by="SAT", select=["Nope"]
        )
        with pytest.raises(QueryError):
            QueryExecutor(students_db).evaluate(query)


class TestWarmExecutorShapes:
    """One memory executor prepares a query shape once; a binding of the
    shape costs its masks and the check that no relation was swapped."""

    def test_an_unknown_attribute_added_to_a_validated_shape_raises(
        self, students_db, scholarship
    ):
        executor = QueryExecutor(students_db, backend="memory")
        expected = executor.evaluate(scholarship).relation.rows
        unknown_predicate = scholarship.with_where(
            Conjunction(list(scholarship.where) + [NumericalPredicate("Nope", ">=", 1)])
        )
        unknown_projection = SPJQuery(
            tables=scholarship.tables,
            where=scholarship.where,
            order_by=scholarship.order_by,
            select=list(scholarship.select) + ["Nope"],
            distinct=scholarship.distinct,
        )
        for query in (unknown_predicate, unknown_projection) * 2:
            with pytest.raises(QueryError):
                executor.evaluate(query)
        assert executor.evaluate(scholarship).relation.rows == expected

    def test_prepared_shapes_do_not_keep_their_executor_alive(self, students_db, scholarship):
        """The cache keeps each shape's selectors, not the prepared query
        (which holds its executor), so no cycle outlives a dropped executor."""
        executor = QueryExecutor(students_db, backend="memory")
        executor.evaluate(scholarship)
        reference = weakref.ref(executor)
        collecting = gc.isenabled()
        gc.disable()
        try:
            del executor
            assert reference() is None
        finally:
            if collecting:
                gc.enable()

    def test_naive_search_factorizes_each_root_column_at_most_once(self, monkeypatch):
        factorized = []
        factorize = columnar._factorize

        def counting(values):
            factorized.append(len(values))
            return factorize(values)

        monkeypatch.setattr(columnar, "_factorize", counting)
        bundle = load_dataset("meps", num_rows=1200)
        executor = QueryExecutor(bundle.database, backend="memory")
        constraints = ConstraintSet([at_least(5, 10, Sex="F"), at_most(4, 10, Race="White")])
        result = NaiveSearch(
            bundle.database, bundle.query, constraints, epsilon=0.5, executor=executor
        ).search()
        assert result.exhausted
        assert result.candidates_examined == result.space_size > 1000
        # The two group attributes, each factorized once over the whole root
        # (meps has no categorical predicate and no DISTINCT).
        assert factorized == [len(bundle.database.relation("MEPS"))] * 2

    def test_naive_search_prepares_once_and_binds_each_candidate(self, monkeypatch):
        """Counted, not timed: the sweep prepares the query's shape once and
        binds each candidate's values to it; it builds a Refinement only for
        an improvement on the incumbent (the final result's is the last one)
        and never applies one, which the result does once.  A binding is its
        positions over the ordered join, and the constraints' group
        memberships are resolved once per search, so no candidate builds a
        column store or a relation."""
        calls: Counter = Counter()
        sweeping: list = []

        def count(owner, name):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name, bool(sweeping)] += 1
                return real(*args, **kwargs)

            if isinstance(inspect.getattr_static(owner, name), classmethod):
                counted = staticmethod(counted)
            monkeypatch.setattr(owner, name, counted)

        for owner, name in (
            (QueryExecutor, "prepare"),
            (PreparedQuery, "bind"),
            (Refinement, "__post_init__"),
            (Refinement, "apply"),
            (columnar.ColumnStore, "_deferred"),
            (columnar.ColumnStore, "members"),
            (Relation, "from_store"),
        ):
            count(owner, name)
        sweep = NaiveSearch._sweep

        def counted_sweep(search):
            sweeping.append(search)
            try:
                return sweep(search)
            finally:
                sweeping.pop()

        monkeypatch.setattr(NaiveSearch, "_sweep", counted_sweep)
        bundle = load_dataset("meps", num_rows=1200)
        constraints = ConstraintSet([at_least(5, 10, Sex="F"), at_most(4, 10, Race="White")])
        improvements = []
        result = NaiveSearch(
            bundle.database,
            bundle.query,
            constraints,
            epsilon=0.5,
            executor=QueryExecutor(bundle.database, backend="memory"),
            on_incumbent=lambda *incumbent: improvements.append(incumbent),
        ).search()
        assert result.exhausted
        assert result.candidates_examined == result.space_size > 1000
        assert calls["prepare", True] == 1
        assert calls["bind", True] == result.candidates_examined
        assert len(improvements) > 1
        assert calls["__post_init__", True] == len(improvements)
        assert calls["__post_init__", False] == 0
        assert result.refinement is improvements[-1][1]
        assert calls["apply", True] == 0
        assert calls["apply", False] == 1
        assert calls["_deferred", True] == 0
        assert calls["from_store", True] == 0
        assert calls["members", True] == len(constraints)
        # Each improvement's distance, summed term by term from its values.
        for distance, refinement, _ in improvements:
            expected = PredicateDistance().evaluate_refinement(bundle.query, refinement)
            assert distance.hex() == expected.hex()

    def test_counting_one_result_reads_only_its_first_k_rows(self, monkeypatch):
        """Counted, not timed: one result's deviation and counts read each
        group's membership of its first ``k`` rows, not of the whole ordered
        join, so they cost the same at any scale."""
        read = []
        members = columnar.ColumnStore.members

        def spy(store, *args, **kwargs):
            mask = members(store, *args, **kwargs)
            read.append(mask.size)
            return mask

        monkeypatch.setattr(columnar.ColumnStore, "members", spy)
        bundle = load_dataset("meps", num_rows=1200)
        executor = QueryExecutor(bundle.database, backend="memory")
        constraints = ConstraintSet([at_least(5, 10, Sex="F"), at_most(4, 20, Race="White")])
        selected = executor.evaluate(bundle.query)
        unfiltered = executor.evaluate_unfiltered(bundle.query)
        assert len(unfiltered) == len(selected.ordered) > len(selected) > 20
        for result in (selected, unfiltered):
            read.clear()
            constraints.deviation(result)
            constraints.counts(result)
            assert read == [10, 20, 10, 20]


class TestSQLGeneration:
    def test_render_numerical_predicate(self):
        predicate = NumericalPredicate("GPA", ">=", 3.7)
        assert render_predicate(predicate) == '"GPA" >= 3.7'

    def test_render_categorical_predicate_single_value(self):
        predicate = CategoricalPredicate("Activity", {"RB"})
        assert render_predicate(predicate) == "\"Activity\" = 'RB'"

    def test_render_categorical_predicate_multiple_values_is_disjunction(self):
        predicate = CategoricalPredicate("Activity", {"RB", "SO"})
        rendered = render_predicate(predicate)
        assert rendered.startswith("(") and " OR " in rendered

    def test_render_empty_where(self):
        assert render_where(Conjunction()) == "1 = 1"

    def test_render_sql_for_scholarship_query(self, scholarship):
        sql = render_sql(scholarship)
        assert "SELECT DISTINCT" in sql
        assert '"Students" NATURAL JOIN "Activities"' in sql
        assert '"GPA" >= 3.7' in sql
        assert 'ORDER BY "SAT" DESC' in sql

    def test_literal_escaping(self):
        predicate = CategoricalPredicate("Name", {"O'Brien"})
        assert "''" in render_predicate(predicate)


class TestSQLiteBackend:
    def test_sqlite_matches_in_memory_on_scholarship(self, students_db, scholarship):
        expected = [
            row[0]
            for row in QueryExecutor(students_db).evaluate(scholarship).projected.rows
        ]
        with SQLiteExecutor(students_db) as backend:
            actual = [row[0] for row in backend.execute(scholarship)]
        assert actual == expected

    def test_sqlite_matches_in_memory_on_law_students(self):
        database = law_students_database(num_rows=300, seed=3)
        query = law_students_query()
        memory_ids = [
            row[0] for row in QueryExecutor(database).evaluate(query).relation.rows
        ]
        with SQLiteExecutor(database) as backend:
            sqlite_ids = [row[0] for row in backend.execute(query)]
        assert sqlite_ids == memory_ids

    def test_execute_raw_sql(self, students_db):
        with SQLiteExecutor(students_db) as backend:
            rows = backend.execute_sql("SELECT COUNT(*) FROM Students")
        assert rows == [(14,)]


class TestDatabase:
    def test_add_get_contains(self, students_db):
        assert "Students" in students_db
        assert len(students_db.relation("Students")) == 14
        assert students_db.total_rows() == 14 + 14
        assert students_db.names == ["Activities", "Students"]

    def test_unknown_relation_raises(self, students_db):
        from repro.exceptions import SchemaError

        with pytest.raises(SchemaError):
            students_db.relation("Missing")

    def test_csv_round_trip(self, tmp_path, students_db):
        students_db.save_csv(tmp_path)
        reloaded = Database.load_csv(tmp_path)
        assert reloaded.names == students_db.names
        original = students_db.relation("Students")
        restored = reloaded.relation("Students")
        assert len(restored) == len(original)
        assert restored.schema.names == original.schema.names
        assert restored.value(0, "GPA") == pytest.approx(original.value(0, "GPA"))


@settings(deadline=None, max_examples=20)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["r1", "r2", "r3", "r4"]),
            st.sampled_from(["x", "y", "z"]),
            st.integers(min_value=0, max_value=100),
        ),
        min_size=1,
        max_size=40,
    ),
    threshold=st.integers(min_value=0, max_value=100),
)
def test_property_in_memory_executor_matches_sqlite(rows, threshold):
    """Property: the in-memory executor and sqlite agree on random data/queries."""
    schema = Schema([categorical("id"), categorical("tag"), numerical("score")])
    # Make ids unique so that ordering ties cannot cause spurious mismatches.
    rows = [(f"{row[0]}_{i}", row[1], row[2]) for i, row in enumerate(rows)]
    database = Database([Relation("T", schema, rows)])
    query = SPJQuery(
        tables=["T"],
        where=Conjunction(
            [NumericalPredicate("score", ">=", threshold), CategoricalPredicate("tag", {"x", "y"})]
        ),
        order_by="score",
        name="random",
    )
    memory_rows = QueryExecutor(database).evaluate(query).relation.rows
    memory_scores = [row[2] for row in memory_rows]
    with SQLiteExecutor(database) as backend:
        sqlite_rows = backend.execute(query)
    sqlite_scores = [row[2] for row in sqlite_rows]
    assert memory_scores == sqlite_scores
    assert {row[0] for row in memory_rows} == {row[0] for row in sqlite_rows}
