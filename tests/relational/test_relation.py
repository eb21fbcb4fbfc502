"""Unit and property tests for the Relation container."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import SchemaError
from repro.relational import Conjunction, NumericalPredicate, Relation, Schema
from repro.relational.schema import Attribute, AttributeKind, categorical, numerical


@pytest.fixture
def people():
    schema = Schema([categorical("name"), categorical("city"), numerical("age")])
    rows = [
        ("ann", "paris", 34),
        ("bob", "rome", 28),
        ("cee", "paris", 41),
        ("dan", "oslo", 28),
    ]
    return Relation("people", schema, rows)


@pytest.fixture
def visits():
    schema = Schema([categorical("name"), categorical("place")])
    rows = [("ann", "louvre"), ("ann", "orsay"), ("cee", "louvre"), ("eve", "tate")]
    return Relation("visits", schema, rows)


class TestConstruction:
    def test_row_width_is_validated(self):
        schema = Schema([categorical("a"), numerical("b")])
        with pytest.raises(SchemaError):
            Relation("r", schema, [("x",)])

    def test_from_dicts_fills_missing_with_none(self):
        schema = Schema([categorical("a"), numerical("b")])
        relation = Relation.from_dicts("r", schema, [{"a": "x"}])
        assert relation.rows == [("x", None)]

    def test_iteration_and_indexing(self, people):
        assert len(people) == 4
        assert people[0] == ("ann", "paris", 34)
        assert list(people)[1][0] == "bob"
        assert people.row_as_dict(2)["city"] == "paris"
        assert people.value(3, "age") == 28
        assert not people.is_empty()


class TestOperators:
    def test_select_with_conjunction(self, people):
        condition = Conjunction([NumericalPredicate("age", ">=", 30)])
        selected = people.select(condition)
        assert [row[0] for row in selected] == ["ann", "cee"]

    def test_select_with_callable(self, people):
        selected = people.select(lambda row: row["city"] == "paris")
        assert len(selected) == 2

    def test_project_and_distinct(self, people):
        projected = people.project(["city"])
        assert len(projected) == 4
        distinct = people.project(["city"], distinct=True)
        assert [row[0] for row in distinct] == ["paris", "rome", "oslo"]

    def test_natural_join(self, people, visits):
        joined = people.natural_join(visits)
        assert joined.schema.names == ["name", "city", "age", "place"]
        assert len(joined) == 3  # ann twice, cee once; eve has no person row
        names = [row[0] for row in joined]
        assert names.count("ann") == 2 and "eve" not in names

    def test_natural_join_without_shared_attributes_is_cartesian(self, people):
        other = Relation("flags", Schema([categorical("flag")]), [("x",), ("y",)])
        product = people.natural_join(other)
        assert len(product) == len(people) * 2

    def test_order_by_descending_and_ascending(self, people):
        descending = people.order_by("age")
        assert [row[2] for row in descending] == [41, 34, 28, 28]
        ascending = people.order_by("age", descending=False)
        assert [row[2] for row in ascending] == [28, 28, 34, 41]

    def test_order_by_is_stable_for_ties(self, people):
        ordered = people.order_by("age", descending=False)
        # bob appears before dan because that is their original order.
        assert [row[0] for row in ordered[:2]] == [("bob", "rome", 28)[0], "dan"]

    def test_head_and_concat(self, people):
        top = people.head(2)
        assert len(top) == 2
        doubled = people.concat(people)
        assert len(doubled) == 8
        with pytest.raises(SchemaError):
            people.concat(Relation("x", Schema([categorical("a")]), []))

    def test_with_column(self, people):
        enriched = people.with_column(
            Attribute("age_next_year", AttributeKind.NUMERICAL),
            lambda row: row["age"] + 1,
        )
        assert enriched.value(0, "age_next_year") == 35
        with pytest.raises(SchemaError):
            enriched.with_column(Attribute("age", AttributeKind.NUMERICAL), lambda row: 0)

    def test_domain_and_min_max(self, people):
        assert people.domain("city") == ["oslo", "paris", "rome"]
        assert people.min_max("age") == (28, 41)
        with pytest.raises(SchemaError):
            people.min_max("city")

    def test_count_where(self, people):
        assert people.count_where(lambda row: row["age"] < 30) == 2

    def test_rename(self, people):
        assert people.rename("persons").name == "persons"


# -- property-based tests -----------------------------------------------------------

_row_strategy = st.tuples(
    st.sampled_from(["a", "b", "c", "d"]),
    st.integers(min_value=0, max_value=50),
)


@given(rows=st.lists(_row_strategy, max_size=30))
def test_property_order_by_produces_sorted_scores(rows):
    schema = Schema([categorical("key"), numerical("score")])
    relation = Relation("r", schema, rows)
    ordered = relation.order_by("score")
    scores = [row[1] for row in ordered]
    assert scores == sorted(scores, reverse=True)
    assert len(ordered) == len(relation)


@given(rows=st.lists(_row_strategy, max_size=30), threshold=st.integers(0, 50))
def test_property_selection_is_idempotent_and_sound(rows, threshold):
    schema = Schema([categorical("key"), numerical("score")])
    relation = Relation("r", schema, rows)
    condition = Conjunction([NumericalPredicate("score", ">=", threshold)])
    once = relation.select(condition)
    twice = once.select(condition)
    assert once.rows == twice.rows
    assert all(row[1] >= threshold for row in once)
    kept_plus_dropped = len(once) + relation.count_where(lambda r: r["score"] < threshold)
    assert kept_plus_dropped == len(relation)


@given(rows=st.lists(_row_strategy, max_size=25))
def test_property_distinct_projection_has_unique_rows(rows):
    schema = Schema([categorical("key"), numerical("score")])
    relation = Relation("r", schema, rows)
    distinct = relation.project(["key"], distinct=True)
    keys = [row[0] for row in distinct]
    assert len(keys) == len(set(keys))
    assert set(keys) == {row[0] for row in relation}


@given(
    left_rows=st.lists(_row_strategy, max_size=15),
    right_rows=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(["x", "y"])),
        max_size=15,
    ),
)
def test_property_natural_join_matches_nested_loop_semantics(left_rows, right_rows):
    left = Relation("l", Schema([categorical("key"), numerical("score")]), left_rows)
    right = Relation("r", Schema([categorical("key"), categorical("tag")]), right_rows)
    joined = left.natural_join(right)
    expected = [
        l + (r[1],) for l in left_rows for r in right_rows if l[0] == r[0]
    ]
    assert sorted(joined.rows) == sorted(expected)


class TestColumnarOperatorParity:
    """The derived-column / concat / callable operators must agree across
    representations and keep store-backed inputs columnar."""

    @pytest.fixture
    def store_backed(self, people):
        return Relation.from_store("people", people.column_store())

    def test_with_column_matches_rowwise(self, people, store_backed):
        attribute = Attribute("senior", AttributeKind.CATEGORICAL)
        compute = lambda row: "yes" if row["age"] >= 30 else "no"
        derived = store_backed.with_column(attribute, compute)
        assert derived.rows == [
            row + (compute(people.row_as_dict(position)),)
            for position, row in enumerate(people.rows)
        ]
        assert derived.schema == Schema(list(people.schema.attributes) + [attribute])
        assert derived.column_store() is not None

    def test_concat_matches_rowwise(self, people, store_backed):
        concatenated = store_backed.concat(store_backed)
        assert concatenated.rows == people.rows + people.rows
        assert concatenated.column_store() is not None

    def test_callable_select_stays_columnar(self, store_backed):
        selected = store_backed.select(lambda row: row["city"] == "paris")
        assert [row[0] for row in selected] == ["ann", "cee"]
        assert selected.column_store() is not None

    def test_count_where_agrees_across_representations(self, people, store_backed):
        condition = lambda row: row["age"] < 30
        assert store_backed.count_where(condition) == people.count_where(condition) == 2

    def test_lazy_take_gathers_identical_rows(self, store_backed, people):
        taken = store_backed.take([2, 0])
        assert taken.rows == [people.rows[2], people.rows[0]]
        head = taken.head(1)
        assert head.rows == [people.rows[2]]
        assert head.column("name") == ["cee"]

    def test_lazy_take_resolves_negative_positions_within_the_window(
        self, store_backed, people
    ):
        # -1 after head(3) must mean "last of the 3-row window", not of the base.
        window = store_backed.head(3)
        assert window.take([-1]).rows == [people.rows[2]]
        assert window.take([-3, 2]).rows == [people.rows[0], people.rows[2]]

    def test_lazy_take_accepts_boolean_masks(self, store_backed, people):
        import numpy as np

        mask = np.array([True, False, True, False])
        taken = store_backed.take(mask)
        assert len(taken) == 2
        assert taken.rows == [people.rows[0], people.rows[2]]
