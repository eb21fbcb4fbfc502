"""Tests for the MILP construction (Figure 1) and the Section 4 optimizations."""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, at_least, at_most, get_distance
from repro.core.constraints import BoundType
from repro.core.milp_builder import MILPBuilder, build_model
from repro.core.optimizations import (
    BuilderOptions,
    apply_relevancy_pruning,
    classify_bound_types,
)
from repro.datasets import law_students_database, law_students_query
from repro.exceptions import RefinementError
from repro.provenance import annotate
from repro.relational import (
    Conjunction,
    NumericalPredicate,
    QueryExecutor,
    SPJQuery,
)


@pytest.fixture(scope="module")
def students_setup():
    from repro.datasets import scholarship_query, students_database

    database = students_database()
    query = scholarship_query()
    executor = QueryExecutor(database)
    return {
        "database": database,
        "query": query,
        "annotated": annotate(query, database),
        "original": executor.evaluate(query),
    }


def _build(students_setup, constraints, epsilon=0.0, distance="pred", options=None):
    return build_model(
        query=students_setup["query"],
        annotated=students_setup["annotated"],
        constraints=constraints,
        epsilon=epsilon,
        distance=get_distance(distance),
        original_result=students_setup["original"],
        options=options or BuilderOptions.none(),
    )


class TestModelConstruction:
    def test_variable_counts_for_running_example(self, students_setup, scholarship_constraints):
        artifacts = _build(students_setup, scholarship_constraints)
        statistics = artifacts.statistics
        assert statistics["annotated_tuples"] == 14
        assert statistics["lineage_classes"] == 10
        # One A_v per activity value (5), one A_{v,>=} per distinct GPA (6),
        # one r_t per tuple (14) plus auxiliary objective/denominator binaries.
        assert statistics["binary_variables"] >= 5 + 6 + 14
        assert statistics["constraints"] > statistics["annotated_tuples"]

    def test_epsilon_must_be_nonnegative(self, students_setup, scholarship_constraints):
        with pytest.raises(RefinementError):
            MILPBuilder(
                query=students_setup["query"],
                annotated=students_setup["annotated"],
                constraints=scholarship_constraints,
                epsilon=-0.1,
                distance=get_distance("pred"),
                original_result=students_setup["original"],
            )

    def test_equality_numerical_predicate_is_rejected(self, students_setup, scholarship_constraints):
        query = SPJQuery(
            tables=["Students"],
            where=Conjunction([NumericalPredicate("GPA", "=", 3.7)]),
            order_by="SAT",
        )
        with pytest.raises(RefinementError):
            MILPBuilder(
                query=query,
                annotated=students_setup["annotated"],
                constraints=scholarship_constraints,
                epsilon=0.0,
                distance=get_distance("pred"),
                original_result=students_setup["original"],
            )

    def test_solution_extracts_to_example_12_refinement(
        self, students_setup, scholarship_constraints
    ):
        """The optimal DIS_pred refinement adds SO to the Activity predicate."""
        artifacts = _build(students_setup, scholarship_constraints)
        solution = artifacts.model.solve()
        assert solution.is_optimal
        assert solution.objective_value == pytest.approx(0.5, abs=1e-6)
        refinement = artifacts.extract_refinement(solution)
        assert refinement.categorical["Activity"] == frozenset({"RB", "SO"})
        assert refinement.numerical[("GPA", next(iter(refinement.numerical))[1])] == pytest.approx(3.7)

    def test_infeasible_when_constraints_unreachable(self, students_setup):
        """No refinement can put 7 women in the top-6."""
        constraints = ConstraintSet([at_least(6, 6, Gender="M"), at_least(6, 6, Gender="F")])
        artifacts = _build(students_setup, constraints, epsilon=0.0)
        solution = artifacts.model.solve()
        assert not solution.is_feasible

    def test_outcome_distance_requests_topk_variables(self, students_setup, scholarship_constraints):
        predicate_artifacts = _build(students_setup, scholarship_constraints, distance="pred")
        kendall_artifacts = _build(students_setup, scholarship_constraints, distance="kendall")
        assert (
            kendall_artifacts.statistics["topk_variables"]
            > predicate_artifacts.statistics["topk_variables"]
        )


class TestOptimizations:
    def test_relevancy_pruning_reduces_tuples(self):
        database = law_students_database(num_rows=2000, seed=11)
        query = law_students_query()
        annotated = annotate(query, database)
        pruned = apply_relevancy_pruning(annotated, k_star=10)
        assert len(pruned) < len(annotated)
        assert pruned.categorical_domains == annotated.categorical_domains
        for positions in pruned.lineage_classes.values():
            assert len(positions) <= 10

    def test_relevancy_pruning_keeps_requested_positions(self, students_setup):
        annotated = students_setup["annotated"]
        last_position = annotated.tuples[-1].position
        pruned = apply_relevancy_pruning(annotated, k_star=1, keep_positions=[last_position])
        assert last_position in {t.position for t in pruned.tuples}

    def test_relevancy_pruning_keeps_distinct_duplicates(self, students_setup):
        """If a kept tuple has higher-ranked duplicates, those are kept too."""
        annotated = students_setup["annotated"]
        pruned = apply_relevancy_pruning(annotated, k_star=6)
        kept = {t.position for t in pruned.tuples}
        for position in kept:
            for duplicate in annotated.duplicates_before(position):
                assert duplicate in kept

    def test_classify_bound_types(self, students_setup):
        constraints = ConstraintSet(
            [at_least(3, 6, Gender="F"), at_most(1, 3, Income="High")]
        )
        classification = classify_bound_types(students_setup["annotated"], constraints)
        t8 = next(t for t in students_setup["annotated"].tuples if t.values["ID"] == "t8")
        t7 = next(t for t in students_setup["annotated"].tuples if t.values["ID"] == "t7")
        # t8 is a high-income woman: both bound types; t7 is a low-income man: neither.
        assert classification[t8.position] == {BoundType.LOWER, BoundType.UPPER}
        assert classification[t7.position] == set()

    def test_merged_lineage_variables_shrink_model_for_nondistinct_query(self):
        database = law_students_database(num_rows=1500, seed=11)
        query = law_students_query()
        executor = QueryExecutor(database)
        annotated = annotate(query, database)
        constraints = ConstraintSet([at_least(5, 10, Sex="F")])
        unmerged = build_model(
            query, annotated, constraints, 0.5, get_distance("pred"),
            executor.evaluate(query), BuilderOptions(relevancy_pruning=False, merge_lineage_variables=False, relax_rank_expressions=False),
        )
        merged = build_model(
            query, annotated, constraints, 0.5, get_distance("pred"),
            executor.evaluate(query), BuilderOptions(relevancy_pruning=False, merge_lineage_variables=True, relax_rank_expressions=False),
        )
        assert merged.statistics["binary_variables"] < unmerged.statistics["binary_variables"]

    def test_merging_is_skipped_for_distinct_queries(self, students_setup, scholarship_constraints):
        merged = _build(
            students_setup, scholarship_constraints,
            options=BuilderOptions(relevancy_pruning=False, merge_lineage_variables=True, relax_rank_expressions=False),
        )
        unmerged = _build(students_setup, scholarship_constraints, options=BuilderOptions.none())
        # The scholarship query is DISTINCT, so merging must not change the model size.
        assert merged.statistics["binary_variables"] == unmerged.statistics["binary_variables"]

    def test_all_option_combinations_reach_the_same_optimum(self, students_setup, scholarship_constraints):
        """The optimizations must not change the optimal objective value."""
        objectives = []
        for pruning in (False, True):
            for merging in (False, True):
                for relaxing in (False, True):
                    options = BuilderOptions(
                        relevancy_pruning=False,  # pruning is applied by the solver, not the builder
                        merge_lineage_variables=merging,
                        relax_rank_expressions=relaxing,
                    )
                    annotated = students_setup["annotated"]
                    if pruning:
                        annotated = apply_relevancy_pruning(annotated, scholarship_constraints.k_star)
                    artifacts = build_model(
                        students_setup["query"],
                        annotated,
                        scholarship_constraints,
                        0.0,
                        get_distance("pred"),
                        students_setup["original"],
                        options,
                    )
                    solution = artifacts.model.solve()
                    assert solution.is_optimal
                    objectives.append(solution.objective_value)
        assert max(objectives) - min(objectives) < 1e-6


class TestAbsentCategoricalValues:
    """An original predicate value that no tuple of ``~Q(D)`` carries.

    On this synthesized TPC-H copy no tuple has ``Region='ASIA'``, the
    query's only value.  Keeping it selects nothing and halves the predicate
    distance, so every engine must answer ``Region IN ('AFRICA','ASIA')`` at
    distance 0.5, as the exhaustive search does.
    """

    @pytest.fixture(scope="class")
    def instance(self):
        from repro.datasets import load_dataset, scale_database

        bundle = load_dataset("tpch", scale_factor=0.005)
        database = scale_database(bundle.database, 1.0, seed=1)
        constraints = ConstraintSet([at_least(1, 3, MktSegment="AUTOMOBILE")])
        return database, bundle.query, constraints

    def test_no_tuple_carries_the_original_value(self, instance):
        database, query, _ = instance
        relation = QueryExecutor(database).evaluate_unfiltered(query).relation
        assert relation.domain("Region") == ["AFRICA"]

    @pytest.mark.parametrize("method", ["milp", "milp+opt"])
    def test_milp_keeps_the_absent_value(self, instance, method):
        from repro.core import RefinementSolver

        database, query, constraints = instance
        result = RefinementSolver(
            database, query, constraints, epsilon=0.0, distance="pred", method=method
        ).solve()
        assert result.feasible
        assert result.refinement.categorical["Region"] == {"AFRICA", "ASIA"}
        assert result.objective_value == pytest.approx(0.5)
        assert result.distance_value == pytest.approx(0.5)

    def test_erica_keeps_the_absent_value(self, instance):
        from repro.core import EricaBaseline

        database, query, constraints = instance
        size = len(QueryExecutor(database).evaluate_unfiltered(query))
        result = EricaBaseline(database, query, constraints, output_size=size).solve()
        assert result.feasible
        assert result.best.refinement.categorical["Region"] == {"AFRICA", "ASIA"}
        assert result.best.distance_value == pytest.approx(0.5)
