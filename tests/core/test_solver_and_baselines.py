"""Tests for the RefinementSolver facade, the exhaustive baselines and Erica."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ConstraintSet,
    EricaBaseline,
    NaiveProvenanceSearch,
    NaiveSearch,
    RefinementProblem,
    RefinementSolver,
    at_least,
)
from repro.core.solver import solve_refinement
from repro.datasets import load_dataset
from repro.exceptions import NoRefinementError, RefinementError
from repro.relational import QueryExecutor


class TestRefinementSolver:
    @pytest.mark.parametrize("method", ["milp", "milp+opt"])
    def test_paper_example_12_is_the_predicate_optimum(
        self, students_db, scholarship, scholarship_constraints, method
    ):
        solver = RefinementSolver(
            students_db, scholarship, scholarship_constraints,
            epsilon=0.0, distance="pred", method=method,
        )
        result = solver.solve()
        assert result.feasible
        assert result.distance_value == pytest.approx(0.5, abs=1e-6)
        assert result.deviation == pytest.approx(0.0)
        assert result.refinement.categorical["Activity"] == frozenset({"RB", "SO"})
        top6 = [row[0] for row in result.refined_result.projected.rows[:6]]
        assert top6 == ["t1", "t2", "t4", "t6", "t7", "t8"]  # Example 1.2

    def test_result_reports_timings_and_model_statistics(
        self, students_db, scholarship, scholarship_constraints
    ):
        result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0
        ).solve()
        assert result.setup_seconds > 0
        assert result.total_seconds >= result.solve_seconds
        assert result.model_statistics["annotated_tuples"] > 0
        assert "variables" in result.model_statistics

    def test_sql_rendering_of_refined_query(self, students_db, scholarship, scholarship_constraints):
        result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0
        ).solve()
        assert "SELECT DISTINCT" in result.sql
        assert "'SO'" in result.sql

    def test_constraint_counts_satisfy_bounds(self, students_db, scholarship, scholarship_constraints):
        result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0
        ).solve()
        counts = result.constraint_counts
        assert counts["l[Gender=F,k=6]=3"] >= 3
        assert counts["u[Income=High,k=3]=1"] <= 1

    @pytest.mark.parametrize("distance", ["jaccard", "kendall"])
    def test_outcome_distances_satisfy_constraints_exactly(
        self, students_db, scholarship, scholarship_constraints, distance
    ):
        result = RefinementSolver(
            students_db, scholarship, scholarship_constraints,
            epsilon=0.0, distance=distance,
        ).solve()
        assert result.feasible
        assert result.deviation == pytest.approx(0.0)

    def test_jaccard_optimum_keeps_more_of_the_original_output_than_pred(
        self, students_db, scholarship, scholarship_constraints
    ):
        """Example 1.3's insight: outcome-based minimality can prefer a different refinement."""
        executor = QueryExecutor(students_db)
        original = executor.evaluate(scholarship)
        from repro.core import JaccardDistance

        jaccard = JaccardDistance()
        pred_result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="pred"
        ).solve()
        jac_result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="jaccard"
        ).solve()
        pred_overlap = jaccard.evaluate(
            scholarship, pred_result.refined_query, original, pred_result.refined_result, 6
        )
        jac_overlap = jaccard.evaluate(
            scholarship, jac_result.refined_query, original, jac_result.refined_result, 6
        )
        assert jac_overlap <= pred_overlap + 1e-9

    def test_epsilon_relaxes_the_problem(self, students_db, scholarship):
        """With a large epsilon the original query itself is acceptable (distance 0)."""
        constraints = ConstraintSet([at_least(3, 6, Gender="F")])
        result = RefinementSolver(
            students_db, scholarship, constraints, epsilon=1.0, distance="pred"
        ).solve()
        assert result.feasible
        assert result.distance_value == pytest.approx(0.0)
        assert result.refinement.is_identity(scholarship)

    def test_infeasible_instance_reports_infeasible(self, students_db, scholarship):
        constraints = ConstraintSet(
            [at_least(6, 6, Gender="M"), at_least(6, 6, Gender="F")]
        )
        solver = RefinementSolver(students_db, scholarship, constraints, epsilon=0.0)
        result = solver.solve()
        assert not result.feasible
        assert result.refinement is None and result.sql is None
        with pytest.raises(NoRefinementError):
            solver.solve(raise_on_infeasible=True)

    def test_unknown_method_rejected(self, students_db, scholarship, scholarship_constraints):
        with pytest.raises(RefinementError):
            RefinementSolver(
                students_db, scholarship, scholarship_constraints, method="genetic"
            )

    def test_branch_and_bound_backend_agrees_with_highs(
        self, students_db, scholarship, scholarship_constraints
    ):
        highs = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, backend="scipy"
        ).solve()
        bnb = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0,
            backend="branch_and_bound",
        ).solve()
        assert highs.feasible and bnb.feasible
        assert highs.distance_value == pytest.approx(bnb.distance_value, abs=1e-6)

    def test_solve_refinement_convenience_wrapper(self, students_db, scholarship, scholarship_constraints):
        result = solve_refinement(students_db, scholarship, scholarship_constraints, epsilon=0.0)
        assert result.feasible

    def test_summary_strings(self, students_db, scholarship, scholarship_constraints):
        result = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0
        ).solve()
        assert "distance" in result.summary()
        infeasible = RefinementSolver(
            students_db, scholarship,
            ConstraintSet([at_least(6, 6, Gender="M"), at_least(6, 6, Gender="F")]),
            epsilon=0.0,
        ).solve()
        assert "no refinement" in infeasible.summary()


class TestRefinementProblem:
    def test_problem_bundles_and_describes(self, students_db, scholarship, scholarship_constraints):
        problem = RefinementProblem(students_db, scholarship, scholarship_constraints, epsilon=0.25)
        assert problem.k_star == 6
        description = problem.describe()
        assert "QD" in description and "eps=0.25" in description


class TestNaiveBaselines:
    def test_naive_agrees_with_milp_optimum(self, students_db, scholarship, scholarship_constraints):
        milp = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="pred"
        ).solve()
        naive = NaiveSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="pred"
        ).search()
        assert naive.feasible and naive.exhausted
        assert naive.distance_value == pytest.approx(milp.distance_value, abs=1e-6)

    def test_naive_prov_matches_naive(self, students_db, scholarship, scholarship_constraints):
        naive = NaiveSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="pred"
        ).search()
        prov = NaiveProvenanceSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance="pred"
        ).search()
        assert prov.feasible
        assert prov.distance_value == pytest.approx(naive.distance_value, abs=1e-6)
        assert prov.candidates_examined == naive.candidates_examined

    @pytest.mark.parametrize("distance", ["jaccard", "kendall"])
    def test_naive_prov_matches_milp_for_outcome_distances(
        self, students_db, scholarship, scholarship_constraints, distance
    ):
        milp = RefinementSolver(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance=distance
        ).solve()
        prov = NaiveProvenanceSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, distance=distance
        ).search()
        assert prov.feasible and milp.feasible
        assert milp.distance_value <= prov.distance_value + 1e-6

    def test_naive_reports_infeasible_when_no_candidate_fits(self, students_db, scholarship):
        constraints = ConstraintSet(
            [at_least(6, 6, Gender="M"), at_least(6, 6, Gender="F")]
        )
        result = NaiveSearch(students_db, scholarship, constraints, epsilon=0.0).search()
        assert not result.feasible and result.exhausted

    def test_naive_respects_candidate_cap(self, students_db, scholarship, scholarship_constraints):
        result = NaiveSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0,
            max_candidates=5,
        ).search()
        assert result.candidates_examined == 5
        assert not result.exhausted

    @pytest.mark.parametrize("search_class", [NaiveSearch, NaiveProvenanceSearch])
    def test_zero_candidate_budget_examines_nothing(
        self, students_db, scholarship, scholarship_constraints, search_class
    ):
        """In process, a budget of 0 candidates is allowed (it prepares the
        search and stops); only the wire requires at least 1."""
        result = search_class(
            students_db, scholarship, scholarship_constraints, epsilon=0.0,
            max_candidates=0,
        ).search()
        assert result.candidates_examined == 0
        assert not result.feasible and not result.exhausted and not result.timed_out

    def test_naive_respects_timeout(self, students_db, scholarship, scholarship_constraints):
        result = NaiveSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0, timeout=0.0
        ).search()
        assert result.timed_out and not result.exhausted

    def test_space_size_is_reported(self, students_db, scholarship, scholarship_constraints):
        result = NaiveProvenanceSearch(
            students_db, scholarship, scholarship_constraints, epsilon=0.0
        ).search()
        assert result.space_size == result.candidates_examined  # fully enumerated here

    @pytest.mark.parametrize("search_class", [NaiveSearch, NaiveProvenanceSearch])
    def test_astronomical_space_times_out(self, search_class):
        """The astronauts space (~2^100 candidates at 120 rows) cannot be
        exhausted: the search stops at its timeout and says so."""
        bundle = load_dataset("astronauts", num_rows=120)
        constraints = ConstraintSet([at_least(2, 10, Gender="F")])
        result = search_class(
            bundle.database, bundle.query, constraints, timeout=0.5
        ).search()
        assert result.timed_out
        assert not result.exhausted


class TestEricaBaseline:
    def test_erica_finds_exact_satisfying_refinement(self, students_db, scholarship):
        constraints = ConstraintSet([at_least(3, 100, Gender="F")])
        result = EricaBaseline(students_db, scholarship, constraints).solve()
        assert result.feasible
        best = result.best
        executor = QueryExecutor(students_db)
        refined = executor.evaluate(best.refined_query)
        women = sum(1 for row in refined.relation.iter_dicts() if row["Gender"] == "F")
        assert women >= 3

    def test_erica_output_size_restriction(self, students_db, scholarship):
        constraints = ConstraintSet([at_least(3, 100, Gender="F")])
        result = EricaBaseline(students_db, scholarship, constraints, output_size=6).solve()
        if result.feasible:
            assert result.best.output_size == 6

    def test_erica_enumerates_multiple_solutions_in_distance_order(self, students_db, scholarship):
        constraints = ConstraintSet([at_least(3, 100, Gender="F")])
        result = EricaBaseline(students_db, scholarship, constraints).solve(num_solutions=3)
        assert len(result.refinements) >= 2
        distances = [r.distance_value for r in result.refinements]
        assert distances == sorted(distances)

    def test_erica_solutions_are_distinct(self, students_db, scholarship):
        constraints = ConstraintSet([at_least(3, 100, Gender="F")])
        result = EricaBaseline(students_db, scholarship, constraints).solve(num_solutions=3)
        signatures = {
            (
                tuple(sorted(r.refinement.categorical.get("Activity", frozenset()))),
                tuple(sorted(r.refinement.numerical.items())),
            )
            for r in result.refinements
        }
        assert len(signatures) == len(result.refinements)

    def test_erica_num_solutions_must_be_positive(self, students_db, scholarship):
        constraints = ConstraintSet([at_least(3, 100, Gender="F")])
        with pytest.raises(RefinementError):
            EricaBaseline(students_db, scholarship, constraints).solve(num_solutions=0)


@settings(deadline=None, max_examples=8)
@given(
    lower=st.integers(min_value=1, max_value=3),
    k=st.sampled_from([3, 4, 5, 6]),
    epsilon=st.sampled_from([0.0, 0.25, 0.5]),
)
def test_property_milp_optimum_never_worse_than_naive(lower, k, epsilon):
    """Property: on the running example the MILP matches the exhaustive optimum."""
    from repro.datasets import scholarship_query, students_database

    database = students_database()
    query = scholarship_query()
    constraints = ConstraintSet([at_least(lower, k, Gender="F")])
    milp = RefinementSolver(
        database, query, constraints, epsilon=epsilon, distance="pred"
    ).solve()
    naive = NaiveProvenanceSearch(
        database, query, constraints, epsilon=epsilon, distance="pred"
    ).search()
    assert milp.feasible == naive.feasible
    if milp.feasible:
        assert milp.distance_value == pytest.approx(naive.distance_value, abs=1e-6)
        assert milp.deviation <= epsilon + 1e-9
