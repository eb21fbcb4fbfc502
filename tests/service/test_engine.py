"""Tests for the engine facade: request/response wire forms and parity."""

from __future__ import annotations

import json
from collections import Counter

import pytest

import repro.service.engine as engine_module
from repro.cli import main
from repro.core import (
    ConstraintSet,
    NaiveSearch,
    RefinementSolver,
    at_least,
    at_most,
    lazy_generation,
)
from repro.core.milp_builder import MILPBuilder
from repro.datasets import load_dataset
from repro.exceptions import ConstraintError, RefinementError
from repro.milp.solution import Solution, SolveStatus
from repro.milp.solvers import ScipySolver
from repro.relational.sqlgen import render_sql
from repro.service import (
    ConstraintSpec,
    RefinementEngine,
    RefineRequest,
    RefineResponse,
)

CONSTRAINTS = (
    ConstraintSpec("at_least", 3, 6, (("Gender", "F"),)),
    ConstraintSpec("at_most", 1, 3, (("Income", "High"),)),
)


def students_request(**overrides) -> RefineRequest:
    defaults = dict(dataset="students", constraints=CONSTRAINTS, epsilon=0.0)
    defaults.update(overrides)
    return RefineRequest(**defaults)


class TestConstraintSpec:
    def test_round_trip(self):
        spec = ConstraintSpec("at_most", 1, 3, (("Income", "High"), ("Gender", "M")))
        assert ConstraintSpec.from_dict(spec.to_dict()) == spec

    def test_group_is_sorted(self):
        forward = ConstraintSpec("at_least", 3, 6, (("B", "2"), ("A", "1")))
        backward = ConstraintSpec("at_least", 3, 6, (("A", "1"), ("B", "2")))
        assert forward == backward

    def test_constraint_round_trip(self):
        for builder, kind in ((at_least, "at_least"), (at_most, "at_most")):
            constraint = builder(3, 6, Gender="F")
            spec = ConstraintSpec.from_constraint(constraint)
            assert spec.kind == kind
            rebuilt = spec.to_constraint()
            assert rebuilt.bound == constraint.bound
            assert rebuilt.k == constraint.k
            assert rebuilt.bound_type is constraint.bound_type
            assert rebuilt.group.conditions == constraint.group.conditions

    def test_rejects_unknown_kind_and_empty_group(self):
        with pytest.raises(RefinementError):
            ConstraintSpec("between", 1, 3, (("A", "1"),))
        with pytest.raises(RefinementError):
            ConstraintSpec("at_least", 1, 3, ())


class TestRefineRequest:
    def test_round_trip(self):
        request = students_request(
            dataset_parameters=(("num_rows", 120),),
            distance="jaccard",
            method="naive",
            time_limit=5.0,
            max_candidates=100,
        )
        assert RefineRequest.from_dict(request.to_dict()) == request
        assert RefineRequest.from_dict(json.loads(request.to_json())) == request

    def test_cache_key_ignores_parameter_order(self):
        one = students_request(dataset_parameters=(("num_rows", 10), ("seed", 3)))
        two = students_request(dataset_parameters=(("seed", 3), ("num_rows", 10)))
        assert one.cache_key() == two.cache_key()

    def test_missing_fields(self):
        with pytest.raises(RefinementError, match="dataset"):
            RefineRequest.from_dict({"constraints": []})
        with pytest.raises(RefinementError, match="constraints"):
            RefineRequest.from_dict({"dataset": "students"})

    @pytest.mark.parametrize(
        "overrides, match",
        [
            (dict(dataset="nope"), "unknown dataset"),
            (dict(method="simplex"), "unknown method"),
            (dict(constraints=()), "at least one constraint"),
            (dict(dataset_parameters=(("size", 3),)), "unknown dataset parameter"),
            (dict(method="erica", distance="jaccard"), "predicate distance"),
            (dict(num_solutions=0), "num_solutions"),
            (dict(method="naive+prov", epsilon=-1.0), "epsilon"),
            (dict(method="naive+prov", epsilon=float("nan")), "epsilon"),
            (dict(epsilon=float("inf")), "epsilon"),
            (dict(deadline_s=float("nan")), "deadline_s"),
            (dict(method="portfolio", deadline_s=float("inf")), "deadline_s"),
            (dict(method="portfolio", deadline_s=1e300), "deadline_s"),
            (dict(method="naive+prov", max_candidates=-5), "max_candidates"),
            (dict(method="naive", max_candidates=0), "max_candidates"),
            (dict(method="milp", time_limit=float("nan")), "time_limit"),
            (dict(method="milp", time_limit=float("inf")), "time_limit"),
            (dict(method="milp", time_limit=0.0), "time_limit"),
            (dict(method="naive", time_limit=-1.0), "time_limit"),
            (dict(method="erica", output_size=0), "output_size"),
            (dict(method="erica", output_size=-2), "output_size"),
        ],
    )
    def test_validation(self, overrides, match):
        with pytest.raises(RefinementError, match=match):
            students_request(**overrides).validate()


class TestEngineParity:
    """The facade must answer exactly like direct solver construction."""

    @pytest.fixture(scope="class")
    def engine(self):
        return RefinementEngine()

    @pytest.fixture(scope="class")
    def bundle(self):
        return load_dataset("students")

    @pytest.fixture(scope="class")
    def constraint_set(self):
        return ConstraintSet(spec.to_constraint() for spec in CONSTRAINTS)

    @pytest.mark.parametrize("method", ["milp", "milp+opt"])
    def test_milp_matches_direct_solver(self, engine, bundle, constraint_set, method):
        response = engine.refine(students_request(method=method))
        direct = RefinementSolver(
            bundle.database, bundle.query, constraint_set, epsilon=0.0, method=method
        ).solve()
        assert response.feasible == direct.feasible
        assert response.distance_value == direct.distance_value
        assert response.deviation == direct.deviation
        assert response.refinement == direct.refinement.describe(bundle.query)
        assert response.refined_sql == direct.sql
        assert response.constraint_counts == direct.constraint_counts
        assert response.statistics == direct.model_statistics

    def test_naive_matches_direct_search(self, engine, bundle, constraint_set):
        response = engine.refine(students_request(method="naive"))
        direct = NaiveSearch(bundle.database, bundle.query, constraint_set, epsilon=0.0).search()
        assert response.feasible == direct.feasible
        assert response.distance_value == direct.distance_value
        assert response.statistics["candidates_examined"] == direct.candidates_examined
        assert response.statistics["space_size"] == direct.space_size

    def test_warm_engine_answers_like_cold(self, engine):
        request = students_request(method="naive+prov")
        warm = engine.refine(request)
        cold = RefinementEngine().refine(request)
        assert warm.canonical_json() == cold.canonical_json()

    def test_repeat_request_is_byte_identical(self, engine):
        request = students_request()
        first = engine.refine(request)
        second = engine.refine(request)
        assert first.canonical_json() == second.canonical_json()

    def test_erica_lists_refinements(self, engine):
        response = engine.refine(
            students_request(
                constraints=CONSTRAINTS[:1], method="erica", epsilon=0.5,
                num_solutions=2,
            )
        )
        assert response.engine == "erica"
        assert response.feasible
        assert len(response.refinements) == 2
        assert response.refinement == response.refinements[0]["refinement"]

    def test_response_round_trip(self, engine):
        response = engine.refine(students_request())
        rebuilt = RefineResponse.from_dict(json.loads(response.to_json()))
        assert rebuilt.canonical_json() == response.canonical_json()
        assert rebuilt.timings == response.timings


class TestMilpTimeout:
    """A MILP solve that hits its time limit before any incumbent proves
    nothing: the answer is ``timeout``, not ``infeasible``."""

    @pytest.fixture
    def timed_out_backend(self, monkeypatch):
        def solve(self, model, time_limit=None, **hints):
            return Solution(status=SolveStatus.TIME_LIMIT, solver_name="stub")

        monkeypatch.setattr(ScipySolver, "solve", solve)

    @pytest.mark.parametrize("method", ["milp", "milp+opt"])
    def test_status_is_timeout(self, timed_out_backend, method):
        response = RefinementEngine().refine(
            students_request(method=method, backend="scipy")
        )
        assert response.status == "timeout"
        assert response.feasible is False

    def test_cli_prints_the_time_limit_note(self, timed_out_backend, capsys):
        code = main(
            [
                "refine", "--dataset", "students", "--at-least", "3@6:Gender=F",
                "--epsilon", "0", "--backend", "scipy",
            ]
        )
        assert code == 1
        output = capsys.readouterr().out
        assert "time limit" in output
        assert "No refinement" not in output


class TestCliJson:
    def test_json_flag_matches_engine_serialization(self, capsys):
        code = main(
            [
                "refine", "--dataset", "students",
                "--at-least", "3@6:Gender=F", "--at-most", "1@3:Income=High",
                "--epsilon", "0", "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        engine_response = RefinementEngine().refine(students_request())
        assert (
            RefineResponse.from_dict(payload).canonical_json()
            == engine_response.canonical_json()
        )

    def test_json_flag_infeasible_exit_code(self, capsys):
        code = main(
            [
                "refine", "--dataset", "students",
                "--at-least", "6@6:Gender=F", "--at-least", "6@6:Gender=M",
                "--epsilon", "0", "--json",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False


#: One constraint the students query already meets within the default
#: epsilon of 0.5: two of its top six are female (deviation 1/3).
FITTING = (ConstraintSpec("at_least", 3, 6, (("Gender", "F"),)),)

#: Canonical answers to the running example at epsilon 0, which needs a
#: refinement: the MILP's answers, which the as-is rule must leave byte for
#: byte as they are.
SOLVED_ANSWERS = {
    ("milp", "kendall"): {
        "distance_code": "KEN",
        "distance_value": 5.0,
        "activity": "MO",
        "statistics": {"binary_variables": 43, "constraints": 143,
                       "topk_variables": 19, "variables": 85},
    },
    ("milp+opt", "jaccard"): {
        "distance_code": "JAC",
        "distance_value": 0.2857142857142857,
        "activity": "GD",
        "statistics": {"binary_variables": 42, "constraints": 104,
                       "topk_variables": 18, "variables": 71},
    },
}


def solved_answer_json(method: str, distance: str) -> str:
    answer = SOLVED_ANSWERS[method, distance]
    activity = answer["activity"]
    return json.dumps(
        {
            "constraint_counts": {"l[Gender=F,k=6]=3": 3, "u[Income=High,k=3]=1": 1},
            "deviation": 0.0,
            "distance_code": answer["distance_code"],
            "distance_value": answer["distance_value"],
            "engine": "milp",
            "feasible": True,
            "method": method,
            "objective_value": 1.0,
            "refined_sql": (
                'SELECT DISTINCT "ID", "Gender", "Income"\n'
                'FROM "Students" NATURAL JOIN "Activities"\n'
                f'WHERE "GPA" >= 3.6 AND ("Activity" = \'{activity}\' OR "Activity" = \'RB\')\n'
                'ORDER BY "SAT" DESC'
            ),
            "refinement": f"GPA >= 3.7 -> 3.6; Activity: +{{{activity}}}",
            "refinements": [],
            "request": students_request(method=method, distance=distance).to_dict(),
            "statistics": {
                "annotated_tuples": 14,
                "full_lowerings": 1,
                "lineage_classes": 10,
                **answer["statistics"],
            },
            "status": "ok",
        },
        sort_keys=True,
    )


@pytest.fixture
def solve_calls(monkeypatch):
    """Counts MILP builds and HiGHS solves (the real ones still run)."""
    calls: Counter = Counter()
    real_build, real_solve = MILPBuilder.build, ScipySolver.solve

    def build(self, *args, **kwargs):
        calls["build"] += 1
        return real_build(self, *args, **kwargs)

    def solve(self, *args, **kwargs):
        calls["solve"] += 1
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(MILPBuilder, "build", build)
    monkeypatch.setattr(ScipySolver, "solve", solve)
    return calls


class TestAsIsAnswer:
    """A query whose result already fits is the proven MILP answer, unsolved."""

    @pytest.fixture
    def nothing_solves(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an as-is answer builds and solves nothing")

        monkeypatch.setattr(MILPBuilder, "build", refuse)
        monkeypatch.setattr(ScipySolver, "solve", refuse)

    @pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
    @pytest.mark.parametrize("method", ["milp", "milp+opt"])
    def test_fitting_query_is_answered_unchanged(self, nothing_solves, method, distance):
        engine = RefinementEngine()
        response = engine.refine(
            RefineRequest(
                dataset="students", constraints=FITTING, method=method, distance=distance
            )
        )
        assert response.status == "ok" and response.feasible
        assert response.refinement == "(no change)"
        assert response.refined_sql == render_sql(load_dataset("students").query)
        assert response.distance_value == 0.0
        assert response.deviation == pytest.approx(1 / 3)
        assert response.constraint_counts == {"l[Gender=F,k=6]=3": 2}
        assert response.engine == "milp"
        assert response.objective_value == 0.0
        assert response.statistics == {"original_fits": True}
        assert set(response.timings) == {"setup_seconds", "solve_seconds", "total_seconds"}
        assert response.timings["solve_seconds"] == 0.0
        [session] = engine.sessions.sessions()
        assert session.describe()["prepared_milps"] == 0

    @pytest.mark.parametrize("method, distance", sorted(SOLVED_ANSWERS))
    def test_query_that_does_not_fit_is_solved_as_before(
        self, solve_calls, method, distance
    ):
        response = RefinementEngine().refine(
            students_request(method=method, distance=distance)
        )
        assert solve_calls["build"] == 1 and solve_calls["solve"] >= 1
        assert response.canonical_json() == solved_answer_json(method, distance)

    def test_too_few_rows_is_not_an_answer(self):
        # Q(D) deviates by 0, but returns 27 rows where k* is 30: Q is no
        # refinement within the bound, so the MILP must refine it.
        response = RefinementEngine().refine(
            RefineRequest(
                dataset="astronauts",
                constraints=(ConstraintSpec("at_least", 15, 30, (("Gender", "M"),)),),
            )
        )
        assert "original_fits" not in response.statistics
        assert response.refinement == "Space Walks <= 3 -> 4"
        assert response.distance_value == pytest.approx(1 / 3)
        assert response.deviation == 0.0

    @pytest.mark.parametrize("method", ["naive", "naive+prov", "erica", "portfolio"])
    def test_other_methods_never_answer_as_is(self, method):
        response = RefinementEngine().refine(
            RefineRequest(
                dataset="students",
                constraints=FITTING,
                method=method,
                deadline_s=10.0 if method == "portfolio" else None,
            )
        )
        assert "original_fits" not in response.statistics
        if method == "portfolio":
            # The race ran: its engines are on the record.
            assert response.race["engines"]


class TestConstraintGroups:
    """Once the session is acquired, and before the as-is rule, every group
    attribute is checked against the query's relations: an unknown one is
    refused on every method, while a known attribute with a value no tuple
    carries is a question like any other, answered ``infeasible``."""

    METHODS = ("naive", "naive+prov", "milp", "milp+opt", "erica", "portfolio")

    @staticmethod
    def request(method, constraints, **fields) -> RefineRequest:
        deadline = 10.0 if method == "portfolio" else None
        return students_request(
            method=method, constraints=constraints, deadline_s=deadline, **fields
        )

    @pytest.mark.parametrize("method", METHODS)
    def test_an_unknown_attribute_is_refused_before_the_as_is_rule(
        self, monkeypatch, method
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the groups are checked before the as-is rule")

        monkeypatch.setattr(engine_module, "original_fits", refuse)
        unknown = ConstraintSpec("at_most", 1, 3, (("Nope", "F"),))
        # FITTING alone is answered as it stands at the default epsilon.
        request = self.request(method, FITTING + (unknown,), epsilon=0.5)
        with pytest.raises(ConstraintError, match="Nope"):
            RefinementEngine().refine(request)

    @pytest.mark.parametrize("method", METHODS)
    def test_a_value_no_tuple_carries_is_answered_infeasible(self, method):
        absent = (ConstraintSpec("at_least", 3, 6, (("Gender", "Nope"),)),)
        response = RefinementEngine().refine(self.request(method, absent))
        assert response.status == "infeasible"
        assert not response.feasible


class TestProvenSolveCache:
    """A repeat of a proven MILP answers the first solve's bytes, unsolved."""

    @pytest.mark.parametrize(
        "dataset, parameters, constraints, epsilon, distance, method",
        [
            ("students", (), CONSTRAINTS, 0.0, "pred", "milp"),
            ("students", (), CONSTRAINTS[:1], 0.0, "kendall", "milp+opt"),
            # Proven infeasible.
            (
                "tpch",
                (("scale_factor", 0.05),),
                (ConstraintSpec("at_least", 5, 10, (("OrderPriority", "5-LOW"),)),),
                0.0,
                "pred",
                "milp",
            ),
        ],
        ids=["students-pred-milp", "students-kendall-milp+opt", "tpch-infeasible"],
    )
    def test_repeat_matches_a_fresh_engine_without_solving(
        self, monkeypatch, solve_calls, dataset, parameters, constraints, epsilon,
        distance, method,
    ):
        # Floor 0 pools every rank/top-k row: the first solve runs the cut
        # loop and grows the session's prepared model.
        monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", 0)
        request = RefineRequest(
            dataset=dataset,
            dataset_parameters=parameters,
            constraints=constraints,
            epsilon=epsilon,
            distance=distance,
            method=method,
        )
        engine = RefinementEngine()
        first = engine.refine(request)
        assert first.statistics["cut_rounds"] >= 1
        solves = solve_calls["solve"]
        second = engine.refine(request)
        assert solve_calls["solve"] == solves
        fresh = RefinementEngine().refine(request)
        assert first.canonical_json() == second.canonical_json() == fresh.canonical_json()
