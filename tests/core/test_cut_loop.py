"""Tests for the lazy constraint generation subsystem.

Three layers:

* unit tests of the building blocks — :class:`LazyPool` separation/take
  semantics and validation, :class:`RankCompletion` substitution, and the
  deterministic behaviour of :func:`run_cut_loop` under a scripted backend
  (convergence, group closure, deadline expiry with a typed incumbent);
* golden parity — on every registered dataset, for both MILP methods and all
  three distance measures, the cut loop must attain the same model optimum as
  the eager lowering, without ever re-lowering the grown model from scratch
  (``full_lowerings == 1``);
* the pool-size floor — ``MIN_LAZY_POOL_ROWS``, monkeypatched to force
  either side: under it the one build is exactly the eager model, over it the
  seed plus the pools hold exactly the eager model's rows, and the cut
  statistics surface through ``model_statistics``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.core import ConstraintSet, RefinementSolver, at_least, lazy_generation
from repro.core.deadline import Deadline
from repro.core.lazy_generation import (
    DEFAULT_TOLERANCE,
    LazyPool,
    RankCompletion,
    run_cut_loop,
)
from repro.core.milp_builder import MILPBuilder, build_model
from repro.datasets import load_dataset
from repro.exceptions import ModelError
from repro.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE, Model
from repro.milp.solution import Solution, SolveStatus

# -- LazyPool -------------------------------------------------------------------------


def two_group_pool() -> LazyPool:
    # Group 7: x0 <= 1 and x0 + x1 >= 1.  Group 9: x1 == 0.
    return LazyPool(
        "test",
        rows=[0, 1, 1, 2],
        cols=[0, 0, 1, 1],
        coeffs=[1.0, 1.0, 1.0, 1.0],
        senses=[SENSE_LE, SENSE_GE, SENSE_EQ],
        rhs=[1.0, 1.0, 0.0],
        group_keys=[7, 7, 9],
    )


class TestLazyPool:
    def test_parallel_array_validation(self):
        with pytest.raises(ModelError, match="parallel arrays"):
            LazyPool("bad", [0], [0], [1.0], [SENSE_LE], [1.0, 2.0], [0, 1])
        with pytest.raises(ModelError, match="parallel arrays"):
            LazyPool("bad", [0, 0], [0], [1.0], [SENSE_LE], [1.0], [0])

    def test_separate_reports_violated_groups_only(self):
        pool = two_group_pool()
        # x = (0, 0): row0 0<=1 ok, row1 0>=1 violated (group 7), row2 0==0 ok.
        assert pool.separate(np.array([0.0, 0.0])).tolist() == [7]
        # x = (1, 1): rows 0-1 ok, row2 1==0 violated (group 9).
        assert pool.separate(np.array([1.0, 1.0])).tolist() == [9]
        # x = (1, 0): everything holds.
        assert pool.separate(np.array([1.0, 0.0])).size == 0

    def test_separate_respects_tolerance(self):
        pool = two_group_pool()
        x = np.array([1.0, DEFAULT_TOLERANCE / 2.0])
        assert pool.separate(x).size == 0
        assert pool.separate(np.array([1.0, 1e-3])).tolist() == [9]

    def test_take_marks_rows_not_pending_and_remaps(self):
        pool = two_group_pool()
        assert pool.num_pending == 3
        rows, cols, coeffs, senses, rhs = pool.take(np.array([9]))
        assert rows.tolist() == [0] and cols.tolist() == [1]
        assert senses.tolist() == [SENSE_EQ] and rhs.tolist() == [0.0]
        assert pool.num_pending == 2
        # The taken group never separates again.
        assert pool.separate(np.array([1.0, 1.0])).size == 0
        # Taking an exhausted or unknown group yields nothing.
        assert pool.take(np.array([9])) is None
        assert pool.take(np.array([123])) is None

    def test_take_whole_pool(self):
        pool = two_group_pool()
        block = pool.take(np.array([7, 9]))
        assert block[4].shape[0] == 3
        assert pool.num_pending == 0
        assert pool.separate(np.array([0.0, 1.0])).size == 0


class TestRankCompletion:
    def test_overwrites_rank_columns_with_implied_values(self):
        # rank (col 2) defined by rank = 5 - 2*x0 - x1.
        completion = RankCompletion(
            rank_cols=[2], rows=[0, 0], cols=[0, 1], coeffs=[2.0, 1.0], rhs=[5.0]
        )
        x = np.array([1.0, 1.0, 99.0])
        completed = completion(x)
        assert completed.tolist() == [1.0, 1.0, 2.0]
        # The input vector is left untouched.
        assert x[2] == 99.0


# -- run_cut_loop under a scripted backend --------------------------------------------


def scripted_model(num_variables: int = 2) -> Model:
    model = Model("scripted")
    for index in range(num_variables):
        model.binary_var(f"x{index}")
    return model


def scripted_solution(model: Model, assignment: list[float], status=SolveStatus.OPTIMAL) -> Solution:
    return Solution(
        status=status,
        objective_value=float(sum(assignment)),
        values=dict(zip(model.variables, assignment)),
        solver_name="scripted",
    )


class TestRunCutLoop:
    def test_converges_when_separation_finds_nothing(self):
        model = scripted_model()
        pool = two_group_pool()
        answers = [
            scripted_solution(model, [0.0, 0.0]),  # violates group 7
            scripted_solution(model, [1.0, 0.0]),  # clean
        ]
        calls = []

        def solve(limit, guidance):
            calls.append(dict(guidance))
            return answers[len(calls) - 1]

        outcome = run_cut_loop(model, [pool], solve)
        assert outcome.proven_optimal
        assert outcome.solution.is_optimal
        assert outcome.rounds == 1
        assert outcome.rows_generated == 2  # both rows of group 7
        assert pool.num_pending == 1
        # Second round was warm-started and carried the proven round-1 bound.
        assert calls[1]["known_lower_bound"] == 0.0
        assert calls[1]["warm_start_values"] == answers[0].values

    def test_group_closure_spans_pools(self):
        model = scripted_model()
        first = two_group_pool()
        # A second pool sharing group key 7 whose rows the candidate satisfies.
        second = LazyPool(
            "other", [0], [1], [1.0], [SENSE_LE], [5.0], [7]
        )
        answers = iter(
            [
                scripted_solution(model, [0.0, 0.0]),
                scripted_solution(model, [1.0, 0.0]),
            ]
        )
        outcome = run_cut_loop(model, [first, second], lambda *_: next(answers))
        # Group 7 was pulled from *both* pools even though only the first
        # pool's rows were violated.
        assert outcome.rows_generated == 3
        assert second.num_pending == 0

    def test_expired_deadline_returns_typed_incumbent(self):
        model = scripted_model()
        pool = two_group_pool()

        def solve(limit, guidance):
            return scripted_solution(model, [0.0, 0.0])  # always violates 7

        outcome = run_cut_loop(
            model, [pool], solve, deadline=Deadline.after(0.0), time_limit=None
        )
        # Round one ran (an expired budget still buys one token solve), its
        # violated rows were added, and the loop returned the incumbent typed
        # as a time-limited stop instead of claiming optimality.
        assert not outcome.proven_optimal
        assert outcome.solution.status is SolveStatus.TIME_LIMIT
        assert outcome.solution.values  # incumbent preserved
        assert outcome.rounds == 1
        assert pool.num_pending == 1

    def test_infeasible_relaxation_passes_through(self):
        model = scripted_model()
        pool = two_group_pool()
        infeasible = Solution(
            status=SolveStatus.INFEASIBLE,
            objective_value=None,
            values={},
            solver_name="scripted",
        )
        outcome = run_cut_loop(model, [pool], lambda *_: infeasible)
        assert outcome.solution.status is SolveStatus.INFEASIBLE
        assert not outcome.proven_optimal
        assert outcome.rounds == 0

    def test_escalation_dumps_all_pending_rows(self):
        model = scripted_model()
        pool = two_group_pool()
        answers = iter(
            [
                scripted_solution(model, [0.0, 0.0]),  # violates 7
                scripted_solution(model, [1.0, 1.0]),  # violates 9
                scripted_solution(model, [1.0, 0.0]),  # clean
            ]
        )
        outcome = run_cut_loop(
            model, [pool], lambda *_: next(answers), escalation_rounds=1
        )
        # Round 2 hit the escalation threshold: every pending row entered the
        # model, so the pool drained even though only group 9 was violated.
        assert outcome.rounds == 2
        assert outcome.rows_generated == 3
        assert pool.num_pending == 0
        assert outcome.proven_optimal

    def test_completion_applied_before_separation(self):
        model = scripted_model(3)
        # Pool row: x2 == 1, keyed group 0.
        pool = LazyPool("ranked", [0], [2], [1.0], [SENSE_EQ], [1.0], [0])
        # x2 is determined as 1 - 0*x0; the backend parks it at 0.
        completion = RankCompletion(
            rank_cols=[2], rows=[0], cols=[0], coeffs=[0.0], rhs=[1.0]
        )
        solution = scripted_solution(model, [1.0, 0.0, 0.0])
        outcome = run_cut_loop(
            model, [pool], lambda *_: solution, completion=completion
        )
        # Without completion the arbitrary x2=0 would flood the pool in;
        # with it the row is satisfied exactly and nothing is generated.
        assert outcome.rounds == 0
        assert outcome.rows_generated == 0
        assert outcome.proven_optimal


# -- golden parity against the eager lowering -----------------------------------------

DATASET_PARAMETERS = {
    "students": {},
    "astronauts": {"num_rows": 120},
    "law_students": {"num_rows": 200},
    "meps": {"num_rows": 200},
    "tpch": {"scale_factor": 0.05},
}

DATASET_CONSTRAINTS = {
    "students": [at_least(3, 6, Gender="F")],
    "astronauts": [at_least(4, 10, Gender="F")],
    "law_students": [at_least(4, 10, Sex="F")],
    "meps": [at_least(4, 10, Sex="F")],
    "tpch": [at_least(2, 10, MktSegment="AUTOMOBILE")],
}


#: ``MIN_LAZY_POOL_ROWS`` values that force either side of the floor.
FORCE_LOOP = 0
FORCE_EAGER = 2**62


def set_floor(monkeypatch, rows: int) -> None:
    monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", rows)


@pytest.mark.parametrize("dataset", sorted(DATASET_PARAMETERS))
@pytest.mark.parametrize("method", ["milp", "milp+opt"])
@pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
def test_cut_loop_matches_eager_optimum(monkeypatch, dataset, method, distance):
    bundle = load_dataset(dataset, **DATASET_PARAMETERS[dataset])
    constraints = ConstraintSet(DATASET_CONSTRAINTS[dataset])
    results = {}
    for lazy in (False, True):
        set_floor(monkeypatch, FORCE_LOOP if lazy else FORCE_EAGER)
        solver = RefinementSolver(
            bundle.database,
            bundle.query,
            constraints,
            epsilon=0.5,
            distance=distance,
            method=method,
        )
        results[lazy] = solver.solve()
    eager, cut = results[False], results[True]
    assert cut.feasible == eager.feasible
    # The model optimum must match exactly; the *realized* distance_value may
    # differ between equal-objective optima (tie-breaking), so the objective
    # is the golden quantity.
    assert cut.objective_value == pytest.approx(eager.objective_value, abs=1e-6)
    # The grown model extends the cached CSR; it is never re-lowered.
    assert cut.model_statistics["full_lowerings"] == 1
    assert cut.model_statistics["seed_rows"] > 0
    assert cut.model_statistics["lazy_pool_rows"] >= 0
    if cut.model_statistics["lazy_pool_rows"]:
        assert cut.model_statistics["cut_rounds"] >= 0
        assert cut.model_statistics["rows_generated"] >= 0


# -- the pool-size floor --------------------------------------------------------------


def solver_for(dataset: str, method: str, distance: str) -> RefinementSolver:
    bundle = load_dataset(dataset, **DATASET_PARAMETERS[dataset])
    return RefinementSolver(
        bundle.database,
        bundle.query,
        ConstraintSet(DATASET_CONSTRAINTS[dataset]),
        epsilon=0.5,
        distance=distance,
        method=method,
    )


def eager_artifacts(solver: RefinementSolver, prepared):
    """The full model of a prepared problem, built without the cut loop."""
    return build_model(
        solver.query,
        prepared.artifacts.context.annotated,
        solver.constraints,
        solver.epsilon,
        solver.distance,
        prepared.original_result,
        replace(solver.options, lazy_generation=False),
    )


def row_multisets(form) -> tuple[Counter, Counter]:
    """The <= and == rows of a standard form as multisets of sparse rows."""
    multisets = []
    for matrix, rhs in ((form.a_ub, form.b_ub), (form.a_eq, form.b_eq)):
        matrix = matrix.tocsr()
        matrix.eliminate_zeros()
        rows = Counter()
        for index in range(matrix.shape[0]):
            start, stop = matrix.indptr[index], matrix.indptr[index + 1]
            entries = sorted(
                zip(matrix.indices[start:stop].tolist(), matrix.data[start:stop].tolist())
            )
            rows[(tuple(entries), float(rhs[index]))] += 1
        multisets.append(rows)
    return multisets[0], multisets[1]


def assert_same_standard_form(first, second):
    """Identical variables, costs, bounds, rows and row order."""
    assert [v.name for v in first.variables] == [v.name for v in second.variables]
    for attribute in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
        assert np.array_equal(getattr(first, attribute), getattr(second, attribute)), attribute
    for attribute in ("a_ub", "a_eq"):
        left, right = getattr(first, attribute), getattr(second, attribute)
        assert left.shape == right.shape, attribute
        assert (left != right).nnz == 0, attribute


def test_solver_always_promises_the_cut_loop(students_db, scholarship, scholarship_constraints):
    for method in ("milp", "milp+opt"):
        solver = RefinementSolver(
            students_db, scholarship, scholarship_constraints, method=method
        )
        assert solver.options.lazy_generation is True


@pytest.mark.parametrize("dataset", ["students", "meps", "tpch"])
@pytest.mark.parametrize("method", ["milp", "milp+opt"])
@pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
def test_under_the_floor_prepare_builds_the_eager_model_once(
    monkeypatch, dataset, method, distance
):
    set_floor(monkeypatch, FORCE_EAGER)
    builds = []
    original_build = MILPBuilder.build

    def counting_build(builder):
        builds.append(builder)
        return original_build(builder)

    monkeypatch.setattr(MILPBuilder, "build", counting_build)
    solver = solver_for(dataset, method, distance)
    prepared = solver.prepare()
    assert len(builds) == 1
    assert prepared.artifacts.lazy_pools == []
    assert prepared.artifacts.complete_candidate is None
    assert "seed_rows" not in prepared.artifacts.statistics
    assert_same_standard_form(
        prepared.artifacts.model.to_standard_form(),
        eager_artifacts(solver, prepared).model.to_standard_form(),
    )


@pytest.mark.parametrize(
    "dataset,method,distance,floor",
    [
        # Naturally over the default floor: every tuple needs a rank.
        ("law_students", "milp+opt", "kendall", None),
        ("students", "milp", "pred", FORCE_LOOP),
        ("meps", "milp+opt", "jaccard", FORCE_LOOP),
        ("tpch", "milp", "kendall", FORCE_LOOP),
        ("astronauts", "milp+opt", "pred", FORCE_LOOP),
    ],
)
def test_over_the_floor_seed_and_pools_hold_the_eager_rows(
    monkeypatch, dataset, method, distance, floor
):
    if floor is not None:
        set_floor(monkeypatch, floor)
    solver = solver_for(dataset, method, distance)
    prepared = solver.prepare()
    artifacts = prepared.artifacts
    eager = eager_artifacts(solver, prepared).model
    if floor is None:
        assert artifacts.lazy_pools
    model = artifacts.model
    pending = sum(pool.num_pending for pool in artifacts.lazy_pools)
    assert artifacts.statistics["seed_rows"] == model.num_constraints
    assert model.num_constraints + pending == eager.num_constraints
    # Hand every pending row to the model: the grown model then holds the
    # eager model's rows exactly, in some order.
    for pool in artifacts.lazy_pools:
        block = pool.take(np.unique(pool.group_keys))
        if block is not None:
            model.add_constraint_block(*block)
    grown, full = model.to_standard_form(), eager.to_standard_form()
    assert [v.name for v in grown.variables] == [v.name for v in full.variables]
    assert np.array_equal(grown.c, full.c)
    assert row_multisets(grown) == row_multisets(full)


def test_cut_statistics_surface_in_result(monkeypatch):
    set_floor(monkeypatch, FORCE_LOOP)
    solver = solver_for("law_students", "milp+opt", "kendall")
    result = solver.solve()
    assert result.feasible
    statistics = result.model_statistics
    assert statistics["full_lowerings"] == 1
    assert statistics["seed_rows"] > 0
    assert statistics["lazy_pool_rows"] > 0
    assert statistics["cut_rounds"] >= 0
    assert statistics["rows_generated"] >= 0
