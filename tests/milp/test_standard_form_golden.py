"""Golden tests for the two constraint front doors and the two solver backends.

Constraint rows enter a :class:`~repro.milp.Model` either as COO row blocks
(``add_constraint_block``) or as one ``LinearConstraint`` per row
(``add_constraint``).  Both must lower to identical
``(c, A_ub, b_ub, A_eq, b_eq, bounds, integrality)`` matrices — and the scipy
(HiGHS) and branch-and-bound backends must agree on the optimal objective of
every registered dataset's MILP+OPT model.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ConstraintSet, EricaBaseline, at_least, get_distance
from repro.core.milp_builder import build_model
from repro.core.optimizations import BuilderOptions
from repro.datasets import load_dataset
from repro.milp import Model, linear_sum
from repro.milp.model import SENSE_EQ, SENSE_GE, SENSE_LE
from repro.provenance import annotate
from repro.relational import QueryExecutor

#: Small instances of every registered dataset: the golden property must hold
#: on all of them, and the sizes keep the pure-Python backend fast enough to
#: cross-check objectives.
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


@pytest.fixture(scope="module", params=sorted(DATASET_PARAMETERS))
def instance(request):
    name = request.param
    bundle = load_dataset(name, **DATASET_PARAMETERS[name])
    executor = QueryExecutor(bundle.database)
    return {
        "name": name,
        "bundle": bundle,
        "constraints": ConstraintSet(DATASET_CONSTRAINTS[name]),
        "annotated": annotate(bundle.query, bundle.database),
        "original": executor.evaluate(bundle.query),
    }


def build_form(instance, distance="pred", optimized=True):
    return build_model(
        instance["bundle"].query,
        instance["annotated"],
        instance["constraints"],
        0.5,
        get_distance(distance),
        instance["original"],
        BuilderOptions.all() if optimized else BuilderOptions.none(),
    )


def assert_forms_identical(first, second):
    assert [v.name for v in first.variables] == [v.name for v in second.variables]
    for attribute in ("c", "b_ub", "b_eq", "lower", "upper", "integrality"):
        left = getattr(first, attribute)
        right = getattr(second, attribute)
        assert left.shape == right.shape, attribute
        assert np.array_equal(left, right), attribute
    assert first.objective_constant == second.objective_constant
    assert first.maximize == second.maximize
    for attribute in ("a_ub", "a_eq"):
        left = getattr(first, attribute)
        right = getattr(second, attribute)
        assert left.shape == right.shape, attribute
        assert (left - right).count_nonzero() == 0, attribute


def random_block(rng, num_variables, num_rows):
    """A random COO block with duplicate (row, col) entries, zero
    coefficients and all three senses.

    Every row carries one large entry, so no row degenerates into a
    variable-free constraint (which ``LinearConstraint`` rejects)."""
    nnz = 4 * num_rows
    anchors = np.arange(num_rows)
    rows = np.concatenate([anchors, rng.integers(0, num_rows, size=nnz)])
    cols = np.concatenate(
        [anchors % num_variables, rng.integers(0, num_variables, size=nnz)]
    )
    coeffs = np.concatenate(
        [np.full(num_rows, 10.0), rng.choice([-2.5, -1.0, 0.0, 0.5, 1.0, 3.0], size=nnz)]
    )
    # Repeat a slice of the random entries so some (row, col) pairs sum.
    repeated = slice(num_rows, num_rows + nnz // 4)
    rows = np.concatenate([rows, rows[repeated]])
    cols = np.concatenate([cols, cols[repeated]])
    coeffs = np.concatenate([coeffs, coeffs[repeated]])
    senses = rng.choice([SENSE_LE, SENSE_GE, SENSE_EQ], size=num_rows).astype(np.int8)
    rhs = rng.integers(-5, 6, size=num_rows).astype(np.float64)
    return rows, cols, coeffs, senses, rhs


def model_with_variables(num_variables):
    model = Model("lowering")
    for index in range(num_variables):
        if index % 3 == 0:
            model.continuous_var(f"y{index}", lower=-1.0, upper=4.0)
        else:
            model.binary_var(f"x{index}")
    model.minimize(linear_sum(model.variables))
    return model


@pytest.mark.parametrize("seed", range(5))
def test_block_and_per_row_lowerings_are_matrix_identical(seed):
    rng = np.random.default_rng(seed)
    num_variables = 12
    blocks = [random_block(rng, num_variables, num_rows) for num_rows in (1, 7, 20)]

    by_block = model_with_variables(num_variables)
    by_row = model_with_variables(num_variables)
    variables = by_row.variables
    for rows, cols, coeffs, senses, rhs in blocks:
        by_block.add_constraint_block(rows, cols, coeffs, senses, rhs)
        for row in range(rhs.shape[0]):
            entries = rows == row
            expression = linear_sum(
                float(coeff) * variables[col]
                for col, coeff in zip(cols[entries], coeffs[entries])
            )
            if senses[row] == SENSE_LE:
                by_row.add_constraint(expression <= rhs[row])
            elif senses[row] == SENSE_GE:
                by_row.add_constraint(expression >= rhs[row])
            else:
                by_row.add_constraint(expression == rhs[row])

    assert by_block.num_constraints == by_row.num_constraints
    assert_forms_identical(by_block.to_standard_form(), by_row.to_standard_form())


class TestBackendObjectiveParity:
    #: Instances the pure-Python tree solves cold in a few seconds.  The
    #: categorical-heavy models (astronauts' ~20-value major domain, law
    #: students' region domain at this row count) take minutes without
    #: cutting planes, so there the cross-check warm-starts branch-and-bound
    #: with the scipy incumbent: the fallback backend then *independently*
    #: verifies that solution against its own lowered matrices, recomputes
    #: its objective from its own cost vector, and terminates at the shared
    #: optimum.
    COLD_BNB = {"students", "tpch", "meps"}

    def test_scipy_and_branch_and_bound_agree(self, instance):
        artifacts = build_form(instance)
        scipy_solution = artifacts.model.solve("scipy")
        assert scipy_solution.is_optimal
        if instance["name"] in self.COLD_BNB:
            bnb_solution = artifacts.model.solve("branch_and_bound")
            assert bnb_solution.is_optimal
        else:
            bnb_solution = artifacts.model.solve(
                "branch_and_bound",
                warm_start_values=dict(scipy_solution.values),
                warm_start_tolerance=1e-5,
                known_lower_bound=scipy_solution.objective_value,
            )
            assert bnb_solution.is_feasible
        assert scipy_solution.objective_value == pytest.approx(
            bnb_solution.objective_value, abs=1e-6
        )


class TestIncrementalLowering:
    def test_appending_rows_extends_cached_form(self, instance):
        artifacts = build_form(instance)
        model = artifacts.model
        first = model.to_standard_form()
        assert model.full_lowerings == 1
        # Re-lowering an unchanged model is a cache hit.
        assert model.to_standard_form() is first
        assert model.full_lowerings == 1

        variables = model.variables
        binaries = [v for v in variables if v.is_integral][:3]
        from repro.milp import linear_sum

        model.add_constraint(linear_sum(binaries) <= 2, name="extra")
        extended = model.to_standard_form()
        assert model.full_lowerings == 1
        assert model.incremental_extensions == 1
        assert extended.a_ub.shape[0] == first.a_ub.shape[0] + 1

        # The extension must equal a from-scratch lowering of the same model.
        model.invalidate()
        rebuilt = model.to_standard_form()
        assert model.full_lowerings == 2
        assert_forms_identical(extended, rebuilt)

    def test_erica_enumeration_lowers_once(self, instance):
        if instance["bundle"].query.distinct:
            pytest.skip("Erica aggregation targets non-DISTINCT queries")
        # Pinned to the HiGHS backend: the point here is the lowering
        # counters, and the pure-Python tree needs minutes on the
        # categorical-heavy instances.  The fallback backend's incremental
        # behaviour is covered by the no-good-cut warm-start test.
        baseline = EricaBaseline(
            instance["bundle"].database,
            instance["bundle"].query,
            instance["constraints"],
            output_size=10,
            backend="scipy",
        )
        result = baseline.solve(num_solutions=3)
        assert result.model_statistics["full_lowerings"] == 1
        if len(result.refinements) > 1:
            assert result.model_statistics["incremental_extensions"] >= 1
        distances = [r.distance_value for r in result.refinements]
        assert distances == sorted(distances)
