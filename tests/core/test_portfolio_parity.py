"""Parity oracles for the portfolio racer on every registered dataset.

Two contracts, checked on reduced instances of every registered dataset:

* **Ample deadline**: the race must return the proven optimum — byte-identical
  distance to the best single engine run at the same budget — because the
  MILP member proves optimality and ends the race.
* **Tiny deadline**: the race must return *something sane* — a verified
  feasible incumbent or a typed ``status="deadline"`` result (raised as
  :class:`DeadlineExceeded` only on request) — and must hand control back
  within deadline + 0.5s.  Never a crash, never an unverified answer.
"""

from __future__ import annotations

import time

import pytest

from repro.core import (
    ConstraintSet,
    NaiveProvenanceSearch,
    RefinementSolver,
    at_least,
)
from repro.core.portfolio import EngineSpec, PortfolioSolver
from repro.datasets.registry import DATASET_BUILDERS, load_dataset
from repro.exceptions import DeadlineExceeded

#: Reduced sizes, so every dataset races in seconds rather than minutes.
_SMALL_PARAMETERS = {
    "students": {},
    "astronauts": {"num_rows": 120},
    "law_students": {"num_rows": 400},
    "meps": {"num_rows": 400},
    "tpch": {"scale_factor": 0.05},
}

#: Bounds the astronauts enumeration (~2^100 candidates); the MILP member
#: still proves the optimum, so the parity contract is unaffected.
_CANDIDATE_CAP = 600

_GENEROUS_DEADLINE = 120.0
_TINY_DEADLINE = 0.05


def _bundle(name):
    return load_dataset(name, **_SMALL_PARAMETERS[name])


def _any_constraints(bundle) -> ConstraintSet:
    unfiltered_groups = {
        "students": {"Gender": "F"},
        "astronauts": {"Gender": "F"},
        "law_students": {"Sex": "F"},
        "meps": {"Sex": "F"},
        "tpch": {"MktSegment": "AUTOMOBILE"},
    }
    return ConstraintSet([at_least(2, 10, **unfiltered_groups[bundle.name])])


def _portfolio(bundle, constraints, deadline):
    return PortfolioSolver(
        bundle.database,
        bundle.query,
        constraints,
        epsilon=0.5,
        engines=[
            EngineSpec(method="milp+opt"),
            EngineSpec(method="naive+prov", max_candidates=_CANDIDATE_CAP),
        ],
        deadline=deadline,
    )


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_generous_deadline_matches_the_best_single_engine(name):
    bundle = _bundle(name)
    constraints = _any_constraints(bundle)

    milp = RefinementSolver(
        bundle.database, bundle.query, constraints, epsilon=0.5, method="milp+opt"
    ).solve()
    naive = NaiveProvenanceSearch(
        bundle.database,
        bundle.query,
        constraints,
        epsilon=0.5,
        max_candidates=_CANDIDATE_CAP,
    ).search()

    started = time.monotonic()
    result = _portfolio(bundle, constraints, _GENEROUS_DEADLINE).solve()
    elapsed = time.monotonic() - started

    assert elapsed < _GENEROUS_DEADLINE + 0.5
    assert result.feasible and result.status == "ok"
    assert result.proven_optimal
    # Byte-identical to the proven single-engine optimum.
    assert milp.feasible
    assert result.distance_value == milp.distance_value
    # ... which is also the best answer any racing engine produced alone.
    single_engine_best = min(
        [milp.distance_value]
        + ([naive.distance_value] if naive.feasible else [])
    )
    assert result.distance_value == single_engine_best
    # The verified winner satisfies the constraints.
    assert result.deviation is not None and result.deviation <= 0.5 + 1e-9
    assert result.refined_query is not None


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_tiny_deadline_returns_promptly_and_sanely(name):
    bundle = _bundle(name)
    constraints = _any_constraints(bundle)

    started = time.monotonic()
    result = _portfolio(bundle, constraints, _TINY_DEADLINE).solve()
    elapsed = time.monotonic() - started

    # The SLA: hand back within deadline + 0.5s, whatever the engines did.
    assert elapsed < _TINY_DEADLINE + 0.5
    assert result.status in ("ok", "deadline")
    if result.feasible:
        # Any incumbent that survives is verified: within epsilon, full k*.
        assert result.status == "ok"
        assert result.deviation is not None and result.deviation <= 0.5 + 1e-9
        assert result.distance_value is not None
    else:
        assert result.status == "deadline"
        assert result.winner is None
    # Every engine ends in a typed terminal status, never a crash.
    assert set(result.engine_statuses.values()) <= {
        "solved", "incumbent", "timeout", "error", "cancelled"
    }


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_tiny_deadline_raises_typed_error_only_without_incumbent(name):
    bundle = _bundle(name)
    constraints = _any_constraints(bundle)
    try:
        result = _portfolio(bundle, constraints, _TINY_DEADLINE).solve(
            raise_on_deadline=True
        )
    except DeadlineExceeded:
        return  # the typed outcome for an empty-handed race
    assert result.feasible and result.status == "ok"
