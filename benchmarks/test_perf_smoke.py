"""Performance smoke guards for the ``Naive+prov`` hot path.

Fast assertions (run via ``pytest -m perf_smoke``) that the ``Naive+prov``
exhaustive baseline finishes two reduced Figure 3 cells inside fixed budgets:
meps, the configuration that motivated the vectorized engine, and
law_students, whose 1,719,004 candidates the block kernel exhausts.  Future
PRs cannot silently regress the hot path: a return to row-at-a-time
evaluation blows the meps budget, and a return to one Python iteration per
candidate blows the law_students one.
"""

from __future__ import annotations

import pytest

from benchmarks.support import (
    PERF_SMOKE_BUDGET_SECONDS,
    default_constraint_set,
    print_records,
    run_naive,
)

pytestmark = pytest.mark.perf_smoke

#: Fixed budget of the law_students cell.  On 2 vCPUs the block kernel takes
#: about 0.8 s serially, and the per-candidate loop it replaced 44-48 s.
LAW_STUDENTS_BUDGET_SECONDS = 10.0


def test_naive_prov_on_reduced_meps_finishes_under_budget():
    record = run_naive("meps", default_constraint_set("meps"), use_provenance=True)
    print_records("perf smoke (meps, Naive+prov)", [record])
    assert record.feasible, "reduced meps Naive+prov must find a refinement"
    assert not record.timed_out
    assert record.solve_seconds < PERF_SMOKE_BUDGET_SECONDS, (
        f"Naive+prov solve took {record.solve_seconds:.3f}s, "
        f"budget is {PERF_SMOKE_BUDGET_SECONDS:.1f}s — the vectorized hot "
        f"path has regressed"
    )


def test_naive_prov_exhausts_the_reduced_law_students_cell_under_budget():
    record = run_naive("law_students", default_constraint_set("law_students"))
    print_records("perf smoke (law_students, Naive+prov)", [record])
    assert not record.timed_out
    assert record.extra["candidates"] == record.extra["space"] == 1_719_004
    assert record.feasible and record.distance_value == 0.0
    assert record.solve_seconds < LAW_STUDENTS_BUDGET_SECONDS, (
        f"Naive+prov solve took {record.solve_seconds:.3f}s, "
        f"budget is {LAW_STUDENTS_BUDGET_SECONDS:.1f}s — the block kernel has "
        f"regressed"
    )
