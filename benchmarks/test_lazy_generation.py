"""Performance guard for lazy constraint generation (``pytest -m perf_smoke``).

The reduced-scale law_students MILP+OPT Kendall cell is the eager lowering's
worst case: ~24s of solve time dominated by rank/top-k rows that are inactive
at the optimum.  The cutting-plane loop must solve the same cell inside
``REPRO_KEN_SMOKE_BUDGET`` (default 12s = half the 24.1s baseline, locking
>=2x; measured ~0.8s) *and* reach exactly the distance an eager reference
solve proves optimal.  The eager reference comes from raising the pool-size
floor (``MIN_LAZY_POOL_ROWS``) above any pool.
"""

from __future__ import annotations

import os

import pytest

from repro.core import lazy_generation

from benchmarks.support import TIMEOUT_SECONDS, print_records, run_milp, default_constraint_set

pytestmark = pytest.mark.perf_smoke

#: Pre-PR reduced-scale baseline (benchmarks/results/latest.json on main):
#: law_students MILP+OPT KEN total 24.1s eager.
KEN_BUDGET_SECONDS = float(os.environ.get("REPRO_KEN_SMOKE_BUDGET", "12.0"))

#: The eager reference needs more head room than the default 30s bench cap.
REFERENCE_TIME_LIMIT = max(TIMEOUT_SECONDS, 60.0)


def kendall_record(monkeypatch, lazy: bool):
    if not lazy:
        monkeypatch.setattr(lazy_generation, "MIN_LAZY_POOL_ROWS", 2**62)
    record = run_milp(
        "law_students",
        default_constraint_set("law_students"),
        distance="kendall",
        method="milp+opt",
        time_limit=REFERENCE_TIME_LIMIT,
    )
    record.algorithm += "/lazy" if lazy else "/eager"
    return record


def test_lazy_generation_kills_the_kendall_tail(monkeypatch):
    lazy = kendall_record(monkeypatch, lazy=True)
    eager = kendall_record(monkeypatch, lazy=False)
    print_records(
        "lazy constraint generation (law_students, MILP+OPT KEN)", [lazy, eager]
    )

    assert lazy.feasible and not lazy.timed_out
    assert eager.feasible and not eager.timed_out
    # Optimality parity: the loop's terminal answer is proven against the
    # full program, so the achieved distance must match the eager optimum.
    assert lazy.distance_value == eager.distance_value

    statistics = lazy.extra or {}
    assert statistics.get("full_lowerings") == 1
    assert statistics.get("seed_rows", 0) > 0
    assert statistics.get("cut_rounds", -1) >= 0
    assert statistics.get("rows_generated", -1) >= 0

    lazy_total = lazy.setup_seconds + lazy.solve_seconds
    assert lazy_total < KEN_BUDGET_SECONDS, (
        f"law_students MILP+OPT KEN took {lazy_total:.3f}s with the cut loop, "
        f"budget is {KEN_BUDGET_SECONDS:.2f}s (2x under the eager 24.1s "
        "baseline) — lazy constraint generation has regressed"
    )
    eager_total = eager.setup_seconds + eager.solve_seconds
    assert lazy_total * 2.0 <= eager_total, (
        f"cut loop ({lazy_total:.3f}s) is not >=2x faster than the eager "
        f"lowering ({eager_total:.3f}s) on the Kendall tail workload"
    )
