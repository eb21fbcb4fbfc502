"""Shared infrastructure for the benchmark suite.

Every module under ``benchmarks/`` regenerates one table or figure of the
paper's evaluation (Section 5).  The experiments run on the synthetic
stand-ins of the paper's datasets at a reduced default scale so that the whole
suite finishes on a laptop; set the environment variable
``REPRO_BENCH_SCALE=paper`` to use the full dataset sizes (357 astronauts,
21,790 law students, 34,655 MEPS respondents, TPC-H "scale factor 1" of the
miniature generator), at the cost of a much longer run.

The numbers printed by each benchmark are the same *series* the corresponding
figure plots (per dataset, per distance measure: setup seconds and total
seconds); EXPERIMENTS.md records one full run next to the paper's reported
trends.
"""

from __future__ import annotations

import datetime
import json
import os
from dataclasses import asdict, dataclass
from functools import lru_cache

from perfbench.run import stamp

from repro.core import (
    CardinalityConstraint,
    ConstraintSet,
    NaiveProvenanceSearch,
    NaiveSearch,
    RefinementSolver,
    at_least,
)
from repro.datasets import load_dataset
from repro.datasets.registry import DatasetBundle

#: Distance measures in the order the paper's figures list them.
DISTANCES = ("pred", "jaccard", "kendall")

#: Datasets in the order of the paper's sub-figures (a)-(d).
DATASETS = ("astronauts", "law_students", "meps", "tpch")

#: Default experiment parameters (Section 5.1, "Parameters setting").
DEFAULT_K = 10
DEFAULT_EPSILON = 0.5

#: Wall-clock cap per algorithm run; the paper uses one hour, the reduced-scale
#: suite uses a tighter cap so a "times out" outcome is still visible quickly.
TIMEOUT_SECONDS = float(os.environ.get("REPRO_BENCH_TIMEOUT", "30"))

#: Solve-time budget for the ``perf_smoke`` guard (`pytest -m perf_smoke`):
#: ``Naive+prov`` on the reduced meps workload took ~6.2s on the row-based
#: engine and ~0.25s on the columnar engine, so 2 seconds leaves ample head
#: room for slow CI machines while still catching any hot-path regression.
PERF_SMOKE_BUDGET_SECONDS = float(os.environ.get("REPRO_PERF_SMOKE_BUDGET", "2.0"))


def bench_scale() -> str:
    """``"reduced"`` (default) or ``"paper"``, selected via REPRO_BENCH_SCALE."""
    return os.environ.get("REPRO_BENCH_SCALE", "reduced")


_REDUCED_PARAMETERS = {
    "astronauts": {"num_rows": 357},
    "law_students": {"num_rows": 1_500},
    "meps": {"num_rows": 1_200},
    "tpch": {"scale_factor": 0.15},
}

_PAPER_PARAMETERS = {
    "astronauts": {"num_rows": 357},
    "law_students": {"num_rows": 21_790},
    "meps": {"num_rows": 34_655},
    "tpch": {"scale_factor": 1.0},
}


@lru_cache(maxsize=None)
def dataset_bundle(name: str) -> DatasetBundle:
    """The benchmark instance of a dataset (cached across benchmark modules)."""
    parameters = (
        _PAPER_PARAMETERS if bench_scale() == "paper" else _REDUCED_PARAMETERS
    )[name]
    return load_dataset(name, **parameters)


def table6_constraints(name: str, k: int = DEFAULT_K) -> list[CardinalityConstraint]:
    """The five constraints of Table 6 for a dataset, parameterised by ``k``.

    Bounds follow the paper: constraints (1)-(2) use ``k/2`` and constraints
    (3)-(5) use ``k/5`` (integer division, at least 1).
    """
    half = max(k // 2, 1)
    fifth = max(k // 5, 1)
    if name == "astronauts":
        return [
            at_least(half, k, Gender="F"),
            at_least(half, k, Gender="M"),
            at_least(fifth, k, Status="Active"),
            at_least(fifth, k, Status="Management"),
            at_least(fifth, k, Status="Retired"),
        ]
    if name == "law_students":
        return [
            at_least(half, k, Sex="F"),
            at_least(half, k, Sex="M"),
            at_least(fifth, k, Race="Black"),
            at_least(fifth, k, Race="White"),
            at_least(fifth, k, Race="Asian"),
        ]
    if name == "meps":
        return [
            at_least(half, k, Sex="F"),
            at_least(half, k, Sex="M"),
            at_least(fifth, k, Race="Asian"),
            at_least(fifth, k, Race="Black"),
            at_least(fifth, k, Race="White"),
        ]
    if name == "tpch":
        return [
            at_least(half, k, OrderPriority="5-LOW"),
            at_least(fifth, k, OrderPriority="3-MEDIUM"),
            at_least(fifth, k, MktSegment="AUTOMOBILE"),
            at_least(fifth, k, MktSegment="BUILDING"),
            at_least(fifth, k, MktSegment="MACHINERY"),
        ]
    raise ValueError(f"unknown dataset {name!r}")


def default_constraint_set(name: str, k: int = DEFAULT_K) -> ConstraintSet:
    """The default single-constraint set: constraint (1) of Table 6."""
    return ConstraintSet(table6_constraints(name, k)[:1])


@dataclass
class RunRecord:
    """One algorithm execution, as reported in the figures."""

    dataset: str
    algorithm: str
    distance: str
    feasible: bool
    timed_out: bool
    setup_seconds: float
    solve_seconds: float
    total_seconds: float
    distance_value: float | None = None
    deviation: float | None = None
    extra: dict | None = None

    def row(self) -> str:
        status = "timeout" if self.timed_out else ("ok" if self.feasible else "infeasible")
        distance_repr = "-" if self.distance_value is None else f"{self.distance_value:.3f}"
        return (
            f"{self.dataset:<13} {self.algorithm:<11} {self.distance:<8} {status:<10} "
            f"setup={self.setup_seconds:7.3f}s solve={self.solve_seconds:7.3f}s "
            f"total={self.total_seconds:7.3f}s dist={distance_repr}"
        )


def run_milp(
    dataset: str,
    constraints: ConstraintSet,
    distance: str = "pred",
    method: str = "milp+opt",
    epsilon: float = DEFAULT_EPSILON,
    time_limit: float | None = None,
    bundle: DatasetBundle | None = None,
) -> RunRecord:
    """Run one MILP-based configuration and record its timings."""
    bundle = bundle or dataset_bundle(dataset)
    solver = RefinementSolver(
        bundle.database,
        bundle.query,
        constraints,
        epsilon=epsilon,
        distance=distance,
        method=method,
        time_limit=time_limit if time_limit is not None else TIMEOUT_SECONDS,
    )
    result = solver.solve()
    timed_out = not result.feasible and result.solve_seconds >= (
        time_limit if time_limit is not None else TIMEOUT_SECONDS
    ) * 0.95
    return RunRecord(
        dataset=dataset,
        algorithm=method.upper(),
        distance=solver.distance.code,
        feasible=result.feasible,
        timed_out=timed_out,
        setup_seconds=result.setup_seconds,
        solve_seconds=result.solve_seconds,
        total_seconds=result.total_seconds,
        distance_value=result.distance_value,
        deviation=result.deviation,
        extra=result.model_statistics,
    )


def run_naive(
    dataset: str,
    constraints: ConstraintSet,
    distance: str = "pred",
    use_provenance: bool = True,
    epsilon: float = DEFAULT_EPSILON,
    timeout: float | None = None,
    bundle: DatasetBundle | None = None,
    max_candidates: int | None = None,
) -> RunRecord:
    """Run one exhaustive-search configuration and record its timings."""
    bundle = bundle or dataset_bundle(dataset)
    if use_provenance:
        search = NaiveProvenanceSearch(
            bundle.database,
            bundle.query,
            constraints,
            epsilon=epsilon,
            distance=distance,
            timeout=timeout if timeout is not None else TIMEOUT_SECONDS,
            max_candidates=max_candidates,
        )
        algorithm = "NAIVE+PROV"
    else:
        search = NaiveSearch(
            bundle.database,
            bundle.query,
            constraints,
            epsilon=epsilon,
            distance=distance,
            timeout=timeout if timeout is not None else TIMEOUT_SECONDS,
            max_candidates=max_candidates,
        )
        algorithm = "NAIVE"
    result = search.search()
    return RunRecord(
        dataset=dataset,
        algorithm=algorithm,
        distance=search.distance.code,
        feasible=result.feasible,
        timed_out=result.timed_out,
        setup_seconds=result.setup_seconds,
        solve_seconds=result.search_seconds,
        total_seconds=result.total_seconds,
        distance_value=result.distance_value,
        deviation=result.deviation,
        extra={"candidates": result.candidates_examined, "space": result.space_size},
    )


#: Every record series lands in both files so a benchmark run leaves a trace
#: even when pytest captures stdout: ``latest.json`` is the machine-readable
#: source of truth (one entry per series title, replaced in place on re-runs,
#: so repeated runs never accumulate duplicate blocks), and ``latest.txt`` is
#: regenerated from it for human eyes.
RESULTS_JSON_PATH = os.path.join(os.path.dirname(__file__), "results", "latest.json")
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results", "latest.txt")


def _load_results() -> dict:
    try:
        with open(RESULTS_JSON_PATH) as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return {"series": {}}


def _render_text(results: dict) -> str:
    lines = []
    for title, series in results["series"].items():
        lines.append(f"=== {title} (scale={series['scale']}) ===")
        lines.extend(series["rows"])
    return "\n".join(lines) + "\n"


def print_records(title: str, records: list[RunRecord]) -> None:
    """Print one series and store it under ``benchmarks/results/``.

    The series replaces any previous entry with the same title, so both
    ``latest.json`` and ``latest.txt`` always hold exactly one (the latest)
    block per benchmark.  The JSON entry is stamped with what it was
    measured on: commit, dirty flag, source digest, nproc and the Python,
    NumPy, SciPy and HiGHS versions.
    """
    rows = [record.row() for record in records]
    print()
    print(f"=== {title} (scale={bench_scale()}) ===")
    for row in rows:
        print(row)
    environment = stamp()
    # Only the HTTP benchmark starts the server this part describes.
    del environment["server_env"]
    os.makedirs(os.path.dirname(RESULTS_JSON_PATH), exist_ok=True)
    results = _load_results()
    results["series"][title] = {
        "scale": bench_scale(),
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "stamp": environment,
        "records": [asdict(record) for record in records],
        "rows": rows,
    }
    with open(RESULTS_JSON_PATH, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    with open(RESULTS_PATH, "w") as handle:
        handle.write(_render_text(results))
