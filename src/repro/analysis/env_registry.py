"""The single source of truth for every ``REPRO_*`` environment variable.

Every ``os.environ``/``os.getenv`` access in ``src/`` must use a key declared
here (enforced by the ``env-var-registry`` lint rule), and the environment
variable table in the README is *generated* from this module
(``scripts/generate_env_docs.py``; ``tests/analysis/test_env_docs_sync.py``
asserts the README never drifts).  Benchmark- and test-only knobs live in the
same table so the docs cover everything, tagged with their scope.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Scopes an environment variable can act in.
SCOPE_RUNTIME = "runtime"
SCOPE_BENCHMARK = "benchmark"
SCOPE_CI = "ci"


@dataclass(frozen=True)
class EnvVar:
    """One documented environment variable."""

    name: str
    default: str
    scope: str
    description: str


ENV_VARS: tuple[EnvVar, ...] = (
    EnvVar(
        "REPRO_EXECUTOR_BACKEND",
        "memory",
        SCOPE_RUNTIME,
        "Query execution backend for every `QueryExecutor` built without an "
        "explicit `backend=` (`memory` or `sqlite`).",
    ),
    EnvVar(
        "REPRO_EXECUTOR_DB",
        "(unset)",
        SCOPE_RUNTIME,
        "Path of a persistent on-disk sqlite store; implies the sqlite "
        "backend when none is selected explicitly.",
    ),
    EnvVar(
        "REPRO_MILP_BACKEND",
        "(auto)",
        SCOPE_RUNTIME,
        "Forces `get_solver(\"auto\")` onto one MILP backend (`scipy` or "
        "`branch_and_bound`); unknown values raise.",
    ),
    EnvVar(
        "REPRO_DEBUG_LOCKS",
        "0",
        SCOPE_RUNTIME,
        "Set to 1 to wrap every registered lock-guarded structure in a "
        "checking proxy that raises on access without the owning lock held "
        "(the dynamic half of repro-lint's `lock-guard` rule).",
    ),
    EnvVar(
        "REPRO_FAULT_SQLITE_LOCK",
        "(unset)",
        SCOPE_CI,
        "Arms the `sqlite-lock` injection point: store accesses raise "
        "`sqlite3.OperationalError: database is locked`. "
        "Value syntax: `RATE[,attempts=N]`.",
    ),
    EnvVar(
        "REPRO_FAULT_SQLITE_CORRUPT",
        "(unset)",
        SCOPE_CI,
        "Arms the `sqlite-corrupt` injection point: store accesses raise "
        "`sqlite3.DatabaseError: malformed`, driving the automatic store "
        "rebuild. Value syntax: `RATE[,attempts=N]`.",
    ),
    EnvVar(
        "REPRO_FAULT_BACKEND_RAISE",
        "(unset)",
        SCOPE_CI,
        "Arms the `backend-raise` injection point: `Model.solve` raises "
        "`SolverError`, driving the milp -> exhaustive degradation. "
        "Value syntax: `RATE[,attempts=N]`.",
    ),
    EnvVar(
        "REPRO_FAULT_SLOW_SOLVE",
        "(unset)",
        SCOPE_CI,
        "Arms the `slow-solve` injection point: `Model.solve` sleeps before "
        "solving. Value syntax: `RATE[,seconds=X]` (default 0.2s).",
    ),
    EnvVar(
        "REPRO_FAULT_SEED",
        "0",
        SCOPE_CI,
        "Seed of the deterministic fault-injection rate draws: the same "
        "seed, point and key always decide the same way.",
    ),
    EnvVar(
        "REPRO_BENCH_SCALE",
        "reduced",
        SCOPE_BENCHMARK,
        "Dataset scale the benchmark harness builds (`reduced` or `paper`).",
    ),
    EnvVar(
        "REPRO_BENCH_TIMEOUT",
        "30",
        SCOPE_BENCHMARK,
        "Per-cell wall-clock timeout (seconds) for benchmark runs.",
    ),
    EnvVar(
        "REPRO_PERF_SMOKE_BUDGET",
        "2.0",
        SCOPE_BENCHMARK,
        "Wall-clock budget (seconds) of the meps naive+prov perf-smoke guard.",
    ),
    EnvVar(
        "REPRO_MILP_SMOKE_BUDGET",
        "2.89",
        SCOPE_BENCHMARK,
        "Wall-clock budget (seconds) of the meps MILP+OPT lowering guard.",
    ),
    EnvVar(
        "REPRO_KEN_SMOKE_BUDGET",
        "12.0",
        SCOPE_BENCHMARK,
        "Wall-clock budget (seconds) of the law_students MILP+OPT Kendall "
        "lazy-generation guard (the eager baseline takes ~24s).",
    ),
    EnvVar(
        "REPRO_ERICA_SMOKE_BUDGET",
        "0.99",
        SCOPE_BENCHMARK,
        "Wall-clock budget (seconds) of the Erica num_solutions=3 guard.",
    ),
    EnvVar(
        "REPRO_PORTFOLIO_DEADLINES",
        "0.05,0.2,1.0,5.0",
        SCOPE_BENCHMARK,
        "Comma-separated deadlines (seconds) the portfolio benchmark sweeps "
        "to record its incumbent-quality-vs-deadline curve.",
    ),
    EnvVar(
        "REPRO_SERVICE_SPEEDUP",
        "5.0",
        SCOPE_CI,
        "Minimum warm-server p50 speedup over a cold CLI subprocess the "
        "service latency benchmark enforces.",
    ),
)


def registered_names() -> frozenset[str]:
    """Every declared variable name (consulted by the lint rule)."""
    return frozenset(var.name for var in ENV_VARS)


def render_markdown_table() -> str:
    """The README's environment-variable table, one row per variable."""
    lines = [
        "| Variable | Default | Scope | Meaning |",
        "| --- | --- | --- | --- |",
    ]
    for var in ENV_VARS:
        lines.append(
            f"| `{var.name}` | `{var.default}` | {var.scope} | {var.description} |"
        )
    return "\n".join(lines)


__all__ = [
    "ENV_VARS",
    "EnvVar",
    "SCOPE_BENCHMARK",
    "SCOPE_CI",
    "SCOPE_RUNTIME",
    "registered_names",
    "render_markdown_table",
]
