"""Machine-readable registries the repro-lint rules are configured from.

These tables are the invariants of PRs 4-6 written down once, where both the
static rules and the ``REPRO_DEBUG_LOCKS`` dynamic proxies (and a future
reviewer) can read them.  Adding shared mutable state to the engine means
adding a row here — the lint run fails otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GuardSpec:
    """Which attributes of a class may only be touched under which lock."""

    lock: str
    attributes: tuple[str, ...]
    note: str


#: Class name -> guarded attributes and their owning lock (``lock-guard``).
#: Methods named ``__init__``/``__getstate__``/``__setstate__`` and methods
#: whose name ends in ``_locked`` are exempt (no concurrent reader can hold
#: the object yet / pickling is single-threaded / the caller holds the lock).
LOCK_GUARDS: dict[str, GuardSpec] = {
    "QueryExecutor": GuardSpec(
        lock="_cache_lock",
        attributes=("_join_cache", "_ordered_cache"),
        note="per-query-shape join and ordered-join caches (PR 6): "
        "check-then-build must be serialized or concurrent refine "
        "requests race on construction",
    ),
    "_SQLiteConnectionPool": GuardSpec(
        lock="_lock",
        attributes=("_executors",),
        note="per-thread sqlite connection table: eviction mutates it from "
        "other threads, so even reads must hold the lock",
    ),
    "DatasetSession": GuardSpec(
        lock="_lock",
        attributes=("_annotated", "_mask_data", "_mask_data_built", "_prepared_milps"),
        note="warm per-dataset state built lazily by concurrent requests; "
        "the prepared-MILP LRU reorders on every hit",
    ),
    "PreparedProblem": GuardSpec(
        lock="solve_lock",
        attributes=("_proven",),
        note="proven solves per backend: a repeat must see the first solve's "
        "answer or wait for it, never start a second solve beside it",
    ),
    "SessionPool": GuardSpec(
        lock="_lock",
        attributes=("_sessions",),
        note="session LRU: get/adopt reorder and evict concurrently",
    ),
    "RaceControl": GuardSpec(
        lock="_lock",
        attributes=("_proven_lower", "_timeline", "_cancel_all"),
        note="shared race state (proven bound, timeline, cancellation flag) "
        "published by engine threads while the selection loop reads",
    ),
    "RequestCoalescer": GuardSpec(
        lock="_lock",
        attributes=("_inflight",),
        note="leader/waiter map: the membership test *is* the leader "
        "election, so it must be atomic with insertion",
    ),
    "ShadowEngine": GuardSpec(
        lock="_lock",
        attributes=("report",),
        note="shadow tally mutated by every sampled request; stats readers "
        "must snapshot under the same lock",
    ),
}


#: Class name -> reason it may own locks/connections/pools without defining
#: ``__getstate__``/``__setstate__`` (``fork-pickle-hygiene``).  Every entry
#: documents why the class can never cross a pickle/fork boundary intact.
FORK_PICKLE_EXEMPT: dict[str, str] = {
    "QueryExecutor": (
        "shared by the threads of one process (a session, a search or a "
        "solver owns it); never pickled"
    ),
    "_SQLiteConnectionPool": (
        "lives only inside its QueryExecutor, which never leaves its process"
    ),
    "SQLiteExecutor": (
        "one thread's in-memory store inside _SQLiteConnectionPool; it never "
        "leaves its process"
    ),
    "_InFlight": (
        "request-scoped leader/waiter pair; exists only inside "
        "RequestCoalescer._inflight for the duration of one computation"
    ),
    "RequestCoalescer": (
        "server-resident: owned by the RefinementEngine facade, which is "
        "never pickled"
    ),
    "ShadowEngine": "server-resident rollout facade; never crosses a process",
    "DatasetSession": (
        "server-resident warm state; each process builds its own sessions, "
        "none is shipped between processes"
    ),
    "SessionPool": "server-resident LRU over sessions; never pickled",
    "RaceControl": (
        "race-scoped shared state on threads of one PortfolioSolver.solve; "
        "every engine runs in the solving process, so it never crosses one"
    ),
    "PreparedProblem": (
        "held by a DatasetSession's prepared-MILP cache or one race's MILP "
        "engine thread; MILPs are solved in-process, never in another one"
    ),
    "_AtomInterner": (
        "process-wide singleton with explicit os.register_at_fork hooks "
        "(lock held across fork, child re-creates it); never pickled"
    ),
    "FaultPlan": (
        "process-local fault-injection plan: each process reads its own "
        "REPRO_FAULT_* environment at import, and a plan never ships"
    ),
    "AdmissionController": (
        "server-resident front door: owned by RefinementServer, which is "
        "never pickled"
    ),
}


#: Module suffixes whose loops must stay columnar (``hot-path-rowwise``).
HOT_MODULES: tuple[str, ...] = (
    "repro/core/naive.py",
    "repro/core/constraints.py",
    "repro/relational/columnar.py",
    "repro/relational/executor.py",
    "repro/core/milp_builder.py",
)

#: Module suffixes subject to ``sql-parameterization``.
SQL_MODULES: tuple[str, ...] = (
    "repro/relational/sqlgen.py",
    "repro/relational/sqlite_backend.py",
)

#: Helpers that make an interpolated SQL fragment identifier-safe.
SQL_IDENTIFIER_HELPERS: tuple[str, ...] = ("_quote_identifier",)

#: Helpers/attributes that mark an expression as carrying a *value* — these
#: must reach SQL as bound ``?`` parameters, never as interpolated text.
SQL_VALUE_HELPERS: tuple[str, ...] = ("_quote_literal",)
SQL_VALUE_ATTRIBUTES: tuple[str, ...] = ("constant", "values")

#: Module suffixes allowed to read environment keys *through* the
#: fault-injection registry (``point.env``) instead of literals; the
#: ``env-var-registry`` rule compensates by cross-checking every
#: ``InjectionPoint(env=...)`` declaration in them against the env registry.
FAULT_MODULES: tuple[str, ...] = ("repro/faults/registry.py",)

#: Module suffix and dataclasses checked by ``wire-stability``.
WIRE_MODULES: tuple[str, ...] = ("repro/service/engine.py",)
WIRE_CLASSES: tuple[str, ...] = ("ConstraintSpec", "RefineRequest", "RefineResponse")

#: Names whose appearance inside ``canonical_dict`` would make the wire
#: serialization timing- or environment-dependent.
WIRE_FORBIDDEN_NAMES: tuple[str, ...] = (
    "timings",
    "time",
    "datetime",
    "platform",
    "environ",
    "getenv",
    "random",
    "uuid",
)


__all__ = [
    "FAULT_MODULES",
    "FORK_PICKLE_EXEMPT",
    "GuardSpec",
    "HOT_MODULES",
    "LOCK_GUARDS",
    "SQL_IDENTIFIER_HELPERS",
    "SQL_MODULES",
    "SQL_VALUE_ATTRIBUTES",
    "SQL_VALUE_HELPERS",
    "WIRE_CLASSES",
    "WIRE_FORBIDDEN_NAMES",
    "WIRE_MODULES",
]
