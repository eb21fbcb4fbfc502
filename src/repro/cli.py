"""Command-line interface: refine benchmark queries without writing code.

Examples
--------
List the bundled datasets and their queries::

    python -m repro datasets

Show a dataset's query, its ranking and group statistics::

    python -m repro inspect --dataset students --top 6 --group Gender=F

Solve a refinement problem (the running example)::

    python -m repro refine --dataset students \
        --at-least 3@6:Gender=F --at-most 1@3:Income=High \
        --epsilon 0 --distance pred --method milp+opt

Run the provenance-accelerated exhaustive baseline against a persisted
on-disk sqlite database::

    python -m repro refine --dataset meps --rows 1200 \
        --at-least 5@10:Sex=F --method naive+prov \
        --executor-db /tmp/meps.sqlite

Constraint syntax: ``BOUND@K:Attr=Value[,Attr2=Value2]`` — e.g. ``3@6:Gender=F``
means "at least/at most 3 tuples of the group Gender=F within the top-6".
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.core import CardinalityConstraint, Group, at_least, at_most
from repro.datasets import load_dataset
from repro.datasets.registry import DATASET_BUILDERS
from repro.exceptions import ReproError, exit_code_for
from repro.relational import QueryExecutor, render_sql


def _parse_group(text: str) -> dict[str, str]:
    conditions: dict[str, str] = {}
    for part in text.split(","):
        if "=" not in part:
            raise argparse.ArgumentTypeError(
                f"invalid group condition {part!r}; expected Attr=Value"
            )
        attribute, _, value = part.partition("=")
        conditions[attribute.strip()] = value.strip()
    if not conditions:
        raise argparse.ArgumentTypeError(f"empty group specification {text!r}")
    return conditions


def parse_constraint(text: str, kind: str) -> CardinalityConstraint:
    """Parse ``BOUND@K:Attr=Value[,Attr=Value]`` into a cardinality constraint."""
    try:
        bound_and_k, _, group_text = text.partition(":")
        bound_text, _, k_text = bound_and_k.partition("@")
        bound = int(bound_text)
        k = int(k_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"invalid constraint {text!r}; expected BOUND@K:Attr=Value"
        ) from exc
    if not group_text:
        raise argparse.ArgumentTypeError(
            f"constraint {text!r} is missing its group (Attr=Value)"
        )
    conditions = _parse_group(group_text)
    builder = at_least if kind == "lower" else at_most
    return builder(bound, k, **conditions)


def _constraint_text(text: str) -> str:
    """argparse ``type`` of ``--at-least``/``--at-most``: check, keep the text."""
    try:
        parse_constraint(text, "lower")
    except ReproError as error:
        raise argparse.ArgumentTypeError(str(error)) from error
    return text


def _dataset_parameters(args: argparse.Namespace) -> dict:
    parameters: dict = {}
    if args.rows is not None:
        parameters["num_rows"] = args.rows
    if args.scale_factor is not None:
        parameters["scale_factor"] = args.scale_factor
    if args.seed is not None:
        parameters["seed"] = args.seed
    return parameters


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", required=True, choices=sorted(DATASET_BUILDERS), help="dataset name"
    )
    parser.add_argument("--rows", type=int, default=None, help="override the number of rows")
    parser.add_argument(
        "--scale-factor", type=float, default=None, help="TPC-H scale factor override"
    )
    parser.add_argument("--seed", type=int, default=None, help="generator seed override")


def _command_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':<14} {'relations':<40} query")
    for name in sorted(DATASET_BUILDERS):
        parameters = {"num_rows": 200} if name in ("law_students", "meps") else {}
        if name == "tpch":
            parameters = {"scale_factor": 0.05}
        bundle = load_dataset(name, **parameters)
        relations = ", ".join(bundle.database.names)
        print(f"{name:<14} {relations:<40} {bundle.query.name}")
    return 0


def _command_inspect(args: argparse.Namespace) -> int:
    bundle = load_dataset(args.dataset, **_dataset_parameters(args))
    result = QueryExecutor(bundle.database).evaluate(bundle.query)
    print(render_sql(bundle.query))
    print(f"\nresult size: {len(result)} tuples")
    top = min(args.top, len(result))
    print(f"top-{top}:")
    for rank, row in enumerate(result.projected.rows[:top], start=1):
        print(f"  {rank:3d}. {row}")
    for conditions in args.group or []:
        group = Group(conditions)
        count = result.count_in_top_k(top, group.matches)
        print(f"group {group.label()}: {count} of the top-{top}")
    return 0


def _build_request(args: argparse.Namespace):
    """A wire-form :class:`RefineRequest` from the parsed ``refine`` arguments."""
    from repro.service.engine import RefineRequest, parse_constraint_specs

    return RefineRequest(
        dataset=args.dataset,
        constraints=parse_constraint_specs(args.at_least, args.at_most),
        dataset_parameters=tuple(_dataset_parameters(args).items()),
        epsilon=args.epsilon,
        distance=args.distance,
        method=args.method,
        backend=args.backend,
        time_limit=args.time_limit,
        max_candidates=args.max_candidates,
        num_solutions=args.num_solutions,
        output_size=args.output_size,
        deadline_s=args.deadline,
        engines=tuple(args.engines or ()),
    )


def _one_shot_engine(args: argparse.Namespace):
    """An engine over a single session honouring the executor flags."""
    from repro.service.engine import RefinementEngine
    from repro.service.session import DatasetSession, SessionPool

    pool = SessionPool(capacity=1)
    pool.adopt(
        DatasetSession(
            args.dataset,
            _dataset_parameters(args),
            executor_backend=args.executor_backend,
            executor_db=args.executor_db,
        )
    )
    return RefinementEngine(sessions=pool)


def _print_refine_response(response) -> int:
    """Render a :class:`RefineResponse` in the classic human-readable form."""
    infeasible_note = "No refinement within the requested maximum deviation exists."
    timings = response.timings
    # The engine answers a MILP request with the original query, unsolved,
    # when it fits.
    as_is_note = None
    if response.statistics.get("original_fits"):
        as_is_note = (
            "The original query already meets the constraints within "
            f"epsilon={response.request.epsilon:g}, so no MILP was built."
        )
    if response.engine == "exhaustive":
        stats = response.statistics
        print(
            f"[{response.method}/{response.distance_code}] {response.status} "
            f"candidates={stats['candidates_examined']} of {stats['space_size']} "
            f"setup={timings['setup_seconds']:.3f}s "
            f"search={timings['search_seconds']:.3f}s"
        )
        if not response.feasible:
            print(infeasible_note)
            return 1
        print(
            f"distance={response.distance_value:.4g} deviation={response.deviation:.4g}"
        )
        print("\nrefinement:", response.refinement)
        print("\nrefined query:")
        print(response.refined_sql)
        return 0
    if response.engine == "portfolio":
        race = response.race
        statuses = ", ".join(
            f"{label}={record['status']}"
            for label, record in sorted(race.get("engines", {}).items())
        )
        print(
            f"[portfolio/{response.distance_code}] {response.status} "
            f"winner={race.get('winner')} "
            f"deadline={race.get('deadline_s'):.3g}s "
            f"elapsed={timings['elapsed_seconds']:.3f}s "
            f"engines: {statuses}"
        )
        if not response.feasible:
            if response.status == "deadline":
                print("Deadline expired before any engine found a feasible incumbent.")
            else:
                print(infeasible_note)
            return 1
        proven = " (proven optimal)" if race.get("proven_optimal") else ""
        print(
            f"distance={response.distance_value:.4g} "
            f"deviation={response.deviation:.4g}{proven}"
        )
        print("\nrefinement:", response.refinement)
        print("\nrefined query:")
        print(response.refined_sql)
        return 0
    if response.engine == "erica":
        print(
            f"[erica/{response.distance_code}] {response.status} "
            f"solutions={len(response.refinements)} "
            f"setup={timings['setup_seconds']:.3f}s "
            f"solve={timings['solve_seconds']:.3f}s"
        )
        if not response.feasible:
            print(infeasible_note)
            return 1
        for index, entry in enumerate(response.refinements, start=1):
            print(
                f"\n#{index} distance={entry['distance_value']:.4g} "
                f"output_size={entry['output_size']}"
            )
            print("refinement:", entry["refinement"])
            print("refined query:")
            print(entry["refined_sql"])
        return 0
    if not response.feasible:
        if response.status == "timeout":
            print(f"[{response.method}/{response.distance_code}] timeout")
            print("The solver hit its time limit before finding any refinement.")
            return 1
        print(
            f"[{response.method}/{response.distance_code}] no refinement within the "
            "maximum deviation exists"
        )
        print(infeasible_note)
        return 1
    print(
        f"[{response.method}/{response.distance_code}] "
        f"distance={response.distance_value:.4g} "
        f"deviation={response.deviation:.4g} "
        f"setup={timings['setup_seconds']:.3f}s solve={timings['solve_seconds']:.3f}s"
    )
    if as_is_note is not None:
        print(as_is_note)
    print("\nrefinement:", response.refinement)
    print("\nrefined query:")
    print(response.refined_sql)
    print("\nconstraint counts in the refined ranking:")
    for label, count in response.constraint_counts.items():
        print(f"  {label}: {count}")
    if as_is_note is None:
        print("\nmodel statistics:", response.statistics)
    return 0


def _command_refine(args: argparse.Namespace) -> int:
    if not args.at_least and not args.at_most:
        print("error: provide at least one --at-least or --at-most constraint", file=sys.stderr)
        return 2
    request = _build_request(args)
    response = _one_shot_engine(args).refine(request)
    if args.json:
        print(response.to_json())
        return 0 if response.feasible else 1
    return _print_refine_response(response)


def _parse_warm_spec(text: str) -> tuple[str, dict]:
    """Parse a ``--warm`` spec: ``dataset[:param=value,...]``.

    Examples: ``students``, ``meps:num_rows=300``, ``tpch:scale_factor=0.05``.
    """
    dataset, _, parameter_text = text.partition(":")
    if dataset not in DATASET_BUILDERS:
        raise argparse.ArgumentTypeError(
            f"unknown dataset {dataset!r} in --warm spec {text!r}"
        )
    parameters: dict = {}
    if parameter_text:
        for part in parameter_text.split(","):
            name, equals, value = part.partition("=")
            if not equals:
                raise argparse.ArgumentTypeError(
                    f"invalid --warm parameter {part!r}; expected name=value"
                )
            name = name.strip()
            if name not in ("num_rows", "scale_factor", "seed"):
                raise argparse.ArgumentTypeError(
                    f"unknown --warm parameter {name!r}; "
                    "use num_rows, scale_factor or seed"
                )
            try:
                parameters[name] = float(value) if name == "scale_factor" else int(value)
            except ValueError as error:
                raise argparse.ArgumentTypeError(
                    f"invalid --warm parameter {part!r}; {name} takes a number"
                ) from error
    return dataset, parameters


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service.admission import AdmissionController
    from repro.service.engine import RefinementEngine
    from repro.service.server import RefinementServer
    from repro.service.session import SessionPool
    from repro.service.shadow import ShadowEngine

    pool = SessionPool(
        capacity=args.sessions,
        executor_backend=args.executor_backend,
        executor_db_dir=args.executor_db_dir,
    )
    engine = RefinementEngine(sessions=pool)
    shadow = None
    if args.shadow_method is not None:
        shadow = ShadowEngine(
            engine,
            shadow_method=args.shadow_method,
            sample_rate=args.shadow_sample_rate,
            seed=args.shadow_seed,
        )
    admission = AdmissionController(
        max_concurrency=args.max_concurrency,
        max_queue=args.max_queue,
        queue_timeout_s=args.queue_timeout,
    )
    server = RefinementServer(
        host=args.host,
        port=args.port,
        engine=engine,
        shadow=shadow,
        verbose=True,
        default_deadline_s=args.default_deadline,
        admission=admission,
        max_body_bytes=args.max_body_bytes,
        drain_timeout_s=args.drain_timeout,
    )
    for dataset, parameters in args.warm or []:
        pool.get(dataset, parameters, warm=True)
        print(f"warmed {dataset} {parameters or ''}".rstrip())
    print(f"serving on http://{server.host}:{server.port} (Ctrl-C to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return 0


def _command_lint(args) -> int:
    # Imported lazily: the analyzer is a developer tool, and the hot CLI
    # paths (refine/serve) should not pay for loading it.
    from repro.analysis import engine

    argv: list[str] = list(args.paths)
    argv += ["--format", args.format]
    if args.list_rules:
        argv.append("--list-rules")
    if args.show_suppressed:
        argv.append("--show-suppressed")
    return engine.main(argv)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Query Refinement for Diverse Top-k Selection (SIGMOD 2024 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("datasets", help="list the bundled benchmark datasets")

    inspect_parser = subparsers.add_parser("inspect", help="evaluate a dataset's query")
    _add_dataset_arguments(inspect_parser)
    inspect_parser.add_argument("--top", type=int, default=10, help="how many rows to display")
    inspect_parser.add_argument(
        "--group", action="append", type=_parse_group,
        help="report the top-k count of a group (Attr=Value)",
    )

    refine_parser = subparsers.add_parser("refine", help="solve a refinement problem")
    _add_dataset_arguments(refine_parser)
    refine_parser.add_argument(
        "--at-least", action="append", type=_constraint_text,
        metavar="BOUND@K:Attr=Value",
        help="lower-bound cardinality constraint (repeatable)",
    )
    refine_parser.add_argument(
        "--at-most", action="append", type=_constraint_text,
        metavar="BOUND@K:Attr=Value",
        help="upper-bound cardinality constraint (repeatable)",
    )
    refine_parser.add_argument("--epsilon", type=float, default=0.5, help="maximum deviation")
    refine_parser.add_argument(
        "--distance", default="pred", choices=["pred", "jaccard", "kendall"],
        help="distance measure to minimise",
    )
    refine_parser.add_argument(
        "--method", default="milp+opt",
        choices=["milp", "milp+opt", "naive", "naive+prov", "erica", "portfolio"],
        help="algorithm variant (MILP solvers, the exhaustive baselines, "
        "the Erica-style whole-output baseline, or the deadline-bounded "
        "portfolio race)",
    )
    refine_parser.add_argument(
        "--backend", default="auto", help="MILP backend (auto, scipy, branch_and_bound)"
    )
    refine_parser.add_argument(
        "--time-limit", type=float, default=None, help="solver time limit in seconds"
    )
    refine_parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end wall-clock SLA for the request; clamps solver time "
        "limits, and for --method portfolio bounds the race (which returns "
        "its best verified incumbent when the budget expires)",
    )
    refine_parser.add_argument(
        "--engines", action="append", metavar="METHOD",
        choices=["milp", "milp+opt", "naive", "naive+prov"],
        help="engine raced by --method portfolio (repeatable; default: "
        "milp+opt and naive+prov)",
    )
    refine_parser.add_argument(
        "--max-candidates", type=int, default=None,
        help="cap on examined candidates for the naive/naive+prov search",
    )
    refine_parser.add_argument(
        "--executor-backend", default=None, choices=["memory", "sqlite"],
        help="query execution backend (default: REPRO_EXECUTOR_BACKEND or memory)",
    )
    refine_parser.add_argument(
        "--executor-db", default=None, metavar="PATH",
        help="persist the sqlite execution backend to PATH (selects the "
        "sqlite backend unless --executor-backend/REPRO_EXECUTOR_BACKEND "
        "chooses one explicitly; default: REPRO_EXECUTOR_DB)",
    )
    refine_parser.add_argument(
        "--num-solutions", type=int, default=1,
        help="solutions to enumerate with --method erica",
    )
    refine_parser.add_argument(
        "--output-size", type=int, default=None,
        help="whole-output size bound for --method erica (default: original size)",
    )
    refine_parser.add_argument(
        "--json", action="store_true",
        help="emit the result as JSON (the same serialization the serve API returns)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="start the refinement HTTP/JSON service"
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=8373, help="bind port (0 picks an ephemeral one)"
    )
    serve_parser.add_argument(
        "--sessions", type=int, default=4,
        help="warm dataset sessions kept alive (LRU beyond this)",
    )
    serve_parser.add_argument(
        "--warm", action="append", type=_parse_warm_spec,
        metavar="DATASET[:param=value,...]",
        help="warm a dataset session before serving, e.g. meps:num_rows=300 "
        "(repeatable)",
    )
    serve_parser.add_argument(
        "--executor-backend", default=None, choices=["memory", "sqlite"],
        help="query execution backend for every session",
    )
    serve_parser.add_argument(
        "--executor-db-dir", default=None, metavar="DIR",
        help="directory for per-session persisted sqlite stores",
    )
    serve_parser.add_argument(
        "--default-deadline", type=float, default=None, metavar="SECONDS",
        help="end-to-end SLA applied to requests that omit deadline_s "
        "(covers queueing, session acquisition and the solve)",
    )
    serve_parser.add_argument(
        "--max-concurrency", type=int, default=4,
        help="refine requests solved concurrently (default: 4)",
    )
    serve_parser.add_argument(
        "--max-queue", type=int, default=16,
        help="requests allowed to wait for a slot before 429s (default: 16)",
    )
    serve_parser.add_argument(
        "--queue-timeout", type=float, default=10.0, metavar="SECONDS",
        help="longest a deadline-less request may wait queued (default: 10)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="SECONDS",
        help="grace period for in-flight solves at shutdown (default: 10)",
    )
    serve_parser.add_argument(
        "--max-body-bytes", type=int, default=1 << 20,
        help="largest accepted request body; bigger gets a typed 413 "
        "(default: 1 MiB)",
    )
    serve_parser.add_argument(
        "--shadow-method", default=None,
        choices=["milp", "milp+opt", "naive", "naive+prov", "erica"],
        help="mirror a sample of requests to this method and report diffs",
    )
    serve_parser.add_argument(
        "--shadow-sample-rate", type=float, default=0.1,
        help="fraction of requests mirrored to the shadow method",
    )
    serve_parser.add_argument(
        "--shadow-seed", type=int, default=0, help="shadow sampling seed"
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="check the repo-specific invariants (lock discipline, pickle "
        "hygiene, SQL parameterization, hot-path shape, wire stability, "
        "env-var registry)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="output format (default: text)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print every rule id with its invariant and exit",
    )
    lint_parser.add_argument(
        "--show-suppressed", action="store_true",
        help="also print diagnostics silenced by suppression comments",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "executor_db", None) and getattr(args, "executor_backend", None) == "memory":
        parser.error("--executor-db requires the sqlite backend; drop --executor-backend memory")
    handlers = {
        "datasets": _command_datasets,
        "inspect": _command_inspect,
        "refine": _command_refine,
        "serve": _command_serve,
        "lint": _command_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        # Typed taxonomy on the exit code too: 2 = fatal (bad request,
        # infeasible model, corrupted store), 3 = retryable (overload,
        # deadline, transient store/solver faults) — scripts can back off.
        print(f"error [{error.error_code}]: {error}", file=sys.stderr)
        return exit_code_for(error)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
