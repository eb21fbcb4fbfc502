"""End-to-end and per-layer benchmark of the refinement service.

    python3 perfbench/run.py --workload milp_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  It starts ``repro serve`` (from ``src/``)
as a subprocess with its dataset sessions warmed, sends the workload's
requests over HTTP in a closed loop, checks every answer against
``reference.json``, and prints every metric by name with its unit and sample
count.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests twice, untraced and then through ``launcher.py`` with the layer
spans installed, and reports the per-layer metrics, the deterministic count
series and the tracing overhead (the gap between the two runs).  See
``README.md`` in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.driver import (  # noqa: E402
    PINNED_ENV,
    REFUSED_STATUSES,
    Outcome,
    Server,
    refused_environment,
    run_items,
)
from perfbench.workloads import REFERENCE_PATH, WORKLOADS, Item, Workload  # noqa: E402

#: Server starts per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3


@dataclass
class Run:
    setup_s: list[float]
    warmup: list[Outcome]
    outcomes: list[Outcome]
    elapsed_s: float
    peak_rss_mb: float
    trace: dict | None


def measure(workload: Workload, items: list[Item], reference: dict, traced: bool,
            setups: int = 1) -> Run:
    """Start the server (``setups`` times; the last one serves) and send ``items``."""
    setup_s = []
    for _ in range(setups - 1):
        with Server(ROOT, workload.datasets, traced=traced) as server:
            setup_s.append(server.setup_s)
    server = Server(ROOT, workload.datasets, traced=traced)
    with server:
        setup_s.append(server.setup_s)
        warmup, _ = run_items(server, [Item(p) for p in workload.warmup], 1, reference, "w")
        outcomes, elapsed = run_items(server, items, workload.clients, reference, "r")
        peak = server.peak_rss_mb()
    return Run(setup_s, warmup, outcomes, elapsed, peak, server.trace)


def end_to_end(run: Run) -> dict[str, tuple[float, str, int]]:
    """``name -> (value, unit, samples)`` for the untraced run."""
    outcomes = run.outcomes
    latencies = [outcome.latency_s for outcome in outcomes]
    correct = sum(1 for outcome in outcomes if outcome.error is None)
    n = len(outcomes)
    return {
        "setup_s": (metrics.median(run.setup_s), "s", len(run.setup_s)),
        "requests_per_s": (correct / run.elapsed_s, "1/s", n),
        "latency_p50_s": (metrics.median(latencies), "s", n),
        "correct_share": (metrics.ratio(correct, n), "share", n),
        "proven_share": (
            metrics.ratio(sum(1 for outcome in outcomes if outcome.proven), n), "share", n
        ),
        "peak_rss_mb": (run.peak_rss_mb, "MB", 1),
    }


def extras(run: Run) -> dict[str, tuple[float, str, int]]:
    """Printed next to the end-to-end metrics, but not part of the result.

    ``latency_tail_s`` is here rather than in the result because on a shared
    2-vCPU host it follows the host's speed, which drifts by a third over
    minutes, further than the largest bound a result metric may have; the
    traced run reports it with the per-layer metrics.
    """
    outcomes = run.outcomes
    n = len(outcomes)
    latencies = [outcome.latency_s for outcome in outcomes]
    failed = sum(1 for outcome in outcomes if outcome.error is not None)
    refused = sum(1 for outcome in outcomes if outcome.status in REFUSED_STATUSES)
    values = {
        "latency_tail_s": (metrics.tail(latencies)[1], "s", n),
        "failed_share": (metrics.ratio(failed, n), "share", n),
        "refused": (float(refused), "count", n),
        "repeat_share": (metrics.ratio(sum(o.repeat for o in outcomes), n), "share", n),
        "twin_share": (metrics.ratio(sum(o.twin for o in outcomes), n), "share", n),
    }
    overruns = [
        outcome.latency_s - outcome.problem.deadline_s
        for outcome in outcomes
        if outcome.problem.deadline_s is not None
    ]
    if overruns:
        values["deadline_overrun_tail_s"] = (metrics.tail(overruns)[1], "s", len(overruns))
    return values


def per_layer(untraced: Run, traced: Run) -> dict[str, tuple[float, str, int]]:
    """Per-layer metrics and count series of the traced run, and its overhead."""
    assert traced.trace is not None
    summaries = [s for s in traced.trace["requests"] if str(s["request"]).startswith("r")]
    n = len(summaries)
    values = {name: (value, unit, n) for name, (value, unit) in
              metrics.per_layer(summaries, traced.trace["setup"]).items()}
    examined = sum(outcome.examined for outcome in traced.outcomes)
    values.update({name: (value, unit, n) for name, (value, unit) in
                   metrics.deterministic_counts(summaries, examined).items()})
    untraced_rate = len(untraced.outcomes) / untraced.elapsed_s
    traced_rate = len(traced.outcomes) / traced.elapsed_s
    values["trace.overhead_share"] = (1.0 - traced_rate / untraced_rate, "share", n)
    values["trace.overhead_p50_s"] = (
        metrics.median([o.latency_s for o in traced.outcomes])
        - metrics.median([o.latency_s for o in untraced.outcomes]),
        "s",
        n,
    )
    also = extras(untraced)
    values["latency_tail_s"] = also["latency_tail_s"]
    values["portfolio.deadline_overrun_tail_s"] = (
        also.get("deadline_overrun_tail_s") or (math.nan, "s", 0)
    )
    return values


# -- stamp ------------------------------------------------------------------------------------


def _git(*args: str) -> str | None:
    try:
        result = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    """SHA-256 over every file under ``src/``: the code under test, git or not."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def stamp() -> dict:
    import numpy
    import scipy
    from scipy.optimize._highspy import _core as highs

    commit = _git("rev-parse", "HEAD") if (ROOT / ".git").exists() else None
    status = _git("status", "--porcelain", "--untracked-files=no") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "source_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": f"{highs.HIGHS_VERSION_MAJOR}.{highs.HIGHS_VERSION_MINOR}."
                 f"{highs.HIGHS_VERSION_PATCH}",
        "server_env": {"REPRO_*": "unset (defaults)", **PINNED_ENV},
    }


# -- output -----------------------------------------------------------------------------------


def _finite(value: float) -> float:
    return value if math.isfinite(value) else 0.0


def report(title: str, values: dict[str, tuple[float, str, int]]) -> None:
    print(f"# {title}")
    for name, (value, unit, samples) in values.items():
        shown = "n/a" if not math.isfinite(value) else f"{value:.6g}"
        print(f"{name:<40} {shown:>14} {unit:<6} n={samples}")


def failures(outcomes: list[Outcome]) -> None:
    for outcome in outcomes:
        if outcome.error is not None:
            print(f"FAILED {outcome.request_id} {outcome.problem.key} "
                  f"{outcome.problem.method}: {outcome.error}")


def _exit_on_sigterm(signum: int, frame: object) -> None:
    # SystemExit unwinds through the ``with Server`` blocks, which stop the
    # server subprocess before this process exits.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    refused = refused_environment(dict(os.environ))
    if refused:
        print(f"error: {', '.join(refused)} distort timings; unset them to benchmark",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE_PATH.read_text())["answers"]
    items = workload.sequence(args.seed, args.seconds)
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# seed {args.seed}, {len(items)} timed requests over {workload.clients} "
          f"connection(s), {workload.blocks_for(args.seconds)} block(s)")
    print("# stamp " + json.dumps(stamp(), sort_keys=True))

    if args.trace == 0:
        run = measure(workload, items, reference, traced=False, setups=SETUP_REPEATS)
        values = end_to_end(run)
        report("end-to-end (untraced)", values)
        report("also measured", extras(run))
        checked = run.warmup + run.outcomes
        untraced = run
    else:
        untraced = measure(workload, items, reference, traced=False)
        run = measure(workload, items, reference, traced=True)
        values = per_layer(untraced, run)
        report("per-layer (traced)", values)
        checked = untraced.warmup + untraced.outcomes + run.warmup + run.outcomes
    tail_level, _ = metrics.tail([o.latency_s for o in untraced.outcomes])
    print(f"# latency_tail_s is p{tail_level:.4g} of {len(untraced.outcomes)} untraced samples")
    failures(checked)
    failed = sum(1 for outcome in checked if outcome.error is not None)
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {
            name: {"value": _finite(value), "unit": unit}
            for name, (value, unit, _) in values.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
