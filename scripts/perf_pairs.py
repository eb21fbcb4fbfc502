#!/usr/bin/env python
"""Summarise alternating perfbench runs the way the acceptance rule reads them.

Each input file holds the final JSON line of one ``perfbench/run.py --trace 0``
run (a file with the whole output works too: its last line is read).  The
parent's runs and the change's runs are paired in the order given, so run
them alternately: parent, change, parent, change, ...

For every end-to-end metric of ``BENCHMARK.json`` the table shows both
medians with their quartiles, how many pairs the change wins (ties count for
neither side) and a verdict:

``gain``
    at least 9 wins in 10 pairs, and a median gap larger than the parent's
    interquartile range;
``worse``
    the change's median is worse than the parent's by more than the metric's
    bound (relative to the parent's median);
``unresolved``
    either side's interquartile range, relative to its median, is wider than
    the bound, unless every change run beats every parent run;
``flat``
    none of the above.

Below the table both sides' failed answers are counted.  When the change
fails a larger share of the answers it attempted than the parent did, the
last line is the verdict ``failures``.  The exit status is 1 when any metric
is ``worse`` or the verdict is ``failures``.  Usage::

    python scripts/perf_pairs.py --workload exhaustive_warm \\
        --parent p1.json p2.json ... --change c1.json c2.json ...
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Share of pairs the change must win to claim a gain (9 of 10).
GAIN_WINS = 0.9


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Summary:
    metric: Metric
    parent: tuple[float, float, float]
    change: tuple[float, float, float]
    wins: int
    pairs: int
    verdict: str


def load_metrics(path: Path) -> list[Metric]:
    """The end-to-end metrics declared in ``BENCHMARK.json``."""
    declared = json.loads(path.read_text())
    return [
        Metric(entry["name"], entry["unit"], entry["better"], float(entry["bound"]))
        for entry in declared["end_to_end"]
    ]


def load_run(path: Path) -> dict:
    """The result object on the last non-empty line of one run's output."""
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"{path}: empty")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(first quartile, median, third quartile)``."""
    if len(values) == 1:
        return (values[0], values[0], values[0])
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return (first, median, third)


def _relative_spread(stats: tuple[float, float, float]) -> float:
    first, median, third = stats
    spread = third - first
    if median == 0:
        return 0.0 if spread == 0 else math.inf
    return spread / abs(median)


def summarise(metric: Metric, parent: list[float], change: list[float]) -> Summary:
    """The verdict on one metric over paired runs."""
    sign = 1.0 if metric.better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for old, new in pairs if sign * (new - old) > 0)
    parent_stats, change_stats = quartiles(parent), quartiles(change)
    gap = sign * (change_stats[1] - parent_stats[1])
    every_run_beats = all(
        sign * (new - old) > 0 for new in change for old in parent
    )
    if -gap > metric.bound * abs(parent_stats[1]):
        verdict = "worse"
    elif not every_run_beats and max(
        _relative_spread(parent_stats), _relative_spread(change_stats)
    ) > metric.bound:
        verdict = "unresolved"
    elif wins >= GAIN_WINS * len(pairs) and gap > parent_stats[2] - parent_stats[0]:
        verdict = "gain"
    else:
        verdict = "flat"
    return Summary(metric, parent_stats, change_stats, wins, len(pairs), verdict)


def _values(runs: list[dict], name: str) -> list[float] | None:
    values = []
    for run in runs:
        entry = run.get("metrics", {}).get(name)
        if entry is None or entry.get("value") is None:
            return None
        values.append(float(entry["value"]))
    return values


def _shown(stats: tuple[float, float, float]) -> str:
    first, median, third = stats
    return f"{median:.4g} [{first:.4g}, {third:.4g}]"


def render(workload: str, summaries: list[Summary], parent: list[dict], change: list[dict]) -> str:
    """A Markdown table of the summaries, with the failure counts of both sides."""
    lines = [
        f"workload `{workload}`: {len(parent)} parent runs, {len(change)} change runs, "
        "paired in the order given",
        "",
        "| metric | better | bound | parent median [q1, q3] | change median [q1, q3] "
        "| change wins | verdict |",
        "| --- | --- | --- | --- | --- | --- | --- |",
    ]
    for summary in summaries:
        metric = summary.metric
        lines.append(
            f"| `{metric.name}` ({metric.unit}) | {metric.better} | {metric.bound:g} "
            f"| {_shown(summary.parent)} | {_shown(summary.change)} "
            f"| {summary.wins} of {summary.pairs} | {summary.verdict} |"
        )
    for side, runs in (("parent", parent), ("change", change)):
        failed, attempted = failures(runs)
        lines.append("")
        lines.append(f"{side}: {failed} of {attempted} answers failed")
    if fails_more(parent, change):
        lines.append("")
        lines.append("verdict `failures`: the change fails a larger share of answers")
    return "\n".join(lines)


def failures(runs: list[dict]) -> tuple[int, int]:
    """``(failed, attempted)`` answers over ``runs``."""
    return (
        sum(int(run.get("failed", 0)) for run in runs),
        sum(int(run.get("attempted", 0)) for run in runs),
    )


def fails_more(parent: list[dict], change: list[dict]) -> bool:
    """Whether the change fails a larger share of its answers than the parent."""

    def share(runs: list[dict]) -> float:
        failed, attempted = failures(runs)
        return failed / attempted if attempted else 0.0

    return share(change) > share(parent)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="the workload the runs measured")
    parser.add_argument("--parent", nargs="+", type=Path, required=True,
                        help="the parent's runs, in the order they ran")
    parser.add_argument("--change", nargs="+", type=Path, required=True,
                        help="the change's runs, in the order they ran")
    parser.add_argument("--benchmark", type=Path, default=REPO_ROOT / "BENCHMARK.json",
                        help="the benchmark declaration (default: the repo's)")
    args = parser.parse_args(argv)
    if len(args.parent) != len(args.change):
        parser.error("give as many parent runs as change runs: they are paired")
    parent = [load_run(path) for path in args.parent]
    change = [load_run(path) for path in args.change]
    summaries = []
    for metric in load_metrics(args.benchmark):
        old, new = _values(parent, metric.name), _values(change, metric.name)
        if old is None or new is None:
            continue
        summaries.append(summarise(metric, old, new))
    print(render(args.workload, summaries, parent, change))
    worse = any(summary.verdict == "worse" for summary in summaries)
    return 1 if worse or fails_more(parent, change) else 0


if __name__ == "__main__":
    sys.exit(main())
