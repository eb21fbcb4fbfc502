"""Turning samples and trace summaries into named metrics."""

from __future__ import annotations

import math
import statistics

#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def median(values: list[float]) -> float:
    return statistics.median(values) if values else math.nan


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with ten samples beyond it.

    With ``n`` sorted samples that is the ``(n - 10)``-th smallest, the
    ``100 * (n - 10) / n`` percentile by nearest rank.  With ten samples or
    fewer no percentile qualifies and the maximum is returned as ``p100``.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1] if ordered else math.nan
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, ordered[rank - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else math.nan


def layer_totals(summaries: list[dict]) -> tuple[dict[str, list[float]], dict[str, float]]:
    """Per span name ``[count, total_s, self_s]`` and counters, summed."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    for summary in summaries:
        for name, (count, total, own) in summary["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += count
            entry[1] += total
            entry[2] += own
        for key, value in summary["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return spans, counters


def per_layer(summaries: list[dict], setup: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of the traced run.

    Times are self times (span time minus what its children cover) in
    seconds per request, so the layers of a request add up to its wall time;
    counts are per request too, and ``setup.*`` metrics are totals over the
    server's warm up.
    """
    spans, counters = layer_totals(summaries)
    requests = len(summaries)

    def self_s(name: str) -> float:
        return ratio(spans.get(name, [0, 0.0, 0.0])[2], requests)

    def count(name: str) -> float:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def counter(key: str) -> float:
        return counters.get(key, 0)

    races = counter("portfolio.races")
    setup_spans = setup.get("spans", {})
    metrics: dict[str, tuple[float, str]] = {
        "server.handle_self_s": (self_s("server.handle"), "s"),
        "admission.wait_s": (self_s("admission.wait"), "s"),
        "admission.shed": (counter("admission.shed"), "count"),
        "engine.refine_self_s": (self_s("engine.refine"), "s"),
        "coalesce.joined_share": (
            ratio(counter("coalesce.runs") - counter("coalesce.led"), counter("coalesce.runs")),
            "share",
        ),
        "session.acquire_s": (self_s("session.acquire") + self_s("session.prepared_milp"), "s"),
        "session.prepared_hit_ratio": (
            ratio(
                counter("session.prepared_lookups") - counter("session.prepared_misses"),
                counter("session.prepared_lookups"),
            ),
            "share",
        ),
        "executor.evaluate_s": (self_s("executor.evaluate"), "s"),
        "executor.evaluate_calls": (ratio(count("executor.evaluate"), requests), "count"),
        "lineage.annotate_s": (self_s("lineage.annotate"), "s"),
        "naive.search_s": (self_s("naive.search"), "s"),
        "naive.examined_ratio": (
            ratio(counter("naive.examined"), counter("naive.space")), "share"
        ),
        "prune.s": (self_s("prune"), "s"),
        "prune.kept_ratio": (ratio(counter("prune.kept"), counter("prune.input")), "share"),
        "solver.prepare_self_s": (self_s("solver.prepare"), "s"),
        "builder.build_s": (self_s("builder.build"), "s"),
        "builder.builds_per_request": (ratio(count("builder.build"), requests), "count"),
        "model.lower_s": (self_s("model.lower"), "s"),
        "model.full_lowerings": (ratio(counter("model.full_lowerings"), requests), "count"),
        "model.incremental_extensions": (
            ratio(counter("model.incremental_extensions"), requests), "count"
        ),
        "backend.solve_s": (self_s("backend.solve") + self_s("highs.run"), "s"),
        "backend.solves_per_request": (ratio(count("highs.run"), requests), "count"),
        "backend.failed": (
            counter("backend.failed") + counter("backend.solve.errors"), "count"
        ),
        "cut_loop.separate_self_s": (self_s("cut_loop") + self_s("cut_loop.separate"), "s"),
        "cut_loop.rounds": (ratio(counter("cut_loop.rounds"), requests), "count"),
        "cut_loop.rows_generated_ratio": (
            ratio(counter("cut_loop.rows_generated"), counter("cut_loop.pool_rows")), "share"
        ),
        "solver.extract_self_s": (self_s("solver.solve"), "s"),
        "portfolio.race_self_s": (self_s("portfolio.race"), "s"),
        "portfolio.milp_slices_per_race": (
            ratio(counter("portfolio.milp_slices"), races), "count"
        ),
        "portfolio.verify_s": (self_s("portfolio.verify"), "s"),
        "setup.lineage.annotate_s": (setup_spans.get("lineage.annotate", [0, 0.0])[1], "s"),
        "setup.naive.mask_index_s": (setup_spans.get("naive.mask_index", [0, 0.0])[1], "s"),
        "setup.executor.evaluate_s": (setup_spans.get("executor.evaluate", [0, 0.0])[1], "s"),
    }
    coverage = [summary["coverage"] for summary in summaries if "coverage" in summary]
    metrics["trace.coverage_p50"] = (median(coverage), "share")
    metrics["trace.coverage_min"] = (min(coverage) if coverage else math.nan, "share")
    return metrics


#: Counts that must repeat exactly on two traced runs of one seed: each is a
#: sum over the run's fixed request list, with no timing inside.
DETERMINISTIC_COUNTS = {
    "count.cut_loop.rounds": "cut_loop.rounds",
    "count.cut_loop.rows_generated": "cut_loop.rows_generated",
    "count.backend.solves": "highs.run",
    "count.builder.builds": "builder.build",
    "count.model.full_lowerings": "model.full_lowerings",
    "count.model.incremental_extensions": "model.incremental_extensions",
}


def deterministic_counts(summaries: list[dict], examined: int) -> dict[str, tuple[float, str]]:
    """The count series; ``examined`` (candidates) comes from the answers,
    which a coalesced request shares with the solve it joined."""
    spans, counters = layer_totals(summaries)
    result = {}
    for name, source in DETERMINISTIC_COUNTS.items():
        value = spans[source][0] if source in spans else counters.get(source, 0)
        result[name] = (float(value), "count")
    result["count.naive.examined"] = (float(examined), "count")
    return result
