"""Tests of the benchmark's own logic (no server is started)."""

from __future__ import annotations

import importlib
import random
import threading
from collections import OrderedDict

import pytest

from perfbench import metrics, tracing
from perfbench.driver import check
from perfbench.workloads import PREPARED_CACHE_SIZE, WORKLOADS, Problem, cost, spread


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]  # 40 samples: the 30th value has 10 beyond
    level, value = metrics.tail(values)
    assert value == 30.0
    assert level == 75.0
    assert sum(1 for v in values if v > value) == 10


@pytest.mark.parametrize("n", [11, 27, 100, 1000])
def test_tail_leaves_exactly_ten_samples_beyond(n):
    values = [float(v) for v in range(n, 0, -1)]  # unsorted input
    _, value = metrics.tail(values)
    assert sum(1 for v in values if v > value) == 10


def test_tail_of_ten_samples_or_fewer_is_the_maximum():
    assert metrics.tail([3.0, 1.0, 2.0]) == (100.0, 3.0)


def _span(span_id, name, start, end, parent=None, thread=1):
    return tracing.Span(name=name, start=start, end=end, span_id=span_id, parent=parent,
                        request="r0", thread=thread)


def test_self_time_subtracts_the_union_of_overlapping_children():
    spans = [
        _span(1, "portfolio.race", 0.0, 10.0),
        # Two engine threads overlap each other between 2 and 5 ...
        _span(2, "portfolio.engine", 1.0, 5.0, parent=1, thread=2),
        _span(3, "portfolio.engine", 2.0, 7.0, parent=1, thread=3),
        # ... and a child on the race thread runs after both.
        _span(4, "portfolio.verify", 8.0, 9.0, parent=1),
        # A grandchild only counts against its own parent.
        _span(5, "solver.solve", 1.5, 4.0, parent=2, thread=2),
    ]
    selves = tracing.self_times(spans)
    assert selves[1] == pytest.approx(10.0 - 6.0 - 1.0)
    assert selves[2] == pytest.approx(4.0 - 2.5)
    assert selves[3] == pytest.approx(5.0)
    assert selves[5] == pytest.approx(2.5)


def test_self_time_clips_children_that_outlive_their_parent():
    spans = [_span(1, "portfolio.race", 0.0, 2.0),
             _span(2, "portfolio.engine", 1.0, 3.5, parent=1, thread=2)]
    assert tracing.self_times(spans)[1] == pytest.approx(1.0)


def test_engine_thread_spans_attach_to_the_race_span():
    recorder = tracing.Recorder()
    race = recorder.begin("portfolio.race", request="r7")
    context = recorder.context()

    def engine():
        recorder.adopt(context)
        span = recorder.begin("portfolio.engine")
        recorder.end(span)

    thread = threading.Thread(target=engine)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.end(race)
    spans = recorder._spans["r7"]
    engine_span = next(span for span in spans if span.name == "portfolio.engine")
    assert engine_span.parent == race.span_id
    assert engine_span.thread != race.thread


def test_summary_counts_self_time_and_milp_slices_under_engines():
    spans = [
        _span(1, "server.handle", 0.0, 4.0),
        _span(2, "portfolio.race", 0.5, 3.5, parent=1),
        _span(3, "portfolio.engine", 0.6, 3.0, parent=2, thread=2),
        _span(4, "solver.solve", 0.7, 1.5, parent=3, thread=2),
        _span(5, "solver.solve", 1.5, 2.5, parent=3, thread=2),
    ]
    summary = tracing.summarize(spans)
    assert summary["counters"]["portfolio.milp_slices"] == 2
    assert summary["spans"]["solver.solve"][0] == 2
    assert summary["wall_s"] == pytest.approx(4.0)
    assert summary["coverage"] == pytest.approx(3.0 / 4.0)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_sequence_is_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    assert workload.sequence(3, 25) == workload.sequence(3, 25)
    assert workload.sequence(3, 25) != workload.sequence(4, 25)


def _prepared_cache_hits(items, warmup):
    """Replay ``items`` through an LRU shaped like the session's prepared-MILP cache."""
    caches: dict[str, OrderedDict] = {}
    hits = []
    for problem in [*warmup, *(item.problem for item in items)]:
        cache = caches.setdefault(problem.dataset, OrderedDict())
        hits.append(problem.cache_key in cache)
        cache[problem.cache_key] = True
        cache.move_to_end(problem.cache_key)
        while len(cache) > PREPARED_CACHE_SIZE:
            cache.popitem(last=False)
    return hits[len(warmup):]


@pytest.mark.parametrize("seed", range(5))
def test_repeat_share_is_as_declared_and_every_repeat_is_a_cache_hit(seed):
    workload = WORKLOADS["milp_mix"]
    items = workload.sequence(seed, workload.block_seconds)
    declared = sum(slot.repeats for slot in workload.slots)
    assert sum(item.repeat for item in items) == declared
    assert len(items) == sum(slot.count for slot in workload.slots) + declared
    assert 0.3 < declared / len(items) < 0.36  # "about a third"
    hits = _prepared_cache_hits(items, workload.warmup)
    assert hits == [item.repeat for item in items]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_slot_draws_one_problem_per_cost_stratum(name):
    for slot in WORKLOADS[name].slots:
        ordered = sorted(slot.pool, key=lambda problem: (cost(problem), problem.name))
        bounds = [index * len(ordered) // slot.count for index in range(slot.count + 1)]
        for seed in range(5):
            drawn, repeated, twins = slot.draw(random.Random(seed))
            for stratum, problem in enumerate(drawn):
                assert bounds[stratum] <= ordered.index(problem) < bounds[stratum + 1]
            assert [drawn.index(problem) for problem in repeated] == spread(slot.repeats,
                                                                            slot.count)
            assert twins == set(spread(slot.twins, slot.count))


def test_every_problem_has_a_stored_cost():
    for workload in WORKLOADS.values():
        for slot in workload.slots:
            assert all(cost(problem) > 0 for problem in slot.pool)


def test_twin_share_is_as_declared():
    workload = WORKLOADS["exhaustive_warm"]
    items = workload.sequence(0, workload.block_seconds)
    assert sum(item.twin for item in items) == sum(slot.twins for slot in workload.slots)


def test_install_and_uninstall_restore_every_wrapped_callable():
    def current(layer):
        module = importlib.import_module(layer.module)
        owner_name, _, attribute = layer.attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        return owner.__dict__[attribute]

    importlib.import_module("repro.service.server")
    before = {layer: current(layer) for layer in tracing.LAYERS}
    importers = {
        name: module.annotate
        for name, module in (
            ("solver", importlib.import_module("repro.core.solver")),
            ("session", importlib.import_module("repro.service.session")),
        )
    }
    patches = tracing.install(tracing.Recorder())
    try:
        for layer in tracing.LAYERS:
            assert current(layer) is not before[layer]
        assert importlib.import_module("repro.core.solver").annotate is not importers["solver"]
    finally:
        tracing.uninstall(patches)
    for layer in tracing.LAYERS:
        assert current(layer) is before[layer]
    assert importlib.import_module("repro.core.solver").annotate is importers["solver"]
    assert importlib.import_module("repro.service.session").annotate is importers["session"]


MILP = Problem("tpch", (0,), 10, 0.5, "pred", "milp+opt")
RACE = Problem("astronauts", (0,), 10, 0.5, "pred", "portfolio", deadline_s=1.0)
REFERENCE = {"feasible": True, "objective": 0.5, "distance": 0.5}


def test_check_accepts_a_matching_answer_and_rejects_a_wrong_objective():
    body = {"status": "ok", "feasible": True, "deviation": 0.2, "objective_value": 0.5}
    assert check(MILP, REFERENCE, 200, body) == (None, True)
    error, _ = check(MILP, REFERENCE, 200, dict(body, objective_value=0.75))
    assert "objective" in error
    error, _ = check(MILP, REFERENCE, 200, dict(body, deviation=0.6))
    assert "deviation" in error
    error, _ = check(MILP, REFERENCE, 429, {"error": "queue full"})
    assert "429" in error


def test_check_rejects_a_race_that_beats_the_reference():
    body = {"status": "ok", "feasible": True, "deviation": 0.0, "distance_value": 0.25,
            "race": {"proven_optimal": False}}
    error, _ = check(RACE, REFERENCE, 200, body)
    assert "beats" in error
    worse = dict(body, distance_value=0.75)
    assert check(RACE, REFERENCE, 200, worse) == (None, False)
    proven = dict(worse, race={"proven_optimal": True})
    assert "proven" in check(RACE, REFERENCE, 200, proven)[0]
