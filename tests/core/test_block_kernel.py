"""The Naive+prov block kernel keeps the per-candidate contract.

:class:`NaiveProvenanceSearch` evaluates a block of consecutive candidates in
a few NumPy calls.  :class:`NaiveSearch` on the sqlite backend evaluates one
candidate at a time and is the reference; ``NaiveSearch`` on the memory
backend must give its answers exactly too.  On small instances of every
registered dataset the two must agree bit for bit on the refinement, its
distance and its deviation, and exactly on the candidates examined and on
exhaustion: over the whole space and under a candidate budget that cuts
inside a block.  They must also agree on the racing hooks: the
incumbent stream call for call, and cancellation between blocks.  The
kernel's blocks list the candidates of ``RefinementSpace.enumerate()`` in its
order, and its predicate-distance terms sum to ``evaluate_refinement`` bit
for bit.
"""

from __future__ import annotations

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core import (
    ConstraintSet,
    NaiveProvenanceSearch,
    NaiveSearch,
    at_least,
    at_most,
    naive,
)
from repro.core.distances import PredicateDistance
from repro.core.naive import _improvements
from repro.core.refinement import Refinement, RefinementSpace
from repro.datasets import load_dataset, scale_database
from repro.datasets.registry import DATASET_BUILDERS
from repro.provenance.lineage import annotate
from repro.relational import SPJQuery
from repro.relational.predicates import CategoricalPredicate, Conjunction

#: The differential oracle's instance sizes: spaces of tens to thousands.
INSTANCE_SIZES = {
    "meps": {"num_rows": 20},
    "students": {},
    "tpch": {"scale_factor": 0.005},
    "law_students": {"num_rows": 8},
    "astronauts": {"num_rows": 6},
}

#: Two constraints per instance, with different prefixes and bound types,
#: that some candidates meet and others miss.
CONSTRAINTS = {
    "meps": [at_least(2, 4, Sex="M"), at_most(1, 2, Race="White")],
    "students": [at_least(2, 4, Gender="F"), at_most(1, 3, Income="High")],
    "tpch": [at_least(1, 3, MktSegment="AUTOMOBILE"), at_most(1, 2, OrderPriority="2-HIGH")],
    "law_students": [at_least(1, 3, Sex="F"), at_most(1, 2, Race="White")],
    "astronauts": [at_least(1, 2, Gender="F"), at_least(1, 3, Status="Active")],
}

#: Larger instances (the parity suite's sizes) for the enumeration order.
ORDER_SIZES = {
    "students": {},
    "astronauts": {"num_rows": 120},
    "law_students": {"num_rows": 400},
    "meps": {"num_rows": 400},
    "tpch": {"scale_factor": 0.05},
}

#: Candidates compared per space in the order tests.
ORDER_PREFIX = 3000

_BUNDLES: dict = {}


def _instance(name, sizes=INSTANCE_SIZES):
    key = (name, tuple(sorted(sizes[name].items())))
    if key not in _BUNDLES:
        _BUNDLES[key] = load_dataset(name, **sizes[name])
    return _BUNDLES[key]


def _result(search):
    result = search.search()
    return (
        result.feasible,
        result.refinement,
        result.distance_value,
        result.deviation,
        result.candidates_examined,
        result.exhausted,
        result.space_size,
    )


def _pair(name, **options):
    """``(NaiveSearch on sqlite, NaiveProvenanceSearch)`` outcomes."""
    bundle = _instance(name)
    constraints = ConstraintSet(CONSTRAINTS[name])
    truth = NaiveSearch(
        bundle.database, bundle.query, constraints, executor_backend="sqlite", **options
    )
    prov = NaiveProvenanceSearch(bundle.database, bundle.query, constraints, **options)
    return _result(truth), _result(prov)


def _prepared(bundle, constraints, **options) -> NaiveProvenanceSearch:
    """A search whose kernel is built (no candidate examined)."""
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0, **options
    )
    search.search()
    assert search._kernel is not None
    return search


def _inside_a_block(name) -> int:
    """A budget that ends strictly inside an evaluated block."""
    bundle = _instance(name)
    search = _prepared(bundle, ConstraintSet(CONSTRAINTS[name]))
    start = 0
    for block in search._kernel.blocks():
        if block.base is not None and block.size > 1:
            return start + block.size // 2
        start += block.size
    raise AssertionError(f"{name}: no evaluated block of two or more candidates")


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_full_space_matches_per_candidate_naive(name, distance, epsilon):
    truth, prov = _pair(name, distance=distance, epsilon=epsilon)
    assert prov == truth
    assert prov[5], "the whole space is examined"


@pytest.mark.parametrize("epsilon", [0.0, 0.5])
@pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_memory_naive_matches_the_sqlite_reference(name, distance, epsilon):
    """``NaiveSearch`` on the memory backend's columnar engine, one
    evaluation per candidate, gives the reference's answers exactly."""
    bundle = _instance(name)
    constraints = ConstraintSet(CONSTRAINTS[name])
    truth, memory = (
        _result(
            NaiveSearch(
                bundle.database,
                bundle.query,
                constraints,
                distance=distance,
                epsilon=epsilon,
                executor_backend=backend,
            )
        )
        for backend in ("sqlite", "memory")
    )
    assert memory == truth
    assert memory[5], "the whole space is examined"


@pytest.mark.parametrize("distance", ["pred", "jaccard"])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_budget_cutting_inside_a_block_matches(name, distance):
    budget = _inside_a_block(name)
    truth, prov = _pair(name, distance=distance, epsilon=0.5, max_candidates=budget)
    assert prov == truth
    assert prov[4] == budget


@pytest.mark.parametrize("distance", ["pred", "jaccard"])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_rows_packed_per_block_match_the_tables(monkeypatch, name, distance):
    """A dimension whose table would pass ``_MAX_TABLE_BYTES`` packs the rows
    of the values each block uses instead; the answers stay the same."""
    monkeypatch.setattr(naive, "_MAX_TABLE_BYTES", 0)
    truth, prov = _pair(name, distance=distance, epsilon=0.5)
    assert prov == truth


# -- enumeration order ---------------------------------------------------------------


def _listed(search, limit=ORDER_PREFIX):
    """Pair the kernel's blocks with ``enumerate()``, candidate by candidate.

    A block the kernel skips (its outer values leave fewer than ``k*`` rows)
    lists no candidates of its own: the enumerated candidates it covers must
    carry its outer values.
    """
    space = search._space
    enumerated = space.enumerate()
    compared = 0
    for block in search._kernel.blocks():
        take = min(block.size, limit - compared)
        if block.base is None:
            prefix = tuple(dimension.values[position] for dimension, position in block.outer)
            for refinement in itertools.islice(enumerated, take):
                values = _values(space, refinement)
                assert values[: len(prefix)] == prefix
        else:
            for candidate in range(take):
                assert space.refinement(block.values(candidate)) == next(enumerated)
        compared += take
        if compared >= limit:
            break
    else:
        assert next(enumerated, None) is None, "the blocks end with the enumeration"
    return compared


def _values(space, refinement):
    values = []
    for key in space.dimensions():
        if isinstance(key, tuple):
            values.append(refinement.numerical[key])
        else:
            values.append(refinement.categorical[key])
    return tuple(values)


def _order_search(name, skipping=False):
    """A prepared search over a larger instance.  Unless ``skipping``, its
    kernel skips no run, so every candidate is listed by its block."""
    bundle = _instance(name, ORDER_SIZES)
    group = CONSTRAINTS[name][0].group.conditions
    search = _prepared(bundle, ConstraintSet([at_least(1, 3, **group)]))
    if not skipping:
        search._kernel._k_star = 0
    return search


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_blocks_list_the_enumeration_in_order(name):
    search = _order_search(name)
    compared = _listed(search)
    assert compared == min(ORDER_PREFIX, search._space.size())


def _first_outer_value(block):
    dimension, position = block.outer[0]
    return dimension.values[position]


def test_skipped_runs_keep_their_place_in_the_order():
    search = _order_search("law_students", skipping=True)
    assert sum(block.size for block in search._kernel.blocks()) == search._space.size()
    # From the start through the whole run of the first outer value with an
    # evaluated block: the leading skipped runs, then a run that mixes
    # skipped and evaluated blocks.
    blocks, run = [], None
    for block in search._kernel.blocks():
        if run is not None and _first_outer_value(block) != run:
            break
        blocks.append(block)
        if run is None and block.base is not None:
            run = _first_outer_value(block)
    assert any(block.base is None for block in blocks)
    assert any(block.base is not None for block in blocks)
    mixed = [block for block in blocks if _first_outer_value(block) == run]
    assert any(block.base is None for block in mixed)
    _listed(search, limit=sum(block.size for block in blocks))


# -- racing hooks --------------------------------------------------------------------


@pytest.mark.parametrize("distance", ["pred", "jaccard", "kendall"])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_incumbent_stream_matches_per_candidate_naive(name, distance):
    bundle = _instance(name)
    constraints = ConstraintSet(CONSTRAINTS[name])
    streams = []
    for search_class, options in (
        (NaiveSearch, {"executor_backend": "sqlite"}),
        (NaiveProvenanceSearch, {}),
    ):
        calls = []
        search_class(
            bundle.database,
            bundle.query,
            constraints,
            epsilon=0.5,
            distance=distance,
            on_incumbent=lambda *incumbent, calls=calls: calls.append(incumbent),
            **options,
        ).search()
        streams.append(calls)
    assert streams[1] == streams[0]
    assert streams[0], "the stream is not empty"


def test_stop_requested_before_the_first_block_examines_nothing():
    bundle = _instance("law_students")
    result = NaiveProvenanceSearch(
        bundle.database,
        bundle.query,
        ConstraintSet(CONSTRAINTS["law_students"]),
        should_stop=lambda: True,
    ).search()
    assert result.cancelled
    assert not result.exhausted
    assert result.candidates_examined == 0


def test_stop_requested_mid_search_ends_it_within_one_block():
    bundle = _instance("law_students")
    constraints = ConstraintSet(CONSTRAINTS["law_students"])
    sizes = [block.size for block in _prepared(bundle, constraints)._kernel.blocks()]
    assert len(sizes) > 3
    polls = []

    def should_stop():
        polls.append(None)
        return len(polls) > 2

    result = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, should_stop=should_stop
    ).search()
    assert result.cancelled
    assert not result.exhausted
    assert result.candidates_examined == sizes[0] + sizes[1]


@pytest.mark.parametrize("distance", ["jaccard", "kendall"])
def test_outcome_distances_build_a_refinement_only_for_an_improvement(monkeypatch, distance):
    """Counted, not timed: under Jaccard and Kendall the sweep reads each
    feasible candidate's distance off its positions over ``~Q(D)``; it
    builds a Refinement only for an improvement and applies none."""
    calls: Counter = Counter()
    sweeping: list = []
    for name in ("__post_init__", "apply"):

        def counted(*args, _real=getattr(Refinement, name), _name=name, **kwargs):
            calls[_name, bool(sweeping)] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(Refinement, name, counted)
    sweep = NaiveProvenanceSearch._sweep

    def counted_sweep(search):
        sweeping.append(search)
        try:
            return sweep(search)
        finally:
            sweeping.pop()

    monkeypatch.setattr(NaiveProvenanceSearch, "_sweep", counted_sweep)
    bundle = load_dataset("meps", num_rows=1200)
    improvements = []
    result = NaiveProvenanceSearch(
        bundle.database,
        bundle.query,
        ConstraintSet([at_least(5, 10, Sex="F")]),
        epsilon=0.5,
        distance=distance,
        on_incumbent=lambda *incumbent: improvements.append(incumbent),
    ).search()
    assert result.exhausted
    assert result.candidates_examined == result.space_size > 1000
    assert len(improvements) > 1
    assert calls["__post_init__", True] == len(improvements)
    assert calls["apply", True] == 0
    assert result.refinement is improvements[-1][1]


def test_stop_is_polled_between_outcome_distance_evaluations():
    """Jaccard evaluates each feasible candidate on its own, so a block of
    them polls the stop hooks inside it, not only before it."""
    bundle = _instance("students")  # one block, 112 feasible, optimum 0.4
    constraints = ConstraintSet(CONSTRAINTS["students"])
    blocks = list(_prepared(bundle, constraints, distance="jaccard")._kernel.blocks())
    assert len(blocks) == 1
    polls = []

    def should_stop():
        polls.append(None)
        return len(polls) > 1

    result = NaiveProvenanceSearch(
        bundle.database,
        bundle.query,
        constraints,
        distance="jaccard",
        should_stop=should_stop,
    ).search()
    assert result.cancelled
    assert 0 < result.candidates_examined < blocks[0].size
    assert len(polls) == 2


def _per_candidate_rule(distances, best):
    accepted = []
    for index, value in enumerate(distances):
        if best is None or value < best - 1e-12:
            best = value
            accepted.append(index)
    return accepted


def test_near_ties_follow_the_strict_improvement_rule():
    distances = [1.0, 1.0 - 5e-13, 1.0 - 1.2e-12]
    assert _improvements(np.array(distances), None) == [0, 2]
    for best in (None, 1.0 + 5e-13, 1.0 + 1.5e-12, 1.0):
        assert _improvements(np.array(distances), best) == _per_candidate_rule(
            distances, best
        )
    rng = np.random.default_rng(0)
    for _ in range(200):
        run = rng.choice([0.5, 0.5 - 4e-13, 0.5 - 9e-13, 0.5 - 2e-12, 1.0], size=12)
        assert _improvements(run, None) == _per_candidate_rule(run.tolist(), None)


# -- predicate distance ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_distance_terms_sum_to_evaluate_refinement_bit_for_bit(name):
    bundle = _instance(name)
    search = _prepared(bundle, ConstraintSet(CONSTRAINTS[name]))
    kernel = search._kernel
    kernel._k_star = 0  # no run is skipped: every candidate gets a distance
    distance = PredicateDistance()
    checked = 0
    for block in kernel.blocks():
        values = kernel.distances(block, np.arange(block.size))
        for candidate in range(block.size):
            refinement = search._space.refinement(block.values(candidate))
            expected = distance.evaluate_refinement(bundle.query, refinement)
            assert float(values[candidate]).hex() == expected.hex()
        checked += block.size
    assert checked == search._space.size()


# -- space size --------------------------------------------------------------------------


def _with_region(bundle, values) -> SPJQuery:
    """The law_students query with ``Region IN values``."""
    where = [
        predicate.with_values(frozenset(values))
        if isinstance(predicate, CategoricalPredicate)
        else predicate
        for predicate in bundle.query.where
    ]
    query = bundle.query
    return SPJQuery(
        tables=query.tables,
        where=Conjunction(where),
        order_by=query.order_by,
        select=query.select,
        distinct=query.distinct,
        name=query.name,
    )


def test_space_counts_subsets_when_an_original_value_has_no_tuple():
    bundle = _instance("law_students")
    query = _with_region(bundle, {"GL", "ZZ"})
    space = RefinementSpace(query, annotate(query, bundle.database))
    assert space.size() == sum(1 for _ in space.enumerate()) == 6720
    constraints = ConstraintSet(CONSTRAINTS["law_students"])

    def run(**options):
        return NaiveProvenanceSearch(
            bundle.database, query, constraints, **options
        ).search()

    assert run().candidates_examined == run().space_size == 6720
    assert run(max_candidates=3150).candidates_examined == 3150


def test_space_counts_the_synthesized_tpch_copy_without_its_region():
    bundle = _instance("tpch")
    database = scale_database(bundle.database, 1.0, seed=1)
    space = RefinementSpace(bundle.query, annotate(bundle.query, database))
    assert space.size() == sum(1 for _ in space.enumerate()) == 2
