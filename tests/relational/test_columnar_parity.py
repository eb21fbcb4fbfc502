"""Parity suite: the columnar engine must answer as the sqlite backend does.

Two engines answer the same SPJ queries — the memory backend's columnar
engine and the sqlite pushdown backend — and this suite holds the columnar
engine to byte-identical :class:`RankedResult`\\ s (rows, order, value
types, projection, distinct keys, scores) on every registered dataset and on
synthesized copies of each, including DISTINCT ranking queries.  The
``Naive+prov`` block kernel's selected rows are held to sqlite's answer for
each refined query.  On both backends, a prepared query bound to a
candidate's constants answers as sqlite's eager result of the refined query,
top-k group counts included.
"""

from __future__ import annotations

import itertools
import random
import sqlite3

import numpy as np
import pytest

from repro.core import (
    ConstraintSet,
    MaskIndexData,
    NaiveProvenanceSearch,
    NaiveSearch,
    at_least,
)
from repro.core.refinement import Refinement, RefinementSpace
from repro.datasets import scale_database
from repro.datasets.registry import DATASET_BUILDERS, load_dataset
from repro.provenance.lineage import annotate
from repro.relational import (
    CategoricalPredicate,
    Conjunction,
    Database,
    NumericalPredicate,
    QueryExecutor,
    RankedResult,
    Relation,
    Schema,
    SPJQuery,
)
from repro.relational.schema import categorical, numerical

#: Reduced sizes so the whole registry can be evaluated twice per test run.
_SMALL_PARAMETERS = {
    "students": {},
    "astronauts": {"num_rows": 120},
    "law_students": {"num_rows": 400},
    "meps": {"num_rows": 400},
    "tpch": {"scale_factor": 0.05},
}

def _bundle(name):
    return load_dataset(name, **_SMALL_PARAMETERS[name])


def _identical(fast, slow):
    """Byte-identical RankedResults: rows, order, projection, distinct keys."""
    assert fast.relation.schema == slow.relation.schema
    assert fast.projected.schema == slow.projected.schema
    assert fast.relation.rows == slow.relation.rows
    assert fast.projected.rows == slow.projected.rows
    # reprs catch type drift that == would mask (e.g. 34 vs 34.0).
    assert list(map(repr, fast.relation.rows)) == list(map(repr, slow.relation.rows))
    assert fast.top_k_keys(25) == slow.top_k_keys(25)
    assert fast.scores() == slow.scores()


#: DISTINCT projections with plenty of duplicates, per dataset, so the
#: "keep the better-ranked duplicate" semantics is exercised on every engine.
_DISTINCT_SELECTS = {
    "students": ("Gender", "Income"),
    "astronauts": ("Gender", "Status"),
    "law_students": ("Sex", "Race"),
    "meps": ("Sex", "Race"),
    "tpch": ("OrderPriority", "MktSegment"),
}


def _distinct_variant(bundle) -> SPJQuery:
    return SPJQuery(
        tables=bundle.query.tables,
        where=bundle.query.where,
        order_by=bundle.query.order_by,
        select=_DISTINCT_SELECTS[bundle.name],
        distinct=True,
        name=f"{bundle.query.name}_distinct",
    )


def _assert_backends_agree(database, queries):
    for query in queries:
        sqlite = QueryExecutor(database, backend="sqlite").evaluate(query)
        memory = QueryExecutor(database, backend="memory").evaluate(query)
        _identical(memory, sqlite)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines(name):
    """columnar == sqlite on the paper query and its unfiltered ~Q."""
    bundle = _bundle(name)
    _assert_backends_agree(
        bundle.database, (bundle.query, bundle.query.without_selection())
    )


@pytest.mark.parametrize(
    "name, window_functions",
    [pytest.param(name, True, id=name) for name in sorted(DATASET_BUILDERS)]
    + [
        pytest.param(name, False, id=f"{name}-no-window-functions")
        for name in sorted(DATASET_BUILDERS)
    ],
)
def test_sqlite_backend_matches_memory_engines_on_distinct_ranking(
    name, window_functions, monkeypatch
):
    """columnar == sqlite on a DISTINCT ranking projection: de-duplicated
    inside sqlite by a window function, and, as on sqlite before 3.25,
    which has none, by the executor over sqlite's ordered rows."""
    bundle = _bundle(name)
    if not window_functions:
        monkeypatch.setattr(sqlite3, "sqlite_version_info", (3, 24, 0))
        executor = QueryExecutor(bundle.database, backend="sqlite")
        assert not executor._ensure_sqlite().supports_distinct_pushdown
    _assert_backends_agree(bundle.database, (_distinct_variant(bundle),))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_synthesized_copy_matches_sqlite(name, seed):
    """columnar == sqlite on a synthesized copy: sampled values, float-typed
    numerical columns and resampled join keys that no registered dataset has.
    """
    bundle = _bundle(name)
    database = scale_database(bundle.database, 1.0, seed=seed)
    _assert_backends_agree(
        database,
        (bundle.query, bundle.query.without_selection(), _distinct_variant(bundle)),
    )


def _kernel_candidates(search, limit, per_block):
    """``(refined query, selected positions or None)`` for candidates of the
    search's blocks: ``per_block`` evenly spaced candidates of each evaluated
    block, and the first of each run the kernel skips (``None``: fewer than
    ``k*`` rows), until ``limit`` evaluated candidates."""
    space = search._space
    kernel = search._kernel
    evaluated = 0
    for block in kernel.blocks():
        if block.base is None:
            prefix = [dimension.values[position] for dimension, position in block.outer]
            rest = [
                next(space.dimension_values(position))
                for position in range(len(prefix), space.num_dimensions())
            ]
            yield space.refinement(prefix + rest).apply(search.query), None
            continue
        picks = np.linspace(0, block.size - 1, num=min(block.size, per_block))
        for candidate in np.unique(picks.astype(int)).tolist():
            refinement = space.refinement(block.values(candidate))
            yield refinement.apply(search.query), kernel.positions(block, candidate)
            evaluated += 1
            if evaluated >= limit:
                return


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_candidate_mask_evaluation_matches_sqlite(name):
    """The Naive+prov block kernel selects the tuples sqlite returns for each
    of a sample of candidate refinements, down to the materialised result."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()  # builds the kernel, examining no candidates
    assert search._kernel is not None
    sqlite = QueryExecutor(bundle.database, backend="sqlite")
    checked = 0
    for refined_query, positions in _kernel_candidates(search, 40, per_block=40):
        expected = sqlite.evaluate(refined_query)
        if positions is None:
            assert len(expected) < constraints.k_star
            continue
        _identical(RankedResult(refined_query, search._base, positions), expected)
        checked += 1
    assert checked >= min(40, search._space.size())


def _any_group(bundle):
    """Pick one categorical attribute/value so a constraint set can be built."""
    categorical = bundle.query.categorical_predicates
    if categorical:
        predicate = categorical[0]
        return {predicate.attribute: sorted(predicate.values, key=str)[0]}
    unfiltered = QueryExecutor(bundle.database).evaluate_unfiltered(bundle.query)
    relation = unfiltered.relation
    for attribute in relation.schema:
        if attribute.is_categorical:
            domain = relation.domain(attribute.name)
            if domain:
                return {attribute.name: domain[0]}
    raise AssertionError("dataset has no categorical attribute to group on")


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sweep_positions_match_sqlite_evaluation(name):
    """The kernel's selected rows of candidate after candidate, across the
    blocks of the sweep, are the rows sqlite returns for the refined query;
    the runs it skips select fewer than ``k*`` rows there."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()
    assert search._kernel is not None
    sqlite = QueryExecutor(bundle.database, backend="sqlite")
    for refined_query, positions in _kernel_candidates(search, 200, per_block=10):
        expected = sqlite.evaluate(refined_query).relation.rows
        if positions is None:
            assert len(expected) < constraints.k_star
        else:
            assert search._base.take(positions).rows == expected


def test_full_naive_prov_search_matches_sqlite_naive_result(monkeypatch):
    """End-to-end: the fast search, and the search without a mask index
    (each candidate then goes to the executor), pick the refinement that
    Naive, evaluating every candidate on sqlite, picks."""
    bundle = _bundle("students")
    constraints = ConstraintSet(
        [at_least(3, 6, Gender="F"), at_least(1, 3, Income="High")]
    )

    def naive_prov():
        return NaiveProvenanceSearch(
            bundle.database, bundle.query, constraints, max_candidates=400
        ).search()

    fast = naive_prov()
    monkeypatch.setattr(MaskIndexData, "build", classmethod(lambda cls, query, base: None))
    unindexed = naive_prov()
    slow = NaiveSearch(
        bundle.database,
        bundle.query,
        constraints,
        max_candidates=400,
        executor_backend="sqlite",
    ).search()
    for result in (fast, unindexed):
        assert result.feasible == slow.feasible
        assert result.candidates_examined == slow.candidates_examined
        assert result.refinement == slow.refinement
        assert result.distance_value == slow.distance_value
        assert result.deviation == slow.deviation


# -- prepared queries ------------------------------------------------------------------

#: Candidates sampled per space, and the values of each dimension they draw from.
_BOUND_SAMPLES = 40
_DIMENSION_PREFIX = 64


def _bound_identical(bound, expected):
    """A binding's result has the bound query's rows, projection and length."""
    assert len(bound) == len(expected)
    assert bound.relation.schema == expected.relation.schema
    assert bound.projected.schema == expected.projected.schema
    assert list(map(repr, bound.relation.rows)) == list(map(repr, expected.relation.rows))
    assert list(map(repr, bound.projected.rows)) == list(map(repr, expected.projected.rows))


#: The groups of Table 6 per dataset (students: the running example's).
_TABLE6_GROUPS = {
    "students": [{"Gender": "F"}, {"Gender": "M"}, {"Income": "High"}, {"Income": "Low"}],
    "astronauts": [
        {"Gender": "F"}, {"Gender": "M"},
        {"Status": "Active"}, {"Status": "Management"}, {"Status": "Retired"},
    ],
    "law_students": [
        {"Sex": "F"}, {"Sex": "M"}, {"Race": "Black"}, {"Race": "White"}, {"Race": "Asian"},
    ],
    "meps": [{"Sex": "F"}, {"Sex": "M"}, {"Race": "Asian"}, {"Race": "Black"}, {"Race": "White"}],
    "tpch": [
        {"OrderPriority": "5-LOW"}, {"OrderPriority": "3-MEDIUM"},
        {"MktSegment": "AUTOMOBILE"}, {"MktSegment": "BUILDING"}, {"MktSegment": "MACHINERY"},
    ],
}


def _member(group):
    """The row-dict membership test of a group (a missing attribute reads as None)."""
    return lambda row: all(row.get(attribute) == value for attribute, value in group.items())


def _answers_as_sqlite(bound, expected, groups):
    """A binding answers as sqlite's eager result: rows, projection, length,
    item keys, scores, top-k keys and the top-k count of every group, which
    the row-dict membership test of the group also gives."""
    _bound_identical(bound, expected)
    size = len(expected)
    assert bound.scores() == expected.scores()
    for position in sorted({0, size // 2, size - 1}) if size else ():
        assert bound.item_key(position) == expected.item_key(position)
    for k in sorted({1, 10, size + 3}):
        assert bound.top_k_keys(k) == expected.top_k_keys(k)
        for group in groups:
            count = expected.count_group_in_top_k(k, group)
            assert bound.count_group_in_top_k(k, group) == count
            if k == 10:
                member = _member(group)
                assert bound.count_in_top_k(k, member) == expected.count_in_top_k(k, member) == count


def _sampled_candidates(space, seed):
    """Candidates drawn value by value, with a fixed ``seed``, from the first
    values of each dimension (a categorical dimension can hold 2^114 subsets)."""
    rng = random.Random(seed)
    prefixes = [
        list(itertools.islice(space.dimension_values(position), _DIMENSION_PREFIX))
        for position in range(space.num_dimensions())
    ]
    return [tuple(rng.choice(values) for values in prefixes) for _ in range(_BOUND_SAMPLES)]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("copy_seed", [None, 0, 1])
@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_a_binding_answers_as_the_refined_query(name, copy_seed, backend):
    """Sampled candidates of every registered dataset (DISTINCT on students,
    the four-table join on tpch) and of synthesized copies, and a categorical
    value no tuple carries: ``prepare(Q).bind(constants)`` answers as
    sqlite's eager result for the refined query, down to the top-k count of
    every Table 6 group, of a value no tuple carries (none) and of an
    attribute the join lacks (read as ``None``).  On the memory backend a
    binding indexes the ordered join that is ``~Q``'s result itself."""
    bundle = _bundle(name)
    database = bundle.database
    if copy_seed is not None:
        database = scale_database(database, 1.0, seed=copy_seed)
    query = bundle.query
    executor = QueryExecutor(database, backend=backend)
    sqlite = QueryExecutor(database, backend="sqlite")
    space = RefinementSpace(query, annotate(query, database))
    prepared = executor.prepare(query)
    table6 = _TABLE6_GROUPS[name]
    attribute = next(iter(table6[0]))
    groups = table6 + [
        {attribute: "Atlantis"},
        {"Nope": "F"},
        {"Nope": None},
        {**table6[0], **table6[-1]},
    ]
    if backend == "memory":
        unfiltered = executor.evaluate_unfiltered(query)
        assert unfiltered.relation is unfiltered.ordered
        assert prepared.bind(query.where.constants).ordered is unfiltered.ordered
    refinements = [
        space.refinement(values)
        for values in _sampled_candidates(space, seed=f"{name}/{copy_seed}")
    ]
    for predicate in query.categorical_predicates:
        absent = Refinement(categorical={predicate.attribute: predicate.values | {"Atlantis"}})
        refinements.append(absent)
    for refinement in refinements:
        refined = refinement.apply(query)
        bound = prepared.bind(refined.where.constants)
        expected = sqlite.evaluate(refined)
        _answers_as_sqlite(bound, expected, groups)
        size = len(expected)
        assert bound.count_group_in_top_k(10, {attribute: "Atlantis"}) == 0
        assert bound.count_group_in_top_k(10, {"Nope": "F"}) == 0
        assert bound.count_group_in_top_k(10, {"Nope": None}) == min(10, size)


def _scored(rows):
    schema = Schema([categorical("id"), categorical("kind"), numerical("score"), numerical("rank")])
    return Relation("r", schema, rows)


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_binding_without_a_float_view_takes_the_row_path(backend):
    """A predicate column with a value that is not a number has no float
    view, so selection runs row by row; a row an earlier predicate rejects
    never reads it.  The binding answers as ``evaluate`` does."""
    rows = [("a", "x", 1.0, 4), ("b", "y", "n/a", 3), ("c", "x", 3.0, 2), ("d", "z", 2.0, 1)]
    database = Database([_scored(rows)])
    query = SPJQuery(
        tables=["r"],
        where=Conjunction(
            [CategoricalPredicate("kind", {"x"}), NumericalPredicate("score", ">=", 2.0)]
        ),
        order_by="rank",
        name="q",
    )
    executor = QueryExecutor(database, backend=backend)
    assert database.relation("r").column_store().numeric("score") is None
    prepared = executor.prepare(query)
    for constants in [({"x"}, 2.0), ({"x", "z"}, 1.0), ({"z"}, 0.0), ({"x", "w"}, 5.0)]:
        refined = query.with_where(query.where.bind(constants))
        _bound_identical(prepared.bind(constants), executor.evaluate(refined))
    # Ranked by rank, descending; b (kind y, score "n/a") is never compared.
    assert [row[0] for row in prepared.bind(({"x", "z"}, 1.0)).relation.rows] == ["a", "c", "d"]


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_a_binding_sees_a_relation_swapped_after_the_last_one(backend):
    database = Database([_scored([("a", "x", 1.0, 2), ("b", "x", 2.0, 1)])])
    query = SPJQuery(
        tables=["r"],
        where=Conjunction([NumericalPredicate("score", ">=", 1.5)]),
        order_by="rank",
        name="q",
    )
    executor = QueryExecutor(database, backend=backend)
    prepared = executor.prepare(query)
    assert prepared.bind((1.0,)).relation.rows == [("a", "x", 1.0, 2), ("b", "x", 2.0, 1)]
    database.add(_scored([("c", "y", 5.0, 9), ("a", "x", 1.0, 2)]))
    swapped = prepared.bind((1.0,))
    assert swapped.relation.rows == [("c", "y", 5.0, 9), ("a", "x", 1.0, 2)]
    _bound_identical(swapped, executor.evaluate(query.with_where(query.where.bind((1.0,)))))
