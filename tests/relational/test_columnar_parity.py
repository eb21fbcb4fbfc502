"""Parity suite: the columnar engine must answer as the sqlite backend does.

Two engines answer the same SPJ queries — the memory backend's columnar
engine and the sqlite pushdown backend — and this suite holds the columnar
engine to byte-identical :class:`RankedResult`\\ s (rows, order, value
types, projection, distinct keys, scores) on every registered dataset and on
synthesized copies of each, including DISTINCT ranking queries.  The
``Naive+prov`` block kernel's selected rows are held to sqlite's answer for
each refined query.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    ConstraintSet,
    MaskIndexData,
    NaiveProvenanceSearch,
    NaiveSearch,
    at_least,
)
from repro.datasets import scale_database
from repro.datasets.registry import DATASET_BUILDERS, load_dataset
from repro.relational import QueryExecutor, SPJQuery

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


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines_on_distinct_ranking(name):
    """columnar == sqlite on a DISTINCT ranking projection."""
    bundle = _bundle(name)
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
        _identical(search._materialize(positions, refined_query), expected)
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
