"""Parity suite: the columnar engine must answer as the sqlite backend does.

Two engines answer the same SPJ queries — the memory backend's columnar
engine and the sqlite pushdown backend — and this suite holds the columnar
engine to byte-identical :class:`RankedResult`\\ s (rows, order, value
types, projection, distinct keys, scores) on every registered dataset and on
synthesized copies of each, including DISTINCT ranking queries.  The
``Naive+prov`` candidate evaluation is held to sqlite's answer for each
refined query.
"""

from __future__ import annotations

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


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_candidate_mask_evaluation_matches_sqlite(name):
    """The Naive+prov fast path selects the tuples sqlite returns for each of
    a sample of candidate refinements."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()  # runs _prepare, examining no candidates
    assert search._fast is not None

    from repro.core.refinement import RefinementSpace
    from repro.provenance.lineage import annotate

    annotated = annotate(bundle.query, bundle.database)
    space = RefinementSpace(bundle.query, annotated)
    sqlite = QueryExecutor(bundle.database, backend="sqlite")
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        fast = search._evaluate(refinement, refined_query)
        _identical(fast, sqlite.evaluate(refined_query))


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
    """The sweep's threshold tables and subset chains select exactly the rows
    sqlite returns for the refined query, candidate after candidate."""
    from repro.core.refinement import RefinementSpace
    from repro.provenance.lineage import annotate

    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])
    search = NaiveProvenanceSearch(
        bundle.database, bundle.query, constraints, max_candidates=0
    )
    search.search()
    assert search._fast is not None

    annotated = annotate(bundle.query, bundle.database)
    space = RefinementSpace(bundle.query, annotated)
    sqlite = QueryExecutor(bundle.database, backend="sqlite")
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        fast = search._fast.selected_positions(refined_query)
        expected = sqlite.evaluate(refined_query).relation.rows
        assert search._base.take(fast).rows == expected


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_jobs_axis_parity(name):
    """The jobs axis of the engine matrix: sharded == serial on every dataset."""
    bundle = _bundle(name)
    constraints = ConstraintSet([at_least(1, 5, **_any_group(bundle))])

    def run(jobs):
        return NaiveProvenanceSearch(
            bundle.database,
            bundle.query,
            constraints,
            max_candidates=250,
            jobs=jobs,
        ).search()

    serial = run(1)
    sharded = run(2)
    assert sharded.feasible == serial.feasible
    assert sharded.candidates_examined == serial.candidates_examined
    assert sharded.refinement == serial.refinement
    assert sharded.distance_value == serial.distance_value
    assert sharded.deviation == serial.deviation
    assert sharded.exhausted == serial.exhausted


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
