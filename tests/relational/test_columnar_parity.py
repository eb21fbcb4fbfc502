"""Parity suite: every execution engine must agree byte-for-byte.

Three engines answer the same SPJ queries — the row-based reference path,
the vectorized columnar engine, and the sqlite pushdown backend — and this
suite holds all of them to byte-identical :class:`RankedResult`\\ s (rows,
order, projection, distinct keys, scores) on every registered dataset,
including DISTINCT ranking queries.
"""

from __future__ import annotations

import pytest

from repro.core import ConstraintSet, NaiveProvenanceSearch, at_least
from repro.datasets.registry import DATASET_BUILDERS, load_dataset
from repro.relational import QueryExecutor, SPJQuery
from repro.relational.columnar import rowwise_fallback, vectorization_enabled

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


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_vectorized_executor_matches_rowwise(name):
    bundle = _bundle(name)
    assert vectorization_enabled()
    fast = QueryExecutor(bundle.database).evaluate(bundle.query)
    with rowwise_fallback():
        assert not vectorization_enabled()
        slow = QueryExecutor(bundle.database).evaluate(bundle.query)
    _identical(fast, slow)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_vectorized_unfiltered_evaluation_matches_rowwise(name):
    bundle = _bundle(name)
    fast = QueryExecutor(bundle.database).evaluate_unfiltered(bundle.query)
    with rowwise_fallback():
        slow = QueryExecutor(bundle.database).evaluate_unfiltered(bundle.query)
    _identical(fast, slow)


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


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines(name):
    """row == columnar == sqlite on the paper query and its unfiltered ~Q."""
    bundle = _bundle(name)
    for query in (bundle.query, bundle.query.without_selection()):
        sqlite = QueryExecutor(bundle.database, backend="sqlite").evaluate(query)
        memory = QueryExecutor(bundle.database, backend="memory").evaluate(query)
        _identical(sqlite, memory)
        with rowwise_fallback():
            rowwise = QueryExecutor(bundle.database, backend="memory").evaluate(query)
        _identical(sqlite, rowwise)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_sqlite_backend_matches_memory_engines_on_distinct_ranking(name):
    """row == columnar == sqlite on a DISTINCT ranking projection."""
    bundle = _bundle(name)
    query = _distinct_variant(bundle)
    sqlite = QueryExecutor(bundle.database, backend="sqlite").evaluate(query)
    memory = QueryExecutor(bundle.database, backend="memory").evaluate(query)
    _identical(sqlite, memory)
    with rowwise_fallback():
        rowwise = QueryExecutor(bundle.database, backend="memory").evaluate(query)
        # The sqlite *gather* also has a row-based path; exercise it too.
        sqlite_rowwise = QueryExecutor(bundle.database, backend="sqlite").evaluate(query)
    _identical(sqlite, rowwise)
    _identical(sqlite, sqlite_rowwise)


@pytest.mark.parametrize("name", sorted(DATASET_BUILDERS))
def test_candidate_mask_evaluation_matches_rowwise(name):
    """The Naive+prov fast path and the row-based reference select the same
    tuples for a sample of candidate refinements."""
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
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        fast = search._evaluate(refinement, refined_query)
        slow = search._evaluate_rowwise(refinement, refined_query)
        _identical(fast, slow)


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
def test_sweep_positions_match_rowwise_evaluation(name):
    """The sweep's threshold tables and subset chains select exactly the rows
    the row-at-a-time evaluation selects, candidate after candidate."""
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
    for count, refinement in enumerate(space.enumerate()):
        if count >= 40:
            break
        refined_query = refinement.apply(bundle.query)
        fast = search._fast.selected_positions(refined_query)
        slow = search._evaluate_rowwise(refinement, refined_query)
        assert search._base.take(fast).rows == slow.relation.rows


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


def test_full_naive_prov_search_matches_rowwise_result():
    """End-to-end: the fast search picks the same refinement as the row path."""
    bundle = _bundle("students")
    constraints = ConstraintSet(
        [at_least(3, 6, Gender="F"), at_least(1, 3, Income="High")]
    )

    def run():
        return NaiveProvenanceSearch(
            bundle.database, bundle.query, constraints, max_candidates=400
        ).search()

    fast = run()
    with rowwise_fallback():
        slow = run()
    assert fast.feasible == slow.feasible
    assert fast.candidates_examined == slow.candidates_examined
    assert fast.refinement == slow.refinement
    assert fast.distance_value == slow.distance_value
    assert fast.deviation == slow.deviation
