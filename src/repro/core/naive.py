"""Exhaustive-search baselines: ``Naive`` and ``Naive+prov`` (Section 5).

``Naive`` enumerates candidate refinements and re-evaluates each refined query
on the database.  ``Naive+prov`` enumerates the same space but evaluates each
candidate on the annotated ``~Q(D)`` instead, avoiding the DBMS round-trip —
the same provenance trick the MILP uses, applied to brute-force search.

Both support a wall-clock timeout, mirroring the 1-hour timeout in the paper's
experiments (the refinement space of the Astronauts query has ~2^114 members,
so the baselines are *expected* to time out there).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from repro.core import parallel
from repro.core.constraints import ConstraintSet
from repro.core.distances import DistanceMeasure, PredicateDistance, get_distance
from repro.core.parallel import ShardOutcome, ShardTask
from repro.core.refinement import Refinement, RefinementSpace
from repro.provenance.lineage import AnnotatedDatabase, annotate_result
from repro.relational import columnar
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor, RankedResult
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation


@dataclass
class NaiveResult:
    """Outcome of an exhaustive search."""

    feasible: bool
    method: str
    distance_code: str
    refinement: Refinement | None = None
    refined_query: SPJQuery | None = None
    distance_value: float | None = None
    deviation: float | None = None
    candidates_examined: int = 0
    exhausted: bool = False
    timed_out: bool = False
    #: The search was stopped by its ``should_stop`` hook (portfolio racing).
    cancelled: bool = False
    setup_seconds: float = 0.0
    search_seconds: float = 0.0
    total_seconds: float = 0.0
    space_size: int = 0
    #: Sweep pools restarted after worker crashes (parallel runs only).
    pool_restarts: int = 0
    #: The sweep's tail ran serially after exhausting the restart budget.
    degraded_to_serial: bool = False


class _BaseExhaustiveSearch:
    """Shared plumbing of the two exhaustive baselines."""

    method = "naive"

    def __init__(
        self,
        database: Database,
        query: SPJQuery,
        constraints: ConstraintSet,
        epsilon: float = 0.5,
        distance: DistanceMeasure | str = "pred",
        timeout: float | None = None,
        max_candidates: int | None = None,
        jobs: int | None = None,
        executor_backend: str | None = None,
        executor_db: str | None = None,
        executor: QueryExecutor | None = None,
        annotated: AnnotatedDatabase | None = None,
        should_stop: Callable[[], bool] | None = None,
        on_incumbent: Callable[[float, Refinement, float], None] | None = None,
    ) -> None:
        self.database = database
        self.query = query
        self.constraints = constraints
        self.epsilon = float(epsilon)
        self.distance = get_distance(distance)
        self.timeout = timeout
        self.max_candidates = max_candidates
        self.jobs = parallel.resolve_jobs(jobs)
        # Portfolio-racing hooks (both optional; the defaults leave behaviour
        # byte-identical to the plain search).  ``should_stop`` is polled
        # between candidates for cooperative cancellation; ``on_incumbent``
        # streams each strict improvement out.
        self._should_stop = should_stop
        self._on_incumbent = on_incumbent
        # A warm dataset session shares its executor (cached join/sort, warm
        # sqlite store) and pre-annotated ~Q(D) across searches; one-shot
        # callers keep the build-it-here behaviour.
        self._executor = executor or QueryExecutor(
            database, backend=executor_backend, db_path=executor_db
        )
        self._warm_annotated = annotated
        self._space: RefinementSpace | None = None
        self._original_result: RankedResult | None = None

    def search(self) -> NaiveResult:
        """Enumerate the refinement space and return the closest acceptable refinement."""
        setup_started = time.perf_counter()
        self._original_result = self._executor.evaluate(self.query)
        # annotate_result reuses this executor's cached join+sort of ~Q(D);
        # annotate() would rebuild both on a fresh executor.  A warm session
        # passes its cached annotation in instead.
        annotated = self._warm_annotated
        if annotated is None:
            annotated = annotate_result(
                self.query,
                self._executor.evaluate_unfiltered(self.query),
                scan=self._executor.annotation_scan(self.query),
            )
        space = RefinementSpace(self.query, annotated)
        self._space = space
        self._prepare(annotated)
        setup_seconds = time.perf_counter() - setup_started

        search_started = time.perf_counter()
        summary = None
        if self.jobs > 1:
            summary = parallel.run_sharded_search(
                self, self.jobs, self.timeout, self.max_candidates
            )
        if summary is None:
            summary = self._search_serial()
        search_seconds = time.perf_counter() - search_started

        result = NaiveResult(
            feasible=summary.best is not None,
            method=self.method,
            distance_code=self.distance.code,
            candidates_examined=summary.examined,
            exhausted=summary.exhausted,
            timed_out=summary.timed_out,
            cancelled=summary.cancelled,
            pool_restarts=summary.pool_restarts,
            degraded_to_serial=summary.degraded_to_serial,
            setup_seconds=setup_seconds,
            search_seconds=search_seconds,
            total_seconds=setup_seconds + search_seconds,
            space_size=space.size(),
        )
        if summary.best is not None:
            distance_value, refinement, deviation = summary.best
            result.refinement = refinement
            result.refined_query = refinement.apply(self.query)
            result.distance_value = distance_value
            result.deviation = deviation
        return result

    def _search_serial(self) -> "parallel.SweepSummary":
        """The serial hot loop (also the ``jobs=1`` reference semantics)."""
        best: tuple[float, Refinement, float] | None = None
        examined = 0
        exhausted = True
        timed_out = False
        cancelled = False
        search_started = time.perf_counter()
        for refinement in self._space.enumerate():
            if self._should_stop is not None and self._should_stop():
                exhausted = False
                cancelled = True
                break
            if self.timeout is not None and time.perf_counter() - search_started > self.timeout:
                exhausted = False
                timed_out = True
                break
            if self.max_candidates is not None and examined >= self.max_candidates:
                exhausted = False
                break
            examined += 1
            candidate = self._examine(refinement)
            if candidate is not None and (
                best is None or candidate[0] < best[0] - parallel.IMPROVEMENT_EPSILON
            ):
                best = candidate
                if self._on_incumbent is not None:
                    self._on_incumbent(best[0], best[1], best[2])
        return parallel.SweepSummary(
            best=best,
            examined=examined,
            exhausted=exhausted,
            timed_out=timed_out,
            cancelled=cancelled,
        )

    def __getstate__(self) -> dict:
        # The racing hooks close over thread-local race state (locks, result
        # queues) and must never cross a pickle/fork boundary; workers are
        # bounded by plain shard deadlines and budgets instead.
        state = self.__dict__.copy()
        state["_should_stop"] = None
        state["_on_incumbent"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def _examine(self, refinement: Refinement) -> tuple[float, Refinement, float] | None:
        """Evaluate one candidate; ``(distance, refinement, deviation)`` if acceptable."""
        refined_query = refinement.apply(self.query)
        refined_result = self._evaluate(refinement, refined_query)
        if len(refined_result) < self.constraints.k_star:
            return None
        deviation = self._deviation(refined_result)
        if deviation > self.epsilon + 1e-9:
            return None
        # Predicate distance depends only on the refinement's parameter maps,
        # so the hot loop can skip rebuilding the refined query's dicts.
        if isinstance(self.distance, PredicateDistance):
            distance_value = self.distance.evaluate_refinement(self.query, refinement)
        else:
            distance_value = self.distance.evaluate(
                self.query,
                refined_query,
                self._original_result,
                refined_result,
                self.constraints.k_star,
            )
        return (distance_value, refinement, deviation)

    # -- parallel worker protocol ------------------------------------------------------

    def evaluate_shard(self, task: ShardTask) -> ShardOutcome:
        """Run the hot loop over one contiguous shard of the candidate space.

        Called inside a pool worker on the fork-inherited (or unpickled)
        prepared search object; returns only the shard's best candidate and
        bookkeeping, never result relations.
        """
        best: tuple[float, Refinement, float] | None = None
        examined = 0
        exhausted = True
        timed_out = False
        for refinement in self._space.enumerate(first_values=task.first_values):
            if task.deadline is not None and time.time() > task.deadline:
                exhausted = False
                timed_out = True
                break
            if task.budget is not None and examined >= task.budget:
                exhausted = False
                break
            examined += 1
            candidate = self._examine(refinement)
            if candidate is not None and (
                best is None or candidate[0] < best[0] - parallel.IMPROVEMENT_EPSILON
            ):
                best = candidate
        return ShardOutcome(
            index=task.index,
            examined=examined,
            best=best,
            exhausted=exhausted,
            timed_out=timed_out,
        )

    def reset_after_fork(self) -> None:
        """Drop state that must not cross a process boundary.

        SQLite connections are not fork-safe: each pool worker reopens its
        own (an on-disk ``REPRO_EXECUTOR_DB`` makes that reopen skip the data
        load entirely).
        """
        self._executor.reset_connections()

    # -- hooks ------------------------------------------------------------------------

    def _prepare(self, annotated: AnnotatedDatabase) -> None:
        """Hook for subclasses that need the annotations."""

    def _evaluate(self, refinement: Refinement, refined_query: SPJQuery) -> RankedResult:
        raise NotImplementedError

    def _deviation(self, refined_result: RankedResult) -> float:
        """Constraint deviation of a candidate (overridable fast path)."""
        return self.constraints.deviation(refined_result)


class NaiveSearch(_BaseExhaustiveSearch):
    """The paper's ``Naive``: every candidate is re-evaluated on the DBMS."""

    method = "naive"

    def _evaluate(self, refinement: Refinement, refined_query: SPJQuery) -> RankedResult:
        return self._executor.evaluate(refined_query)


@dataclass(frozen=True)
class MaskIndexData:
    """The immutable, shareable half of the candidate mask index.

    Holds the expensive precomputations over the rank-ordered ``~Q(D)`` —
    value-sorted position arrays per numerical predicate, per-value boolean
    masks per categorical predicate, combined DISTINCT-key codes — all of
    which are read-only NumPy arrays.  A warm
    :class:`~repro.service.session.DatasetSession` builds this once and hands
    it to every search over the dataset; each search then wraps it in its own
    :class:`_CandidateMaskIndex`, which keeps the *mutable* per-sweep caches
    (threshold windows, part masks, categorical chains) private, so concurrent
    searches never share mutable state.
    """

    length: int
    numeric_index: Mapping[str, tuple]
    value_masks: Mapping[str, Mapping]
    distinct_codes: object | None

    @classmethod
    def build(cls, query: SPJQuery, base: Relation) -> "MaskIndexData | None":
        if not columnar.vectorization_enabled():
            return None
        store = base.column_store()
        if store is None:
            return None
        numeric_index: dict[str, tuple] = {}
        for predicate in query.numerical_predicates:
            values = store.numeric(predicate.attribute)
            if values is None:
                return None
            valid = np.flatnonzero(~np.isnan(values))
            order = valid[np.argsort(values[valid], kind="stable")]
            numeric_index[predicate.attribute] = (order, values[order])
        value_masks: dict[str, dict] = {}
        for predicate in query.categorical_predicates:
            factorized = store.codes(predicate.attribute)
            if factorized is None:
                return None
            codes, mapping = factorized
            # repro-lint: disable=hot-path-rowwise -- per-distinct-value mask table, built once per index, not per row
            value_masks[predicate.attribute] = {
                value: codes == code for value, code in mapping.items()
            }
        distinct_codes = None
        if query.distinct and query.select:
            distinct_codes = columnar.combined_codes(store, list(query.select))
            if distinct_codes is None:
                return None
        return cls(store.length, numeric_index, value_masks, distinct_codes)


class _CandidateMaskIndex:
    """Precomputed per-atom masks over the rank-ordered ``~Q(D)``.

    Candidate refinements are evaluated by AND-ing one boolean mask per
    predicate: numerical thresholds are resolved against the pre-sorted
    column (NULL positions excluded up front, so they can never match),
    categorical value sets OR together per-value masks, and DISTINCT
    de-duplication keeps the first (best-ranked) position of each precomputed
    distinct-key code.

    Numerical thresholds are resolved in *batch*: :meth:`prepare_sweep`
    answers an entire refinement sweep with one ``searchsorted`` call per
    predicate, yielding a positions-per-threshold table (each threshold maps
    to a ``[start, stop)`` window of the value-sorted position array).  Per
    candidate that leaves a dict lookup, and each threshold's boolean part
    mask is built at most once per sweep (within a memory budget; above it,
    only the most recent mask per predicate is kept, which still serves the
    outer predicates of the nested enumeration).

    The categorical side of a sweep is *incremental*: candidate subsets
    arrive in toggle order, so consecutive candidates differ in a handful of
    values, and each per-value mask partitions the rows — updating the
    previous candidate's cached mask with one in-place XOR per toggled value
    replaces the full OR-reduce over the subset.  The AND of all numerical
    part masks is likewise cached across the categorical chain (the
    numerical constants only change when a chain ends).
    """

    #: Sweep-wide cache budget in bytes, covering the cached boolean part
    #: masks *and* the int64 positions/values arrays of the numeric index.
    CACHE_BUDGET_BYTES = 64_000_000

    def __init__(self, data: MaskIndexData) -> None:
        self._data = data
        self._length = data.length
        self._numeric = data.numeric_index
        self._value_masks = data.value_masks
        self._distinct_codes = data.distinct_codes
        #: (attribute, operator) -> {threshold: (start, stop) into the order array}
        self._windows: dict = {}
        #: (attribute, operator) -> {threshold: mask} of built part masks.  The
        #: whole sweep is kept when it fits the memory budget (so the inner
        #: predicates of a nested enumeration pay for each mask exactly once);
        #: otherwise only the most recent mask per predicate is retained.
        self._parts: dict = {}
        self._keep_all_parts = True
        #: attribute -> [subset, mask] of the categorical chain cache; the
        #: mask buffer is updated in place (never handed out past the current
        #: candidate's AND-reduce).
        self._chain: dict = {}
        #: [numeric constants key, combined numeric mask] cache.
        self._numeric_prefix: list | None = None

    def prepare_sweep(self, query: SPJQuery, space) -> None:
        """Batch-resolve every candidate threshold of a refinement sweep.

        One ``searchsorted`` call per numerical predicate (two for the
        two-sided ``=`` operator) maps the predicate's entire candidate list
        to ``[start, stop)`` windows of its value-sorted position array — the
        positions-per-threshold table that :meth:`selected_positions` then
        answers candidates from without ever searching again.
        """
        total_masks = 0
        for predicate in query.numerical_predicates:
            key = (predicate.attribute, predicate.operator)
            entry = self._numeric.get(predicate.attribute)
            if entry is None:
                continue
            _, sorted_values = entry
            thresholds = np.asarray(
                space.numerical_candidates(key), dtype=float
            )
            total_masks += thresholds.shape[0]
            # repro-lint: disable=hot-path-rowwise -- per-threshold window table, one vectorized batch per predicate sweep
            self._windows[key] = dict(
                zip(
                    thresholds.tolist(),
                    self._batched_windows(
                        sorted_values, thresholds, predicate.operator
                    ),
                )
            )
        # The budget meters everything the sweep keeps alive per row: one bool
        # per row per cached part mask, the int64 positions arrays (and their
        # float64 sorted-value companions) of the numeric index, and the one
        # chain mask per categorical attribute.
        positions_bytes = sum(
            order.nbytes + sorted_values.nbytes
            for order, sorted_values in self._numeric.values()
        )
        chain_bytes = len(self._value_masks) * self._length
        mask_bytes = total_masks * self._length
        self._keep_all_parts = (
            positions_bytes + chain_bytes + mask_bytes <= self.CACHE_BUDGET_BYTES
        )

    @staticmethod
    def _batched_windows(sorted_values, thresholds, operator):
        """``[start, stop)`` windows for many thresholds of one predicate."""
        total = int(sorted_values.shape[0])
        if operator is Operator.GREATER_EQUAL:
            cuts = np.searchsorted(sorted_values, thresholds, side="left")
            return [(int(cut), total) for cut in cuts]
        if operator is Operator.GREATER:
            cuts = np.searchsorted(sorted_values, thresholds, side="right")
            return [(int(cut), total) for cut in cuts]
        if operator is Operator.LESS_EQUAL:
            cuts = np.searchsorted(sorted_values, thresholds, side="right")
            return [(0, int(cut)) for cut in cuts]
        if operator is Operator.LESS:
            cuts = np.searchsorted(sorted_values, thresholds, side="left")
            return [(0, int(cut)) for cut in cuts]
        low = np.searchsorted(sorted_values, thresholds, side="left")
        high = np.searchsorted(sorted_values, thresholds, side="right")
        return [(int(lo), int(hi)) for lo, hi in zip(low, high)]

    def _numeric_part(self, predicate, constant):
        """Boolean mask of one numerical predicate (cached per sweep threshold).

        ``constant`` is the refined threshold (it may differ from
        ``predicate.constant`` when the caller resolves a refinement against
        the original query's predicates).
        """
        key = (predicate.attribute, predicate.operator)
        cached = self._parts.get(key)
        if cached is not None:
            part = cached.get(constant)
            if part is not None:
                return part
        entry = self._numeric.get(predicate.attribute)
        if entry is None:
            return None
        order, sorted_values = entry
        window = self._windows.get(key, {}).get(constant)
        if window is None:
            window = self._batched_windows(
                sorted_values, np.asarray([constant], dtype=float), predicate.operator
            )[0]
        start, stop = window
        part = np.zeros(self._length, dtype=bool)
        part[order[start:stop]] = True
        if self._keep_all_parts:
            self._parts.setdefault(key, {})[constant] = part
        else:
            self._parts[key] = {constant: part}
        return part

    def _categorical_part(self, attribute: str, values):
        """Boolean mask of one categorical predicate.

        The previous candidate's mask is cached per attribute and updated
        with one in-place XOR per toggled value — valid because the
        per-value masks partition the rows, so toggling a value flips
        exactly its rows.  ``False`` signals an unknown attribute (caller
        falls back), ``None`` a candidate that selects nothing.
        """
        masks = self._value_masks.get(attribute)
        if masks is None:
            return False
        if isinstance(values, frozenset) and values <= masks.keys():
            subset = values
        else:
            subset = frozenset(value for value in values if value in masks)
        if not subset:
            return None
        cached = self._chain.get(attribute)
        if cached is not None:
            last, buffer = cached
            toggled = subset ^ last
            if len(toggled) < len(subset):
                for value in toggled:
                    np.logical_xor(buffer, masks[value], out=buffer)
                cached[0] = subset
                return buffer
        selected = [masks[value] for value in subset]
        if len(selected) == 1:
            # Seed the chain cache with a private buffer (per-value masks are
            # shared and must never be XORed in place).
            buffer = selected[0].copy()
        else:
            buffer = np.logical_or.reduce(selected)
        self._chain[attribute] = [subset, buffer]
        return buffer

    def _numeric_conjunction(self, constants: tuple, predicates):
        """AND of all numerical part masks (``False`` -> caller fallback).

        The combined mask is cached under the tuple of constants: the
        numerical constants only change when a categorical chain rolls over,
        so the whole chain reuses one cached AND.  ``predicates`` supplies the
        ``(attribute, operator)`` of each constant, in query order.
        """
        if not predicates:
            return None
        cached = self._numeric_prefix
        if cached is not None and cached[0] == constants:
            return cached[1]
        parts = []
        for predicate, constant in zip(predicates, constants):
            part = self._numeric_part(predicate, constant)
            if part is None:
                return False
            parts.append(part)
        combined = parts[0] if len(parts) == 1 else np.logical_and.reduce(parts)
        self._numeric_prefix = [constants, combined]
        return combined

    def _positions_from_parts(self, numeric, categorical_parts):
        parts = ([] if numeric is None else [numeric]) + categorical_parts
        if not parts:
            positions = np.arange(self._length)
        elif len(parts) == 1:
            positions = np.flatnonzero(parts[0])
        else:
            positions = np.flatnonzero(np.logical_and.reduce(parts))
        if self._distinct_codes is not None and positions.size:
            codes = self._distinct_codes[positions]
            _, first = np.unique(codes, return_index=True)
            positions = positions[np.sort(first)]
        return positions

    def selected_positions(self, refined_query: SPJQuery):
        """Rank-ordered positions of ``~Q(D)`` selected by the refined query."""
        predicates = refined_query.numerical_predicates
        numeric = self._numeric_conjunction(
            tuple(predicate.constant for predicate in predicates), predicates
        )
        if numeric is False:
            return None
        categorical_parts = []
        for predicate in refined_query.categorical_predicates:
            part = self._categorical_part(predicate.attribute, predicate.values)
            if part is False:
                return None
            if part is None:
                return np.empty(0, dtype=np.int64)
            categorical_parts.append(part)
        return self._positions_from_parts(numeric, categorical_parts)

    def positions_for(self, query: SPJQuery, refinement: Refinement):
        """Rank-ordered selected positions straight from a refinement's maps.

        The hot-loop entry point: reads the refined constants and value sets
        off the :class:`Refinement` against the *original* query's predicates,
        so candidate evaluation never has to build a refined
        :class:`SPJQuery` at all.
        """
        predicates = query.numerical_predicates
        numerical = refinement.numerical
        constants = tuple(
            numerical.get((predicate.attribute, predicate.operator), predicate.constant)
            for predicate in predicates
        )
        numeric = self._numeric_conjunction(constants, predicates)
        if numeric is False:
            return None
        categorical = refinement.categorical
        categorical_parts = []
        for predicate in query.categorical_predicates:
            values = categorical.get(predicate.attribute, predicate.values)
            part = self._categorical_part(predicate.attribute, values)
            if part is False:
                return None
            if part is None:
                return np.empty(0, dtype=np.int64)
            categorical_parts.append(part)
        return self._positions_from_parts(numeric, categorical_parts)


class NaiveProvenanceSearch(_BaseExhaustiveSearch):
    """The paper's ``Naive+prov``: candidates are evaluated on the annotations.

    Every numerical candidate threshold is resolved up front with one batched
    ``searchsorted`` per predicate, per-predicate masks are reused across the
    sweep, and categorical subset chains are evaluated by XOR-ing only the
    toggled values over the previous candidate's cached mask (see
    :class:`_CandidateMaskIndex`).
    """

    method = "naive+prov"

    def __init__(
        self,
        *args,
        mask_data: MaskIndexData | None = None,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self._mask_data = mask_data
        self._annotated: AnnotatedDatabase | None = None
        self._schema = None
        self._base: Relation | None = None
        self._fast: _CandidateMaskIndex | None = None
        self._group_masks: dict | None = None
        self._positions = None

    def _prepare(self, annotated: AnnotatedDatabase) -> None:
        self._annotated = annotated
        # The rank-ordered ~Q(D) is needed to materialise candidate outputs;
        # compute it once here (the executor caches the join and sort) and
        # derive the per-atom mask index from its columns.
        unfiltered = self._executor.evaluate_unfiltered(self.query)
        self._base = unfiltered.relation
        self._schema = unfiltered.relation.schema
        # The per-sweep caches stay private to this search; only the
        # immutable MaskIndexData half is shareable (and a warm session
        # passes its cached copy in).
        data = self._mask_data
        if data is None:
            data = MaskIndexData.build(self.query, self._base)
        self._fast = None if data is None else _CandidateMaskIndex(data)
        if self._fast is not None and self._space is not None:
            self._fast.prepare_sweep(self.query, self._space)
        store = self._base.column_store()
        if store is not None:
            # Warm the factorizations the per-candidate deviation counts
            # read, so lazily-gathered top-k slices inherit them instead of
            # re-factorizing per candidate.
            for constraint in self.constraints:
                for attribute in constraint.group.attributes:
                    if attribute in self._base.schema:
                        store.codes(attribute)
            self._group_masks = self._build_group_masks(store)

    def _build_group_masks(self, store) -> dict | None:
        """One boolean membership mask over ``~Q(D)`` per constraint group.

        Candidate deviations then reduce to counting mask hits among the
        candidate's top-k positions.  ``None`` (falling back to the generic
        :meth:`ConstraintSet.deviation`) when a group condition cannot be
        resolved through the column codes with identical semantics.
        """
        masks: dict = {}
        for constraint in self.constraints:
            group = constraint.group
            if group in masks:
                continue
            mask = np.ones(store.length, dtype=bool)
            for attribute, value in group.condition_map.items():
                if attribute not in self._base.schema:
                    return None
                factorized = store.codes(attribute)
                if factorized is None:
                    return None
                codes, mapping = factorized
                try:
                    code = mapping.get(value)
                except TypeError:
                    return None
                if code is None:
                    mask = np.zeros(store.length, dtype=bool)
                    break
                mask &= codes == code
            masks[group] = mask
        return masks

    def _deviation(self, refined_result: RankedResult) -> float:
        """Deviation from the candidate's positions over the shared group masks."""
        positions = self._positions
        if positions is None or self._group_masks is None:
            return self.constraints.deviation(refined_result)
        return self._deviation_from_positions(positions)

    def _deviation_from_positions(self, positions) -> float:
        total = 0.0
        for constraint in self.constraints:
            topk = positions[: constraint.k]
            count = int(self._group_masks[constraint.group][topk].sum())
            total += constraint.shortfall(count) / constraint.denominator()
        return total / len(self.constraints)

    def _examine(self, refinement: Refinement) -> tuple[float, Refinement, float] | None:
        """Candidate evaluation without materialising the refined query.

        When every ingredient has a vectorized form — the mask index, the
        per-group membership masks and the predicate distance — a candidate
        reduces to a position set plus a few mask counts, so neither the
        refined :class:`SPJQuery` nor a result relation is ever built.  Any
        missing ingredient falls back to the generic path (which the parity
        suite holds byte-identical to this one).
        """
        if (
            self._fast is None
            or self._group_masks is None
            or not isinstance(self.distance, PredicateDistance)
        ):
            return super()._examine(refinement)
        positions = self._fast.positions_for(self.query, refinement)
        if positions is None:
            return super()._examine(refinement)
        if positions.size < self.constraints.k_star:
            return None
        deviation = self._deviation_from_positions(positions)
        if deviation > self.epsilon + 1e-9:
            return None
        distance_value = self.distance.evaluate_refinement(self.query, refinement)
        return (distance_value, refinement, deviation)

    def _evaluate(self, refinement: Refinement, refined_query: SPJQuery) -> RankedResult:
        """Evaluate a refinement directly on ``~Q(D)`` without touching the database.

        A tuple is selected when every predicate of the refined query accepts
        its value; DISTINCT de-duplication keeps the better-ranked tuple.  The
        tuples of ``~Q(D)`` are already in rank order, so the selected tuples
        are too.  The columnar fast path composes precomputed per-atom masks;
        the row-based reference below remains for parity testing (under
        :func:`repro.relational.columnar.rowwise_fallback`) and for columns
        the mask index cannot resolve.
        """
        self._positions = None
        if self._fast is not None:
            positions = self._fast.selected_positions(refined_query)
            if positions is not None:
                self._positions = positions
                relation = self._base.take(positions).rename(refined_query.name)
                projected = (
                    relation.project(list(refined_query.select))
                    if refined_query.select
                    else relation
                )
                return RankedResult(
                    query=refined_query, relation=relation, projected=projected
                )
        return self._evaluate_rowwise(refinement, refined_query)

    def _evaluate_rowwise(
        self, refinement: Refinement, refined_query: SPJQuery
    ) -> RankedResult:
        """Row-at-a-time reference evaluation over the annotated tuples."""
        assert self._annotated is not None
        numerical = list(refined_query.numerical_predicates)
        categorical = list(refined_query.categorical_predicates)

        selected_rows = []
        seen_distinct: set[tuple[object, ...]] = set()
        for annotated_tuple in self._annotated.tuples:
            values = annotated_tuple.values
            if not all(predicate.matches(values) for predicate in numerical):
                continue
            if not all(predicate.matches(values) for predicate in categorical):
                continue
            if annotated_tuple.distinct_key is not None:
                if annotated_tuple.distinct_key in seen_distinct:
                    continue
                seen_distinct.add(annotated_tuple.distinct_key)
            selected_rows.append(values)

        schema = self._schema
        relation = Relation(
            refined_query.name,
            schema,
            [tuple(values[name] for name in schema.names) for values in selected_rows],
        )
        projected = (
            relation.project(list(refined_query.select))
            if refined_query.select
            else relation
        )
        return RankedResult(query=refined_query, relation=relation, projected=projected)


__all__ = ["MaskIndexData", "NaiveProvenanceSearch", "NaiveResult", "NaiveSearch"]
