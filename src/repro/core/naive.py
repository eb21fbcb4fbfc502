"""Exhaustive-search baselines: ``Naive`` and ``Naive+prov`` (Section 5).

``Naive`` enumerates candidate refinements and re-evaluates each refined query
on the database, one candidate at a time, by binding the candidate's values
to the query's prepared shape and reading each constraint's group membership
at the result's first ``k`` positions.  ``Naive+prov`` enumerates the same
space but evaluates it on the annotated ``~Q(D)`` instead, avoiding the DBMS
round-trip — the same provenance trick the MILP uses, applied to brute-force
search.  It evaluates a block of consecutive candidates at a time in a few
NumPy calls (:class:`_BlockKernel`) and builds a :class:`Refinement` only for
a candidate that can improve on the incumbent.  A query whose columns the
mask index cannot resolve is evaluated one candidate at a time on the
executor, as ``Naive`` evaluates every candidate.

Both support a wall-clock timeout, mirroring the 1-hour timeout in the paper's
experiments (the refinement space of the Astronauts query has ~2^114 members,
so the baselines are *expected* to time out there).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Mapping

import numpy as np

from repro.core.constraints import ConstraintSet, ResolvedConstraints
from repro.core.distances import DistanceMeasure, PredicateDistance, get_distance
from repro.core.refinement import Refinement, RefinementSpace, candidate_digits
from repro.provenance.lineage import AnnotatedDatabase, annotate_result
from repro.relational import columnar
from repro.relational.database import Database
from repro.relational.executor import QueryExecutor, RankedResult
from repro.relational.predicates import Operator
from repro.relational.query import SPJQuery
from repro.relational.relation import Relation

#: Strict-improvement tolerance: a candidate replaces the incumbent only when
#: its distance is lower by more than this.
IMPROVEMENT_EPSILON = 1e-12

#: Cap, in bytes, on a block's working set: its packed selections,
#: popcounts, running counts and temporaries.  With the row count of
#: ``~Q(D)`` it fixes the block size.
BLOCK_BYTES = 4_000_000

#: Working-set bytes per (candidate, 64-row word) of a block.
_WORD_BYTES = 32

#: Extra working-set bytes per (candidate, row) of a DISTINCT query, whose
#: selections are unpacked to keep the first row of every distinct code.
_DISTINCT_ROW_BYTES = 8

#: Smallest and largest block, in candidates.
_BLOCK_LIMITS = (64, 4096)

#: A categorical dimension with at most this many subsets is tabulated once
#: per search; a larger one is generated lazily, as ``enumerate()`` does.
_MAX_TABULATED_SUBSETS = 4096

#: Cap, in bytes, on one dimension's packed table of row sets.
_MAX_TABLE_BYTES = 8_000_000

#: A block's inner dimensions are the shortest tabulated suffix of the
#: enumeration with at least this many candidates; the outer dimensions
#: before it are fixed per block, and an outer combination that leaves
#: fewer than ``k*`` rows is skipped whole.
_MIN_INNER = 256

#: Distance evaluations between two polls of the stop hooks inside a block
#: (outcome-based distances, whose scalar evaluation dominates a block).
_POLL_EVERY = 32


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


@dataclass
class _SweepOutcome:
    """Where a sweep over the candidate space ended."""

    #: ``(distance_value, refinement, deviation)`` of the incumbent, if any.
    best: tuple | None
    examined: int
    exhausted: bool
    timed_out: bool = False
    #: Stopped by the search's ``should_stop`` hook.
    cancelled: bool = False


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
        executor_backend: str | None = None,
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
        # Portfolio-racing hooks (both optional; the defaults leave behaviour
        # byte-identical to the plain search).  ``should_stop`` is polled
        # between candidates (between blocks for Naive+prov) for cooperative
        # cancellation; ``on_incumbent`` streams each strict improvement out.
        self._should_stop = should_stop
        self._on_incumbent = on_incumbent
        # A warm dataset session shares its executor (cached join/sort, warm
        # sqlite store) and pre-annotated ~Q(D) across searches; one-shot
        # callers keep the build-it-here behaviour.
        self._executor = executor or QueryExecutor(database, backend=executor_backend)
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
        summary = self._sweep()
        search_seconds = time.perf_counter() - search_started

        result = NaiveResult(
            feasible=summary.best is not None,
            method=self.method,
            distance_code=self.distance.code,
            candidates_examined=summary.examined,
            exhausted=summary.exhausted,
            timed_out=summary.timed_out,
            cancelled=summary.cancelled,
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

    def _sweep(self) -> _SweepOutcome:
        """Examine the candidates one at a time, in enumeration order.

        The query's shape is prepared once; each candidate's values are bound
        to it, so a candidate costs one evaluation of the query.  The
        constraints are resolved over the relation a result's positions
        index (:class:`ResolvedConstraints`): once per search on the memory
        backend, whose results all index the ordered join, and per result on
        sqlite.  A candidate's predicate distance is summed term by term in
        the order of :meth:`PredicateDistance.evaluate_refinement`, an
        outcome distance is read off the bound result, and a
        :class:`Refinement` is built only for a candidate that improves on
        the incumbent.
        """
        space, query, constraints = self._space, self.query, self.constraints
        bind = self._executor.prepare(query).bind
        # The binding lists the query's predicates in WHERE order; the
        # values come in dimension order.
        order = tuple(space.position(predicate) for predicate in query.where)
        reorder = None if order == tuple(range(len(order))) else itemgetter(*order)
        terms = None
        if isinstance(self.distance, PredicateDistance):
            terms = [
                (space.position(predicate), PredicateDistance.numerical_term, predicate)
                for predicate in query.numerical_predicates
            ] + [
                (space.position(predicate), PredicateDistance.categorical_term, predicate)
                for predicate in query.categorical_predicates
            ]
        k_star = constraints.k_star
        threshold = self.epsilon + 1e-9
        resolved = None
        best: tuple[float, Refinement, float] | None = None
        examined = 0
        exhausted = True
        timed_out = False
        cancelled = False
        search_started = time.perf_counter()
        for values in space.candidate_values():
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
            result = bind(values if reorder is None else reorder(values))
            if len(result) < k_star:
                continue
            if resolved is None or resolved.ordered is not result.ordered:
                resolved = ResolvedConstraints(constraints, result.ordered)
            deviation = resolved.deviation(result)
            if deviation > threshold:
                continue
            if terms is None:
                distance = self.distance.evaluate_rankings(
                    self._original_result, result, k_star
                )
            else:
                distance = 0.0
                for position, term, predicate in terms:
                    distance += term(predicate, values[position])
            if best is None or distance < best[0] - IMPROVEMENT_EPSILON:
                best = (distance, space.refinement(values), deviation)
                if self._on_incumbent is not None:
                    self._on_incumbent(*best)
        return _SweepOutcome(best, examined, exhausted, timed_out, cancelled)

    # -- hooks ------------------------------------------------------------------------

    def _prepare(self, annotated: AnnotatedDatabase) -> None:
        """Hook for subclasses that need the annotations."""


class NaiveSearch(_BaseExhaustiveSearch):
    """The paper's ``Naive``: every candidate is re-evaluated on the DBMS.

    As a DBMS runs a prepared statement with new parameters, the query's
    shape is prepared once per search (:meth:`QueryExecutor.prepare`) and
    each candidate's values are bound to it: on sqlite one statement per
    candidate, on the memory backend the swap check and the predicate masks,
    whose result is the selected positions over the ordered join.  The
    constraints' group memberships are resolved over that join once per
    search, so a candidate's deviation reads them at its first ``k``
    positions, and a rejected candidate builds no relation.  It stays one
    candidate at a time on purpose: it is the paper's baseline that pays a
    query evaluation per candidate, and on sqlite it is the ground truth the
    block kernel of :class:`NaiveProvenanceSearch` is tested against.
    """

    method = "naive"


@dataclass(frozen=True)
class MaskIndexData:
    """The immutable, shareable column views the block kernel reads.

    Holds, over the rank-ordered ``~Q(D)``, the float view of every
    numerical predicate column, the ``(codes, mapping)`` factorization of
    every categorical predicate column, and the combined DISTINCT-key codes —
    read-only NumPy arrays.  A warm
    :class:`~repro.service.session.DatasetSession` builds this once and hands
    it to every search over the dataset; each search derives its own
    per-dimension tables from it, so concurrent searches never share mutable
    state.
    """

    length: int
    numeric: Mapping[str, np.ndarray]
    codes: Mapping[str, tuple]
    distinct_codes: np.ndarray | None

    @classmethod
    def build(cls, query: SPJQuery, base: Relation) -> "MaskIndexData | None":
        """The views over the columns of ``base``.

        ``None`` when a predicate or DISTINCT column has no float or code
        view to index.
        """
        store = base.column_store()
        numeric: dict[str, np.ndarray] = {}
        for predicate in query.numerical_predicates:
            values = store.numeric(predicate.attribute)
            if values is None:
                return None
            numeric[predicate.attribute] = values
        codes: dict[str, tuple] = {}
        for predicate in query.categorical_predicates:
            factorized = store.codes(predicate.attribute)
            if factorized is None:
                return None
            codes[predicate.attribute] = factorized
        distinct_codes = None
        if query.distinct and query.select:
            distinct_codes = columnar.combined_codes(store, list(query.select))
            if distinct_codes is None:
                return None
        return cls(store.length, numeric, codes, distinct_codes)


# -- the block kernel ------------------------------------------------------------------

#: ``_LOW_BITS[p]`` keeps the ``p`` lowest bits of a word.
_LOW_BITS = np.array([(1 << bits) - 1 for bits in range(65)], dtype=np.uint64)

#: Set bits of every byte value.
_BYTE_ONES = np.array([bin(value).count("1") for value in range(256)], dtype=np.int16)


def _byte_cuts() -> np.ndarray:
    """``cuts[b, m]``: the fewest low bits of byte ``b`` holding ``m`` of its
    set bits (8 when it has fewer)."""
    cuts = np.full((256, 9), 8, dtype=np.intp)
    cuts[:, 0] = 0
    for value in range(256):
        seen = 0
        for bit in range(8):
            if value >> bit & 1:
                seen += 1
                cuts[value, seen] = bit + 1
    return cuts


_BYTE_CUT = _byte_cuts()

def _pack(mask: np.ndarray) -> np.ndarray:
    """Bit-pack boolean rows: row ``r`` becomes bit ``r % 64`` of word ``r // 64``."""
    packed = np.packbits(mask, axis=-1, bitorder="little")
    pad = -packed.shape[-1] % 8
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(packed.shape[:-1] + (pad,), dtype=np.uint8)], axis=-1
        )
    return np.ascontiguousarray(packed).view("<u8")


def _unpack(words: np.ndarray, length: int) -> np.ndarray:
    """The boolean rows of bit-packed words (the inverse of :func:`_pack`)."""
    bits = np.unpackbits(words.view(np.uint8), axis=-1, count=length, bitorder="little")
    return bits.view(bool)


def _bit_cut(words: np.ndarray, need: np.ndarray) -> np.ndarray:
    """Per word, the fewest low bits holding ``need`` of its set bits
    (``need`` is below the word's popcount).

    The running popcount of the word's bytes finds the byte holding the
    ``need``-th set bit, and a table finds the bit inside that byte.
    """
    octets = words.view(np.uint8).reshape(-1, 8)
    running = np.cumsum(_BYTE_ONES[octets], axis=1, dtype=np.int16)
    byte = np.count_nonzero(running < need[:, None], axis=1)
    index = np.arange(byte.shape[0])
    rest = need - np.where(byte > 0, running[index, byte - 1], 0)
    return 8 * byte + _BYTE_CUT[octets[index, byte], rest]


class _Dimension:
    """One enumeration dimension as a table over the rows of ``~Q(D)``:
    value ``j``'s selected rows, bit-packed into 64-row words.

    The table is built once per search when it fits ``_MAX_TABLE_BYTES``;
    otherwise each block packs the rows of the values it uses.
    """

    def __init__(self, values: list, length: int) -> None:
        self.values = values
        self._terms: dict = {}
        self._table = None
        words = -(-length // 64)
        if len(values) * words * 8 <= _MAX_TABLE_BYTES:
            self._table = np.empty((len(values), words), dtype="<u8")
            step = max(1, BLOCK_BYTES // max(length, 1))
            for start in range(0, len(values), step):
                stop = min(start + step, len(values))
                self._table[start:stop] = _pack(self._rows(np.arange(start, stop)))

    def _rows(self, positions: np.ndarray) -> np.ndarray:
        """``(len(positions), length)`` rows selected by the given values."""
        raise NotImplementedError

    def packed(self, positions: np.ndarray) -> np.ndarray:
        """Packed rows of the values at ``positions`` (a fresh array)."""
        if self._table is not None:
            return self._table[positions]
        unique, inverse = np.unique(positions, return_inverse=True)
        return _pack(self._rows(unique))[inverse]

    def terms(self, predicate) -> np.ndarray:
        """The predicate-distance term of every value (cached per predicate)."""
        cached = self._terms.get(id(predicate))
        if cached is None:
            cached = self._terms[id(predicate)] = self._term_table(predicate)
        return cached

    def _term_table(self, predicate) -> np.ndarray:
        raise NotImplementedError


class _NumericDimension(_Dimension):
    """A numerical dimension: its ``j``-th constant selects the rows whose
    value satisfies ``value <op> constant`` (NULL, read as NaN, fails)."""

    def __init__(self, values: list, row_values: np.ndarray, operator: Operator) -> None:
        self.constants = np.asarray(values, dtype=float)
        self._row_values = row_values
        self._compare = columnar.COMPARISONS[operator]
        super().__init__(values, row_values.shape[0])

    def _rows(self, positions: np.ndarray) -> np.ndarray:
        return self._compare(self._row_values[None, :], self.constants[positions][:, None])

    def _term_table(self, predicate) -> np.ndarray:
        return PredicateDistance.numerical_term(predicate, self.constants)


class _SubsetDimension(_Dimension):
    """A categorical dimension: its ``j``-th value subset selects the rows
    whose value it holds, read off a (subsets x codes) membership table by
    gathering with the rows' value codes.  A value no tuple carries has no
    code and selects nothing."""

    def __init__(self, subsets: list, codes: np.ndarray, mapping: Mapping) -> None:
        member = np.zeros((len(subsets), len(mapping)), dtype=bool)
        rows = np.repeat(np.arange(len(subsets)), [len(subset) for subset in subsets])
        codes_held = np.array(
            [mapping.get(value, -1) for subset in subsets for value in subset], dtype=np.intp
        )
        held = codes_held >= 0
        member[rows[held], codes_held[held]] = True
        self._member = member
        self._codes = codes
        super().__init__(subsets, codes.shape[0])

    def _rows(self, positions: np.ndarray) -> np.ndarray:
        return np.take(self._member[positions], self._codes, axis=1)

    def _term_table(self, predicate) -> np.ndarray:
        return np.array(
            [PredicateDistance.categorical_term(predicate, subset) for subset in self.values],
            dtype=float,
        )


@dataclass
class _Block:
    """A run of consecutive candidates: fixed outer values, inner digits.

    ``base`` holds the packed rows the outer values leave; it is ``None``
    for a run whose outer values leave fewer than ``k*`` rows, where every
    candidate is infeasible and nothing is evaluated.
    """

    size: int
    base: np.ndarray | None = None
    #: ``(dimension, position)`` of each outer dimension's fixed value.
    outer: tuple = ()
    dimensions: tuple = ()
    digits: tuple = ()

    def head(self, count: int) -> "_Block":
        digits = tuple(digit[:count] for digit in self.digits)
        return _Block(count, self.base, self.outer, self.dimensions, digits)

    def values(self, candidate: int) -> tuple:
        """The candidate's value on every dimension, outermost first."""
        return tuple(dimension.values[position] for dimension, position in self.outer) + tuple(
            dimension.values[digit[candidate]]
            for dimension, digit in zip(self.dimensions, self.digits)
        )


class _BlockKernel:
    """Evaluates runs of consecutive candidates of one search in NumPy.

    Every enumeration dimension is a table of bit-packed row sets over
    ``~Q(D)`` (:class:`_NumericDimension`, :class:`_SubsetDimension`).  A
    block fixes the values of the outer dimensions and varies the inner
    ones; a candidate's selection is the AND of its values' row words.
    Sizes, top-k group counts and deviations come from popcounts of those
    words (:meth:`evaluate`), and predicate distances from per-dimension
    term arrays (:meth:`distances`).  The state dies with its search.
    """

    def __init__(
        self,
        data: MaskIndexData,
        space: RefinementSpace,
        query: SPJQuery,
        constraints: ConstraintSet,
        base: Relation,
        epsilon: float,
    ) -> None:
        self._data = data
        self._space = space
        self._k_star = constraints.k_star
        self._threshold = epsilon + 1e-9
        #: Per constraint ``(k, members, sign, bound, denominator)`` over ``~Q(D)``.
        self._terms = ResolvedConstraints(constraints, base).terms
        self._groups = [_pack(members) for _, members, *_ in self._terms]
        #: ``k -> [constraint index]``, one entry per prefix length.
        self._by_k: dict[int, list] = {}
        for index, (k, *_) in enumerate(self._terms):
            self._by_k.setdefault(k, []).append(index)
        self._all_rows = _pack(np.ones(data.length, dtype=bool))
        self._distinct = None
        words = self._all_rows.shape[0]
        candidate_bytes = _WORD_BYTES * words
        if data.distinct_codes is not None:
            order = np.argsort(data.distinct_codes, kind="stable")
            ordered = data.distinct_codes[order]
            starts = np.ones(ordered.shape[0], dtype=bool)
            starts[1:] = ordered[1:] != ordered[:-1]
            first = np.maximum.accumulate(np.where(starts, np.arange(ordered.shape[0]), 0))
            self._distinct = (order, first)
            candidate_bytes += _DISTINCT_ROW_BYTES * data.length
        low, high = _BLOCK_LIMITS
        self._block_size = max(low, min(high, BLOCK_BYTES // candidate_bytes))
        self._keys = space.dimensions()
        self._dimensions = [self._dimension(position) for position in range(len(self._keys))]
        #: ``(dimension position, predicate)`` in the summation order of
        #: :meth:`PredicateDistance.evaluate_refinement`.
        self._plan = [
            (space.position(predicate), predicate)
            for predicate in query.numerical_predicates + query.categorical_predicates
        ]

    def _dimension(self, position: int) -> _Dimension | None:
        """The table of one dimension; ``None`` for a categorical dimension
        too large to tabulate."""
        key = self._keys[position]
        if isinstance(key, tuple):
            attribute, operator = key
            values = self._space.numerical_candidates(key)
            return _NumericDimension(values, self._data.numeric[attribute], operator)
        if self._space.dimension_size(position) > _MAX_TABULATED_SUBSETS:
            return None
        values = list(self._space.dimension_values(position))
        return _SubsetDimension(values, *self._data.codes[key])

    # -- blocks ----------------------------------------------------------------------

    def blocks(self) -> Iterator[_Block]:
        """Consecutive runs of the enumeration order, first to last."""
        dimensions = self._dimensions
        sizes = [self._space.dimension_size(position) for position in range(len(dimensions))]
        split = len(dimensions)
        inner = 1
        while split and dimensions[split - 1] is not None and inner < _MIN_INNER:
            split -= 1
            inner *= sizes[split]
        # An untabulated last dimension streams in chunks after the outer ones.
        streamed = split == len(dimensions) and split > 0
        plan = (dimensions, sizes, split - 1 if streamed else split, streamed)
        return self._expand(plan, 0, (), self._all_rows)

    def _expand(self, plan, position: int, outer: tuple, base: np.ndarray) -> Iterator[_Block]:
        dimensions, sizes, outer_count, streamed = plan
        if int(np.bitwise_count(base).sum()) < self._k_star:
            yield _Block(math.prod(sizes[position:]), outer=outer)
            return
        if position < outer_count:
            dimension = dimensions[position]
            if dimension is None:
                codes, mapping = self._data.codes[self._keys[position]]
                subsets = self._space.dimension_values(position)
                pairs = ((_SubsetDimension([subset], codes, mapping), 0) for subset in subsets)
            else:
                pairs = ((dimension, index) for index in range(len(dimension.values)))
            for table, index in pairs:
                rows = base & table.packed(np.array([index]))[0]
                yield from self._expand(plan, position + 1, outer + ((table, index),), rows)
            return
        size = self._block_size
        if streamed:
            codes, mapping = self._data.codes[self._keys[position]]
            subsets = self._space.dimension_values(position)
            while chunk := list(itertools.islice(subsets, size)):
                table = _SubsetDimension(chunk, codes, mapping)
                yield _Block(len(chunk), base, outer, (table,), (np.arange(len(chunk)),))
            return
        inner_sizes = sizes[position:]
        total = math.prod(inner_sizes)
        for start in range(0, total, size):
            count = min(size, total - start)
            digits = tuple(candidate_digits(inner_sizes, start, count))
            yield _Block(count, base, outer, tuple(dimensions[position:]), digits)

    # -- evaluation --------------------------------------------------------------------

    def _words(self, block: _Block, candidates=slice(None)) -> np.ndarray:
        """Packed selected rows of the block's ``candidates`` (after DISTINCT)."""
        words = None
        for dimension, digits in zip(block.dimensions, block.digits):
            part = dimension.packed(digits[candidates])
            words = part if words is None else np.bitwise_and(words, part, out=words)
        if words is None:
            words = np.repeat(block.base[None, :], block.size, axis=0)[candidates]
        else:
            words &= block.base
        if self._distinct is not None:
            words = self._first_per_code(words)
        return words

    def _first_per_code(self, words: np.ndarray) -> np.ndarray:
        """DISTINCT: keep each candidate's first selected row of every
        distinct code (a cumsum within the rows grouped by code)."""
        selected = _unpack(words, self._data.length)
        order, first = self._distinct
        grouped = selected[:, order]
        running = np.cumsum(grouped, axis=1, dtype=np.int32)
        before = running[:, first] - grouped[:, first]
        kept = np.empty_like(selected)
        kept[:, order] = grouped & (running - before == 1)
        return _pack(kept)

    def evaluate(self, block: _Block) -> tuple[np.ndarray, np.ndarray]:
        """``(feasible, deviation)`` of every candidate of an evaluable block.

        Per candidate, a running popcount over its row words gives its size
        and, for each constraint prefix ``k``, the word holding its ``k``-th
        selected row: the group rows of the words before it all count, and
        of that word only the lowest bits up to the ``k``-th selected row
        (:func:`_bit_cut`).
        """
        words = self._words(block)
        running = np.cumsum(np.bitwise_count(words), axis=1, dtype=np.int32)
        counts = np.zeros((len(self._terms), block.size), dtype=np.int64)
        for k, members in self._by_k.items():
            within = running <= k
            cut = np.count_nonzero(within, axis=1)
            crossing = np.flatnonzero(cut < words.shape[1])
            column = cut[crossing]
            word = words[crossing, column]
            before = np.where(column > 0, running[crossing, column - 1], 0)
            head = word & _LOW_BITS[_bit_cut(word, k - before)]
            for index in members:
                mask = self._groups[index]
                hits = np.where(within, np.bitwise_count(words & mask), 0)
                counts[index] = hits.sum(axis=1)
                counts[index, crossing] += np.bitwise_count(head & mask[column])
        # Definition 2.6 with the float operations of the scalar deviation.
        total = 0.0
        for index, (_, _, sign, bound, denominator) in enumerate(self._terms):
            shortfall = np.maximum(sign * (bound - counts[index]), 0)
            total = total + shortfall / denominator
        deviation = total / len(self._terms)
        feasible = (running[:, -1] >= self._k_star) & (deviation <= self._threshold)
        return feasible, deviation

    def distances(self, block: _Block, candidates: np.ndarray) -> np.ndarray:
        """Predicate distances of ``candidates``, summed term by term in the
        order of :meth:`PredicateDistance.evaluate_refinement`."""
        outer_count = len(block.outer)
        total = 0.0
        for position, predicate in self._plan:
            if position < outer_count:
                dimension, index = block.outer[position]
                total = total + dimension.terms(predicate)[index]
            else:
                inner = position - outer_count
                table = block.dimensions[inner].terms(predicate)
                total = total + table[block.digits[inner][candidates]]
        return np.broadcast_to(np.asarray(total, dtype=float), candidates.shape)

    def positions(self, block: _Block, candidate: int) -> np.ndarray:
        """Rank-ordered positions of ``~Q(D)`` one candidate of a block selects."""
        words = self._words(block, slice(candidate, candidate + 1))
        return np.flatnonzero(_unpack(words, self._data.length)[0])


def _settled(best: tuple | None) -> bool:
    """Whether no candidate can improve on ``best`` any more: distances are
    non-negative, so nothing lies 1e-12 below an incumbent under 1e-12.
    The rest of the sweep is then only counted."""
    return best is not None and best[0] - IMPROVEMENT_EPSILON < 0.0


def _improvements(distance: np.ndarray, best: float | None) -> list[int]:
    """Indices the per-candidate rule accepts, in order, from a run of
    feasible distances entering with incumbent distance ``best``.

    The rule accepts ``d < best - 1e-12``.  An accepted distance is below
    every earlier one (an earlier one below it would have been accepted and
    lowered ``best``), so only strict running minima can pass: NumPy finds
    those record lows and the rule itself runs on them alone.
    """
    if best is not None:
        distance = np.where(distance < best - IMPROVEMENT_EPSILON, distance, np.inf)
    record = np.isfinite(distance)
    record[1:] &= distance[1:] < np.minimum.accumulate(distance)[:-1]
    accepted = []
    for index in np.flatnonzero(record).tolist():
        value = float(distance[index])
        if best is None or value < best - IMPROVEMENT_EPSILON:
            accepted.append(index)
            best = value
    return accepted


class NaiveProvenanceSearch(_BaseExhaustiveSearch):
    """The paper's ``Naive+prov``: candidates are evaluated on the annotations.

    The search walks the enumeration order a block at a time
    (:class:`_BlockKernel`): feasibility, deviation and the predicate
    distance of a whole block come from a few NumPy calls, and only a
    candidate that can beat the incumbent becomes a :class:`Refinement`.
    Answers, candidate counts and the racing hooks are those of the
    per-candidate loop.
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
        self._base: Relation | None = None
        self._kernel: _BlockKernel | None = None

    def _prepare(self, annotated: AnnotatedDatabase) -> None:
        # A candidate's output is its positions over the rank-ordered ~Q(D)
        # (the executor's cached ordered join); the kernel's tables derive
        # from its columns.  Only the immutable MaskIndexData is shareable
        # (a warm session passes its copy in).
        self._base = self._executor.evaluate_unfiltered(self.query).relation
        data = self._mask_data
        if data is None:
            data = MaskIndexData.build(self.query, self._base)
        self._kernel = None
        if data is not None:
            self._kernel = _BlockKernel(
                data, self._space, self.query, self.constraints, self._base, self.epsilon
            )

    def _sweep(self) -> _SweepOutcome:
        """Walk the enumeration order a block at a time.

        The stop hooks are polled before every block (and every few distance
        evaluations inside one); ``max_candidates`` caps the candidates
        examined, cutting inside a block if it must.  A candidate is
        accepted by the per-candidate rule (``distance < best - 1e-12``, in
        enumeration order), and only a strict running minimum of the
        feasible distances can pass it, so the rule is applied in Python to
        those record lows alone.
        """
        kernel = self._kernel
        if kernel is None:
            return super()._sweep()
        started = time.perf_counter()
        should_stop, timeout, budget = self._should_stop, self.timeout, self.max_candidates

        def stop() -> str | None:
            if should_stop is not None and should_stop():
                return "cancelled"
            if timeout is not None and time.perf_counter() - started > timeout:
                return "timed_out"
            return None

        best: tuple | None = None
        examined = 0
        reason = None
        exhausted = True
        for block in kernel.blocks():
            reason = stop()
            if reason is not None:
                exhausted = False
                break
            truncated = budget is not None and block.size > budget - examined
            if truncated:
                if budget <= examined:
                    exhausted = False
                    break
                block = block.head(budget - examined)
            done = block.size
            if block.base is not None and not _settled(best):
                feasible, deviation = kernel.evaluate(block)
                candidates = np.flatnonzero(feasible)
                if candidates.size and isinstance(self.distance, PredicateDistance):
                    best = self._accept_records(block, candidates, deviation, best)
                elif candidates.size:
                    best, done, reason = self._accept_outcomes(
                        block, candidates, deviation, best, stop
                    )
            examined += done
            if reason is not None or truncated:
                exhausted = False
                break
        return _SweepOutcome(
            best, examined, exhausted, reason == "timed_out", reason == "cancelled"
        )

    def _accept_records(self, block, candidates, deviation, best):
        """Apply the strict-improvement rule to a block's feasible candidates."""
        distance = self._kernel.distances(block, candidates)
        for index in _improvements(distance, None if best is None else best[0]):
            candidate = int(candidates[index])
            refinement = self._space.refinement(block.values(candidate))
            best = (float(distance[index]), refinement, float(deviation[candidate]))
            if self._on_incumbent is not None:
                self._on_incumbent(*best)
        return best

    def _accept_outcomes(self, block, candidates, deviation, best, stop):
        """Outcome-based distances: the kernel is the feasibility prefilter,
        and each feasible candidate, in order, is read off its positions over
        ``~Q(D)`` by ``distance.evaluate_rankings``.  A :class:`Refinement`
        is built only for an improvement.

        Returns ``(best, candidates examined, stop reason)``.
        """
        k_star = self.constraints.k_star
        for evaluated, candidate in enumerate(candidates.tolist()):
            if _settled(best):
                break
            if evaluated and evaluated % _POLL_EVERY == 0:
                reason = stop()
                if reason is not None:
                    return best, candidate, reason
            result = RankedResult(self.query, self._base, self._kernel.positions(block, candidate))
            value = self.distance.evaluate_rankings(self._original_result, result, k_star)
            if best is None or value < best[0] - IMPROVEMENT_EPSILON:
                refinement = self._space.refinement(block.values(candidate))
                best = (value, refinement, float(deviation[candidate]))
                if self._on_incumbent is not None:
                    self._on_incumbent(*best)
        return best, block.size, None


__all__ = [
    "IMPROVEMENT_EPSILON",
    "MaskIndexData",
    "NaiveProvenanceSearch",
    "NaiveResult",
    "NaiveSearch",
]
