"""The three Section 4 optimizations.

1. **Relevancy-based pruning** (:func:`apply_relevancy_pruning`): drop tuples
   that can never appear in the top-``k*`` of any refinement — those past
   position ``k*`` within their lineage equivalence class.
2. **Lineage-class variable merging**: tuples sharing a lineage always share
   the value of their selection variable, so one binary per class suffices.
   (Not applicable to DISTINCT queries; implemented inside the MILP builder,
   which consumes :class:`BuilderOptions`.)
3. **Rank-expression relaxation** for tuples whose groups carry only
   lower-bound or only upper-bound constraints (also implemented in the
   builder).

Options are bundled in :class:`BuilderOptions` so the solver facade can switch
between the paper's ``MILP`` (no optimizations) and ``MILP+opt`` (all
applicable optimizations) configurations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.constraints import BoundType, ConstraintSet
from repro.provenance.lineage import AnnotatedDatabase, AnnotatedTuple


@dataclass(frozen=True)
class BuilderOptions:
    """Which optimizations the MILP builder should apply.

    Attributes
    ----------
    relevancy_pruning:
        Apply the relevancy-based pruning before building the program.
    merge_lineage_variables:
        Use one selection variable per lineage class instead of one per tuple
        (silently skipped for DISTINCT queries, which need per-tuple variables).
    relax_rank_expressions:
        Replace the rank-definition equality with an inequality for tuples
        whose groups have only lower-bound (or only upper-bound) constraints.
    lazy_generation:
        The caller's promise to drive the cutting-plane loop
        (:func:`repro.core.lazy_generation.run_cut_loop`) over
        ``artifacts.lazy_pools``.  With it the builder withholds the rank
        definitions and top-k membership rows as
        :class:`repro.core.lazy_generation.LazyPool` objects whenever at least
        :data:`repro.core.lazy_generation.MIN_LAZY_POOL_ROWS` of them stay
        pending after seeding, and lowers them eagerly otherwise.  This is a
        solve strategy, not a Section 4 optimization — the loop provably
        converges to the same optima — so it defaults to ``False`` here
        (callers that solve ``artifacts.model`` themselves get the full
        program) and :class:`repro.core.solver.RefinementSolver` always
        switches it on.
    """

    relevancy_pruning: bool = True
    merge_lineage_variables: bool = True
    relax_rank_expressions: bool = True
    lazy_generation: bool = False

    @classmethod
    def none(cls) -> "BuilderOptions":
        """The paper's unoptimized ``MILP`` configuration."""
        return cls(
            relevancy_pruning=False,
            merge_lineage_variables=False,
            relax_rank_expressions=False,
        )

    @classmethod
    def all(cls) -> "BuilderOptions":
        """The paper's ``MILP+opt`` configuration."""
        return cls()


def apply_relevancy_pruning(
    annotated: AnnotatedDatabase,
    k_star: int,
    keep_positions: Iterable[int] = (),
) -> AnnotatedDatabase:
    """Return a pruned copy of ``annotated`` keeping only potentially relevant tuples.

    A tuple past position ``k*`` within its lineage equivalence class can never
    be ranked within the global top-``k*`` of any refinement, because every
    refinement that selects it also selects all better-ranked tuples of the
    same class (Section 4 of the paper).

    Two safeguards keep the pruning sound in the presence of DISTINCT queries
    and outcome-based distances:

    * positions listed in ``keep_positions`` (e.g. the tuples representing the
      original top-``k*`` items, which outcome-based objectives reference) are
      always kept, and
    * the duplicate sets ``S(t)`` of kept tuples are kept as well (transitively),
      so the DISTINCT de-duplication logic in the MILP stays exact.
    """
    keep: set[int] = set(keep_positions)
    for positions in annotated.lineage_classes.values():
        keep.update(positions[:k_star])

    # Close the kept set under "higher-ranked duplicate of a kept tuple".
    frontier = list(keep)
    while frontier:
        position = frontier.pop()
        for duplicate in annotated.duplicates_before(position):
            if duplicate not in keep:
                keep.add(duplicate)
                frontier.append(duplicate)

    kept_tuples: list[AnnotatedTuple] = [
        annotated_tuple
        for annotated_tuple in annotated.tuples
        if annotated_tuple.position in keep
    ]
    return AnnotatedDatabase(
        annotated.query,
        kept_tuples,
        annotated.categorical_domains,
        annotated.numerical_domains,
    )


def forced_predecessor_counts(
    annotated: AnnotatedDatabase, query, cap: int | None = None,
    scan_limit: int = 8192,
) -> dict[int, int] | None:
    """For each tuple, how many earlier tuples every refinement selecting it selects.

    For a non-DISTINCT query the selection variable of a tuple equals "all its
    lineage atoms hold".  A lineage atom of an earlier tuple ``t'`` is
    *implied* by the corresponding atom of ``t`` when satisfying ``t``'s atom
    forces ``t'``'s: equal values for categorical predicates, ``v' >= v`` for
    lower-bound numerical predicates (``v > C`` implies ``v' > C`` whenever
    ``v' >= v``), and ``v' <= v`` for upper-bound ones.  If every predicate
    implies, then any refinement selecting ``t`` also selects ``t'`` — so the
    rank of ``t``, when selected, is at least ``1 +`` this count.

    Returns a position → count mapping, or ``None`` when the bound does not
    apply (DISTINCT queries, where de-duplication breaks the equivalence, or
    non-numeric values in a numerical predicate column).  With ``cap`` the
    scan stops counting a tuple's dominators once ``cap`` are found (the
    caller only compares counts against ``k <= cap``), and ``scan_limit``
    bounds how many nearest predecessors are examined per tuple, keeping the
    otherwise O(n²) pairwise scan O(n·scan_limit) even when nothing
    dominates.  Both cut-offs under-count, and an undercount only *keeps*
    variables the exact count would have pruned — never the reverse — so the
    pruning stays sound.

    This is the rank-variable analogue of :func:`apply_relevancy_pruning`:
    a tuple whose count is ``>= k`` can never rank within the top-``k`` of
    any refinement, so its ``l_{t,k}`` variable is identically zero and the
    MILP builder omits it (together with its rank variable and big-M rows).
    """
    if query.distinct:
        return None
    tuples = annotated.tuples
    lower_columns: list[np.ndarray] = []
    upper_columns: list[np.ndarray] = []
    categorical_columns: list[np.ndarray] = []
    try:
        for predicate in query.numerical_predicates:
            column = np.array(
                [float(t.values[predicate.attribute]) for t in tuples], dtype=np.float64
            )
            if predicate.operator.is_lower_bound:
                lower_columns.append(column)
            else:
                upper_columns.append(column)
    except (TypeError, ValueError):
        return None
    for predicate in query.categorical_predicates:
        values = [t.values[predicate.attribute] for t in tuples]
        codes = {value: code for code, value in enumerate(dict.fromkeys(values))}
        categorical_columns.append(
            np.array([codes[value] for value in values], dtype=np.int64)
        )

    chunk = 1024
    counts: dict[int, int] = {}
    for index, annotated_tuple in enumerate(tuples):
        count = 0
        stop = index
        floor = max(0, index - scan_limit)
        while stop > floor and (cap is None or count < cap):
            start = max(floor, stop - chunk)
            implied = np.ones(stop - start, dtype=bool)
            for column in lower_columns:
                implied &= column[start:stop] >= column[index]
            for column in upper_columns:
                implied &= column[start:stop] <= column[index]
            for column in categorical_columns:
                implied &= column[start:stop] == column[index]
            count += int(np.count_nonzero(implied))
            stop = start
        counts[annotated_tuple.position] = count
    return counts


def classify_bound_types(
    annotated: AnnotatedDatabase, constraints: ConstraintSet
) -> dict[int, set[BoundType]]:
    """Map each tuple position to the bound types of the groups containing it.

    The rank-expression relaxation applies to tuples whose set is exactly
    ``{LOWER}`` or exactly ``{UPPER}``; tuples in groups of both kinds (or in
    no constrained group) keep the exact rank definition.
    """
    classification: dict[int, set[BoundType]] = {
        annotated_tuple.position: set() for annotated_tuple in annotated.tuples
    }
    # Constraints often share groups (e.g. a lower and an upper bound over the
    # same group); match each distinct group against the tuples once and fan
    # its bound types out, instead of re-matching per constraint.
    bound_types_by_group: dict = {}
    for constraint in constraints:
        bound_types_by_group.setdefault(constraint.group, set()).add(
            constraint.bound_type
        )
    for group, bound_types in bound_types_by_group.items():
        for annotated_tuple in annotated.tuples:
            if group.matches(annotated_tuple.values):
                classification[annotated_tuple.position].update(bound_types)
    return classification
