"""Lazy constraint generation (row generation) for the refinement MILPs.

The Figure 1 program is dominated by per-tuple rank machinery: one
rank-definition row plus two top-k membership rows per (tuple, k) pair.  At
the optimum only a small fraction of these rows is active (a distance-0
refinement keeps every original top-k member, so no rank ever needs to be
pinned down), yet the eager lowering makes HiGHS carry all of them through
every node.

This module implements the classic cutting-plane alternative:

* the builder withholds the two separable families as :class:`LazyPool`
  objects (COO triplets plus per-row group keys) and seeds the model with
  everything else — indicator, selection, minimum-output-size, prefix-chain,
  deviation and objective rows, plus the pool rows of the original top-k
  positions — unless fewer than :data:`MIN_LAZY_POOL_ROWS` pool rows would
  stay pending, in which case it lowers the whole program eagerly;
* :func:`run_cut_loop` solves the seeded relaxation, asks every pool's
  *separation oracle* (:meth:`LazyPool.separate`) which pending rows the
  candidate violates, appends those rows block-wise through
  :meth:`repro.milp.Model.add_constraint_block` (extending the cached CSR —
  never re-lowering), and re-solves warm-started until separation finds
  nothing or the budget expires.

Correctness: every pool row belongs to the full Figure 1 program, so each
relaxation's feasible set contains the full program's and each relaxation
optimum is a lower bound on the full optimum.  When separation finds no
violated row the incumbent is feasible for the *full* program while attaining
a relaxation optimum — i.e. it is optimal for the full program.  An infeasible
relaxation proves the full program infeasible for the same containment
reason.  Pools are finite, every round permanently adds at least one row, so
the loop terminates.

Group closure: a violated row is never added alone.  Pools key their rows by
tuple position, and the loop adds *all* pending rows sharing a violated key
across *all* pools — a top-k membership row without its rank-definition row
accomplishes nothing (the rank variable would stay free), so rows travel as
per-position groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from repro.core.deadline import Deadline
from repro.exceptions import ModelError
from repro.milp.model import SENSE_GE, SENSE_LE, Model
from repro.milp.solution import Solution, SolveStatus

#: Absolute feasibility slack below which a pending row is not considered
#: violated.  Looser than the backends' own ~1e-7 primal tolerance because the
#: rank rows carry O(n) big-M coefficients that amplify rounding noise;
#: genuine violations are at least _RANK_DELTA = 0.5.
DEFAULT_TOLERANCE = 1e-4

#: Smallest time limit handed to a backend: an expired budget still buys one
#: token solve so a caller with ``time_limit=0`` gets a typed time-limited
#: answer rather than an exception.
_MIN_SOLVE_LIMIT = 0.01

#: Slack when comparing an incumbent's objective against a proven lower bound.
_BOUND_TOLERANCE = 1e-6

#: After this many incremental rounds the loop stops trickling groups in and
#: adds every pending row at once.  Degenerate instances otherwise crawl —
#: each round's relaxation sneaks a single new tuple into the top-k and
#: separation flags one group — so escalation caps the loop at
#: ``DEFAULT_ESCALATION_ROUNDS`` cheap relaxation solves plus one solve of the
#: full program (the eager model, warm-started), bounding the worst case near
#: the eager solve time while keeping the large wins when convergence is fast.
DEFAULT_ESCALATION_ROUNDS = 4

#: Pool-size floor: when fewer rank/top-k rows than this would stay pending
#: after seeding, the builder lowers them eagerly instead of pooling them.
#: Row generation trades extra backend start-ups for a smaller matrix, which
#: only pays off once the withheld rows dominate the solve — on the reduced
#: law_students Kendall workload (~3,000 pool rows) the loop wins ~30x, while
#: sub-500-row models solve faster eagerly than any two rounds of the loop.
#: The builder reads it at build time, so tests reach either side of the
#: floor by monkeypatching it (0 forces the loop, a huge value the eager
#: lowering).
MIN_LAZY_POOL_ROWS = 512


class LazyPool:
    """One lazily-separable family of constraint rows.

    Rows are stored as COO triplets over *local* row ids with per-row senses,
    right-hand sides and an integer ``group_keys`` label (the tuple position a
    row belongs to).  ``pending`` tracks which rows are still withheld from
    the model; :meth:`take` hands violated groups over for
    :meth:`~repro.milp.Model.add_constraint_block` and marks them added.
    """

    __slots__ = (
        "name",
        "rows",
        "cols",
        "coeffs",
        "senses",
        "rhs",
        "group_keys",
        "pending",
        "_matrix",
    )

    def __init__(self, name, rows, cols, coeffs, senses, rhs, group_keys) -> None:
        self.name = str(name)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.cols = np.asarray(cols, dtype=np.int64)
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.senses = np.asarray(senses, dtype=np.int8)
        self.rhs = np.asarray(rhs, dtype=np.float64)
        self.group_keys = np.asarray(group_keys, dtype=np.int64)
        if not (self.senses.shape == self.rhs.shape == self.group_keys.shape):
            raise ModelError(
                f"lazy pool {self.name!r}: senses/rhs/group_keys must be "
                f"parallel arrays, got {self.senses.shape}, {self.rhs.shape}, "
                f"{self.group_keys.shape}"
            )
        if not (self.rows.shape == self.cols.shape == self.coeffs.shape):
            raise ModelError(
                f"lazy pool {self.name!r}: rows/cols/coeffs must be parallel "
                f"arrays, got {self.rows.shape}, {self.cols.shape}, "
                f"{self.coeffs.shape}"
            )
        self.pending = np.ones(self.rhs.shape[0], dtype=bool)
        self._matrix: sparse.csr_matrix | None = None

    def __len__(self) -> int:
        return int(self.rhs.shape[0])

    @property
    def num_pending(self) -> int:
        """How many rows are still withheld from the model."""
        return int(self.pending.sum())

    def _ensure_matrix(self, width: int) -> sparse.csr_matrix:
        # Built on first separation: by then every model variable (including
        # the distance auxiliaries created after the pools) exists, so the
        # candidate vector fixes the column count.
        if self._matrix is None or self._matrix.shape[1] != width:
            self._matrix = sparse.csr_matrix(
                (self.coeffs, (self.rows, self.cols)), shape=(len(self), width)
            )
        return self._matrix

    def separate(self, x: np.ndarray, tolerance: float = DEFAULT_TOLERANCE) -> np.ndarray:
        """The separation oracle: group keys of pending rows that ``x`` violates.

        Vectorized over the whole pool: one sparse mat-vec gives every row's
        residual, compared against its sense and right-hand side at once.
        """
        if not self.pending.any():
            return np.empty(0, dtype=np.int64)
        slack = self._ensure_matrix(x.shape[0]) @ x - self.rhs
        violated = np.where(
            self.senses == SENSE_LE,
            slack > tolerance,
            np.where(
                self.senses == SENSE_GE,
                slack < -tolerance,
                np.abs(slack) > tolerance,
            ),
        )
        violated &= self.pending
        return np.unique(self.group_keys[violated])

    def take(self, keys: np.ndarray):
        """Pending rows of the given groups as a COO block, marked as added.

        Returns ``(rows, cols, coeffs, senses, rhs)`` ready for
        :meth:`repro.milp.Model.add_constraint_block`, or ``None`` when no
        pending row carries one of ``keys``.
        """
        keys = np.asarray(keys, dtype=np.int64)
        selected = self.pending & np.isin(self.group_keys, keys)
        if not selected.any():
            return None
        row_ids = np.flatnonzero(selected)
        remap = np.full(len(self), -1, dtype=np.int64)
        remap[row_ids] = np.arange(row_ids.size, dtype=np.int64)
        entries = selected[self.rows]
        self.pending[row_ids] = False
        return (
            remap[self.rows[entries]],
            self.cols[entries],
            self.coeffs[entries],
            self.senses[row_ids],
            self.rhs[row_ids],
        )


class RankCompletion:
    """Rewrites a candidate's rank variables to the ranks its selection implies.

    The relaxation leaves the rank variables unconstrained (their defining
    rows live in the ``rank`` pool), so a relaxation optimum carries arbitrary
    values for them — separating on the raw candidate would flag every rank
    row and flood the model with the whole pool on round one.  The selection
    and prefix-chain variables *are* pinned by the eager seed, and the rank
    definition ``rank = rhs - expr(selection, prefix)`` determines each rank
    uniquely from them; substituting that implied rank yields an equivalent
    candidate (rank variables appear in no objective and no eager row) that
    satisfies every rank-definition row exactly.  Separation then flags only
    groups whose membership claims genuinely contradict the implied ranks —
    and the rank rows themselves enter the model via group closure.

    Because the completed candidate is a *witness*: when no pool row rejects
    it, it is feasible for the full program at the relaxation's objective
    value, which is what makes accepting the incumbent sound.
    """

    def __init__(self, rank_cols, rows, cols, coeffs, rhs) -> None:
        self._rank_cols = np.asarray(rank_cols, dtype=np.int64)
        self._rows = np.asarray(rows, dtype=np.int64)
        self._cols = np.asarray(cols, dtype=np.int64)
        self._coeffs = np.asarray(coeffs, dtype=np.float64)
        self._rhs = np.asarray(rhs, dtype=np.float64)
        self._matrix: sparse.csr_matrix | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self._matrix is None or self._matrix.shape[1] != x.shape[0]:
            self._matrix = sparse.csr_matrix(
                (self._coeffs, (self._rows, self._cols)),
                shape=(self._rhs.shape[0], x.shape[0]),
            )
        completed = np.array(x, dtype=np.float64, copy=True)
        completed[self._rank_cols] = self._rhs - self._matrix @ x
        return completed


@dataclass
class CutLoopOutcome:
    """What one :func:`run_cut_loop` invocation did.

    ``solution`` is the terminal backend solution — proven optimal when
    ``proven_optimal``; otherwise a typed time-limited incumbent (or an
    infeasible/error pass-through).  ``solve_seconds`` is the wall-clock time
    of the whole loop including separation.
    """

    solution: Solution
    rounds: int
    rows_generated: int
    proven_optimal: bool
    solve_seconds: float = 0.0


def run_cut_loop(
    model: Model,
    pools: Sequence[LazyPool],
    solve: Callable[[float | None, dict], Solution],
    *,
    time_limit: float | None = None,
    deadline: Deadline | None = None,
    completion: Callable[[np.ndarray], np.ndarray] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    escalation_rounds: int = DEFAULT_ESCALATION_ROUNDS,
) -> CutLoopOutcome:
    """Drive the cutting-plane loop until proven optimal or out of budget.

    ``solve(limit, guidance)`` runs one backend solve under ``limit`` seconds;
    from the second round on, ``guidance`` carries ``known_lower_bound`` (a
    proven lower bound on the full optimum) and ``warm_start_values`` (the
    previous incumbent).  Both are hints for branch-and-bound, which stops
    when its incumbent matches the bound and re-verifies the warm start
    against the grown model (discarding it if the new rows exclude it); the
    scipy backend ignores them.

    ``completion`` (see :class:`RankCompletion`) maps a candidate to an
    objective-equivalent witness before separation — substituting determined
    values for variables the relaxation leaves free, so separation measures
    genuine inconsistency instead of the arbitrary values a backend parks
    unconstrained variables at.

    The loop's bound only advances on rounds that are proven
    (relaxation-optimal, or an incumbent matching the current bound) — a
    plain time-limited incumbent never becomes a bound.

    After ``escalation_rounds`` incremental rounds the loop adds *every*
    pending row instead of only the violated groups (see
    :data:`DEFAULT_ESCALATION_ROUNDS`), so slowly-converging instances pay at
    most that many relaxation solves before one warm-started solve of the
    full program settles the matter.
    """
    started = time.perf_counter()

    def remaining() -> float | None:
        limits = []
        if time_limit is not None:
            limits.append(time_limit - (time.perf_counter() - started))
        if deadline is not None:
            limits.append(deadline.remaining())
        return min(limits) if limits else None

    def finish(solution: Solution, rounds: int, generated: int, proven: bool) -> CutLoopOutcome:
        return CutLoopOutcome(
            solution=solution,
            rounds=rounds,
            rows_generated=generated,
            proven_optimal=proven,
            solve_seconds=time.perf_counter() - started,
        )

    variables = model.variables
    bound: float | None = None
    incumbent: Solution | None = None
    rounds = 0
    generated = 0
    while True:
        budget = remaining()
        if budget is not None and budget <= 0.0 and incumbent is not None:
            # The ambient deadline or the caller's budget expired between
            # rounds: hand back the best relaxation incumbent, typed as a
            # time-limited stop so anytime callers (portfolio slices, the
            # service's deadline scope) treat it like any interrupted solve.
            return finish(
                replace(incumbent, status=SolveStatus.TIME_LIMIT),
                rounds,
                generated,
                False,
            )
        guidance: dict = {}
        if bound is not None:
            guidance["known_lower_bound"] = bound
        if incumbent is not None:
            guidance["warm_start_values"] = incumbent.values
        limit = None if budget is None else max(budget, _MIN_SOLVE_LIMIT)
        solution = solve(limit, guidance)
        if not solution.is_feasible:
            # An infeasible relaxation proves the full program infeasible
            # (its feasible set contains the full one); errors and empty
            # time-outs pass through untouched.
            return finish(solution, rounds, generated, False)
        incumbent = solution
        proven = solution.is_optimal or (
            bound is not None
            and solution.objective_value is not None
            and solution.objective_value <= bound + _BOUND_TOLERANCE
        )
        x = np.fromiter(
            (solution.values.get(variable, 0.0) for variable in variables),
            dtype=np.float64,
            count=len(variables),
        )
        if completion is not None:
            x = completion(x)
        violated = [pool.separate(x, tolerance) for pool in pools]
        keys = (
            np.unique(np.concatenate(violated))
            if violated
            else np.empty(0, dtype=np.int64)
        )
        if keys.size == 0:
            # Full-program feasible.  If this round was proven it attains a
            # lower bound on the full optimum, so it *is* the full optimum.
            if proven and not solution.is_optimal:
                solution = replace(solution, status=SolveStatus.OPTIMAL)
            return finish(solution, rounds, generated, proven)
        # Violated rows are rows of the full program, so adding them is sound
        # whether or not this round was proven — group closure pulls every
        # pending row of a violated position across all pools.
        if rounds >= escalation_rounds:
            # Escalate: the incremental trickle is not converging, so hand
            # the backend the complete program in one go.
            keys = np.unique(
                np.concatenate(
                    [pool.group_keys[pool.pending] for pool in pools]
                )
            )
        for pool in pools:
            block = pool.take(keys)
            if block is not None:
                model.add_constraint_block(*block)
                generated += int(block[4].shape[0])
        rounds += 1
        if not proven:
            # A time-limited incumbent with violations left: the budget is
            # gone (each round gets everything that remains), so return the
            # typed incumbent.  The rows just added make the next call —
            # e.g. the next portfolio slice over the same prepared problem —
            # resume from a tighter relaxation.
            return finish(solution, rounds, generated, False)
        if solution.objective_value is not None:
            bound = (
                solution.objective_value
                if bound is None
                else max(bound, solution.objective_value)
            )


__all__ = [
    "DEFAULT_ESCALATION_ROUNDS",
    "DEFAULT_TOLERANCE",
    "MIN_LAZY_POOL_ROWS",
    "CutLoopOutcome",
    "LazyPool",
    "RankCompletion",
    "run_cut_loop",
]
