"""The parallel sharded sweep engine behind the exhaustive baselines.

``Naive``/``Naive+prov`` enumerate the refinement-candidate space as nested
per-predicate sweeps.  This module shards that space along its *outermost*
dimension — contiguous runs of the first numerical predicate's candidate
constants, or of the first categorical attribute's subset chain — and fans the
shards out over a process pool.  Each worker receives the fully prepared
search object (fork-inherited on Linux, pickled on spawn-only platforms),
evaluates its shard with the exact serial hot loop, and sends back only a
tiny ``ShardOutcome`` (best candidate + bookkeeping); the parent merges
outcomes in shard order with the serial comparison rule, so the merged result
is the one the serial loop would have produced.

Determinism contract
--------------------
* Shards are contiguous blocks of the serial enumeration order, and shard
  sizes are computed exactly (``RefinementSpace.tail_size``), so a global
  ``max_candidates`` budget truncates the very same candidate prefix the
  serial loop examines.
* The per-shard reduction and the cross-shard merge both use the serial
  strict-improvement rule (``distance < best - 1e-12``).  Outcomes are
  collected keyed by shard index and merged *in index order* once the sweep
  ends, so neither completion order nor crash-retry order can change the
  winner: the merged winner is the serial winner.
* Timeouts are wall-clock and therefore inherently nondeterministic — exactly
  as in the serial loop.  Workers honour the shared deadline so the pool
  drains promptly.

Fault tolerance
---------------
The pool is a ``concurrent.futures.ProcessPoolExecutor`` because it *detects*
worker death: a crashed worker (OOM kill, segfault, injected
``REPRO_FAULT_WORKER_CRASH``) surfaces as ``BrokenProcessPool`` instead of a
hung ``get()``.  On a broken pool the parent harvests every outcome that did
complete, requeues the unfinished shards with a bumped ``attempt`` counter,
and retries them on a fresh pool after a capped jittered backoff.  After
``REPRO_POOL_MAX_RESTARTS`` restarts the sweep *degrades to serial*: the
parent evaluates the remaining shards in-process, so a pathological pool can
slow a search down but never change its answer.  Each shard's outcome is
recorded exactly once (the index-keyed dict), so no shard is ever lost or
double-counted.

The pool size comes from the ``jobs=`` argument or the ``REPRO_SOLVER_JOBS``
environment variable; ``jobs=1`` bypasses this module entirely and runs the
byte-identical serial path.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import pickle
import random
import time
from collections import deque
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Iterator

from repro import faults
from repro.exceptions import ReproError

#: Strict-improvement tolerance shared with the serial search loop.
IMPROVEMENT_EPSILON = 1e-12

#: Upper bound on outer-dimension values per shard; keeps individual tasks
#: responsive (deadline checks, budget truncation) even when the outer
#: dimension is astronomically large (categorical-first spaces).
_MAX_CHUNK = 64

#: In-flight tasks per worker; bounds parent-side submission so lazily
#: generated shard streams (2^d - 1 subsets) are never materialised.
_WINDOW_PER_JOB = 2

#: Pool restarts tolerated before the sweep degrades to serial.
_DEFAULT_MAX_RESTARTS = 2

#: Restart backoff: base * 2^(restart-1), capped, with 50-100% jitter.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 0.5


def resolve_jobs(jobs: int | None = None) -> int:
    """Validated worker count: explicit ``jobs=``, else ``REPRO_SOLVER_JOBS``, else 1."""
    source = "jobs"
    if jobs is None:
        raw = os.environ.get("REPRO_SOLVER_JOBS")
        if raw is None:
            return 1
        source = "REPRO_SOLVER_JOBS"
        try:
            jobs = int(raw)
        except ValueError:
            raise ReproError(
                f"invalid {source}={raw!r}: expected a positive integer"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise ReproError(
            f"invalid {source}={jobs}: the solver needs at least one worker "
            "(use jobs=1 for the serial path)"
        )
    return jobs


def resolve_max_restarts() -> int:
    """Pool restarts tolerated before serial degradation (``REPRO_POOL_MAX_RESTARTS``)."""
    raw = os.environ.get("REPRO_POOL_MAX_RESTARTS")
    if raw is None:
        return _DEFAULT_MAX_RESTARTS
    try:
        value = int(raw)
    except ValueError:
        raise ReproError(
            f"invalid REPRO_POOL_MAX_RESTARTS={raw!r}: expected a non-negative integer"
        ) from None
    if value < 0:
        raise ReproError(
            f"invalid REPRO_POOL_MAX_RESTARTS={value}: restarts cannot be negative"
        )
    return value


@dataclass(frozen=True)
class ShardTask:
    """One contiguous block of the candidate enumeration order.

    ``first_values`` fixes the outermost dimension; ``budget`` is the number
    of candidates this shard may examine before the global ``max_candidates``
    cap is reached (``None`` = unbounded); ``deadline`` is an absolute
    ``time.time()`` timestamp shared by every shard of one search.
    ``attempt`` counts pool-crash retries of this shard (0 = first run); the
    fault plan uses it so an injected transient crash can succeed on retry.
    """

    index: int
    first_values: tuple
    budget: int | None
    deadline: float | None
    attempt: int = 0


@dataclass(frozen=True)
class ShardOutcome:
    """What a worker reports back: the shard's best candidate plus bookkeeping."""

    index: int
    examined: int
    #: ``(distance_value, refinement, deviation)`` or ``None``.
    best: tuple | None
    exhausted: bool
    timed_out: bool


#: The prepared search object, inherited by fork at pool creation (or
#: installed by :func:`_initialize_worker` from a pickle on spawn platforms).
_WORKER_SEARCH = None


def _initialize_worker(payload: bytes | None) -> None:
    global _WORKER_SEARCH
    if payload is not None:
        _WORKER_SEARCH = pickle.loads(payload)
    if _WORKER_SEARCH is not None:
        _WORKER_SEARCH.reset_after_fork()


def _run_shard(task: ShardTask) -> ShardOutcome:
    # Guarded so the injected crash can only ever kill a disposable pool
    # worker: in the parent (serial degradation) parent_process() is None.
    if faults.armed() and multiprocessing.parent_process() is not None:
        faults.fire("worker-crash", key=task.index, attempt=task.attempt)
    return _WORKER_SEARCH.evaluate_shard(task)


def _shard_tasks(
    space,
    chunk: int,
    tail: int,
    max_candidates: int | None,
    deadline: float | None,
    state: dict,
) -> Iterator[ShardTask]:
    """Lazily cut the outer dimension into budgeted shard tasks.

    Sets ``state["truncated"]`` when the global ``max_candidates`` budget ran
    out while further candidates remained — the exact condition under which
    the serial loop reports ``exhausted=False``.
    """
    buffer: list = []
    offset = 0
    index = 0
    for value in space.first_dimension_values():
        buffer.append(value)
        if len(buffer) < chunk:
            continue
        budget = None if max_candidates is None else max_candidates - offset
        if budget is not None and budget <= 0:
            state["truncated"] = True
            return
        yield ShardTask(index, tuple(buffer), budget, deadline)
        offset += len(buffer) * tail
        index += 1
        buffer = []
    if buffer:
        budget = None if max_candidates is None else max_candidates - offset
        if budget is not None and budget <= 0:
            state["truncated"] = True
            return
        yield ShardTask(index, tuple(buffer), budget, deadline)


@dataclass
class SweepSummary:
    """The merged outcome of a sharded search (mirrors the serial loop's state)."""

    best: tuple | None
    examined: int
    exhausted: bool
    timed_out: bool
    #: Stopped by the search's cooperative ``should_stop`` hook.
    cancelled: bool = False
    #: Fresh pools spun up after worker crashes (0 = no crash seen).
    pool_restarts: int = 0
    #: The restart budget ran out and the tail of the sweep ran in-process.
    degraded_to_serial: bool = False


def _stop_executor(
    executor: concurrent.futures.ProcessPoolExecutor | None, *, kill: bool
) -> None:
    """Shut a pool down; ``kill`` also terminates workers still mid-shard.

    Unlike ``multiprocessing.Pool``, the executor's context exit *waits* for
    running futures — a cancelled portfolio race must not hold workers past
    the decision, so the abandon paths terminate the worker processes
    directly (the same semantics ``Pool.terminate`` gave the previous
    implementation).
    """
    if executor is None:
        return
    if not kill:
        executor.shutdown(wait=True, cancel_futures=True)
        return
    executor.shutdown(wait=False, cancel_futures=True)
    processes = getattr(executor, "_processes", None) or {}
    for process in list(processes.values()):
        process.terminate()


def _restart_backoff_s(restarts: int, deadline: float | None) -> float:
    """Capped exponential backoff with jitter, clamped to the sweep deadline."""
    base = min(_BACKOFF_CAP_S, _BACKOFF_BASE_S * (2 ** max(0, restarts - 1)))
    delay = base * (0.5 + 0.5 * random.random())
    if deadline is not None:
        delay = min(delay, max(0.0, deadline - time.time()))
    return delay


def run_sharded_search(
    search,
    jobs: int,
    timeout: float | None,
    max_candidates: int | None,
) -> SweepSummary | None:
    """Fan the candidate space of a prepared search out over ``jobs`` workers.

    Returns ``None`` when the space cannot be sharded (no enumeration
    dimension — the identity-only space) so the caller falls back to the
    serial loop.  ``search`` must already be prepared (``_prepare`` run, its
    refinement space attached): workers reuse that state verbatim.

    Worker crashes are retried on fresh pools (``attempt`` bumped each time)
    and, past the restart budget, the remaining shards are evaluated serially
    in the parent — the sweep result never depends on which of those paths
    ran (see the module docstring's determinism contract).
    """
    space = search._space
    if space is None or space.num_dimensions() == 0:
        return None
    if max_candidates is not None and max_candidates <= 0:
        return None
    first_size = space.first_dimension_size()
    if first_size <= 1:
        return None
    tail = space.tail_size()
    # Aim for several tasks per worker so stragglers rebalance, but never let
    # one task grow past _MAX_CHUNK outer values (deadline responsiveness).
    chunk = max(1, min(-(-first_size // (jobs * 4)), _MAX_CHUNK))
    deadline = None if timeout is None else time.time() + timeout

    start_methods = multiprocessing.get_all_start_methods()
    method = "fork" if "fork" in start_methods else "spawn"
    context = multiprocessing.get_context(method)
    if method == "fork":
        payload = None
    else:  # pragma: no cover - exercised only on spawn-only platforms
        payload = pickle.dumps(search)

    # Portfolio-racing hooks: polled/fired in the parent only (workers are
    # bounded by the shard deadline; the hooks never cross the fork).
    should_stop = getattr(search, "_should_stop", None)
    on_incumbent = getattr(search, "_on_incumbent", None)

    max_restarts = resolve_max_restarts()
    window = jobs * _WINDOW_PER_JOB

    global _WORKER_SEARCH
    state: dict = {"truncated": False}
    tasks = _shard_tasks(space, chunk, tail, max_candidates, deadline, state)
    retry: deque[ShardTask] = deque()
    outcomes: dict[int, ShardOutcome] = {}
    stream_best: tuple | None = None
    stream_dry = False
    stopped_on_deadline = False
    cancelled = False
    degraded_to_serial = False
    pool_restarts = 0

    def record(outcome: ShardOutcome) -> None:
        """File one shard's outcome (exactly once) and feed the racing hooks."""
        nonlocal stream_best
        outcomes[outcome.index] = outcome
        if outcome.best is not None and (
            stream_best is None
            or outcome.best[0] < stream_best[0] - IMPROVEMENT_EPSILON
        ):
            stream_best = outcome.best
            if on_incumbent is not None:
                on_incumbent(stream_best[0], stream_best[1], stream_best[2])

    def draw() -> ShardTask | None:
        """Next shard to run: crash retries first, then the lazy stream."""
        nonlocal stream_dry
        if retry:
            return retry.popleft()
        task = next(tasks, None)
        if task is None:
            stream_dry = True
        return task

    _WORKER_SEARCH = search
    executor: concurrent.futures.ProcessPoolExecutor | None = None
    try:
        while not (cancelled or degraded_to_serial):
            if executor is None:
                executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=jobs,
                    mp_context=context,
                    initializer=_initialize_worker,
                    initargs=(payload,),
                )
            pending: dict[concurrent.futures.Future, ShardTask] = {}
            broken = False
            while True:
                while (
                    (retry or not stream_dry)
                    and not stopped_on_deadline
                    and not cancelled
                    and not broken
                    and len(pending) < window
                ):
                    if should_stop is not None and should_stop():
                        cancelled = True
                        break
                    if deadline is not None and time.time() > deadline:
                        stopped_on_deadline = True
                        break
                    task = draw()
                    if task is None:
                        break
                    try:
                        pending[executor.submit(_run_shard, task)] = task
                    except BrokenProcessPool:
                        # Pool died between completions; the task never ran.
                        retry.appendleft(task)
                        broken = True
                if cancelled:
                    break
                if not pending:
                    break
                done, _ = concurrent.futures.wait(
                    pending, return_when=concurrent.futures.FIRST_COMPLETED
                )
                for future in done:
                    task = pending.pop(future)
                    try:
                        record(future.result())
                    except BrokenProcessPool:
                        retry.append(replace(task, attempt=task.attempt + 1))
                        broken = True
                if broken:
                    break
            if broken:
                # Harvest stragglers that did finish, requeue the rest, and
                # decide between a fresh pool and serial degradation.
                for future, task in pending.items():
                    if future.done() and not future.cancelled():
                        try:
                            record(future.result())
                            continue
                        except BrokenProcessPool:
                            pass
                    retry.append(replace(task, attempt=task.attempt + 1))
                _stop_executor(executor, kill=True)
                executor = None
                pool_restarts += 1
                if pool_restarts > max_restarts:
                    degraded_to_serial = True
                else:
                    backoff = _restart_backoff_s(pool_restarts, deadline)
                    if backoff > 0:
                        time.sleep(backoff)
                continue
            break

        if degraded_to_serial and not cancelled:
            # Restart budget exhausted: finish the sweep in-process.  Slower,
            # but the outcome set (and therefore the merge) is identical.
            while True:
                if should_stop is not None and should_stop():
                    cancelled = True
                    break
                if deadline is not None and time.time() > deadline:
                    stopped_on_deadline = True
                    break
                task = draw()
                if task is None:
                    break
                record(search.evaluate_shard(task))
    finally:
        _stop_executor(executor, kill=cancelled or degraded_to_serial)
        _WORKER_SEARCH = None

    # Deterministic merge: index order + the serial strict-improvement rule,
    # so completion/retry order cannot influence the winner.
    best: tuple | None = None
    examined = 0
    exhausted = True
    timed_out = False
    for index in sorted(outcomes):
        outcome = outcomes[index]
        examined += outcome.examined
        timed_out = timed_out or outcome.timed_out
        if not outcome.exhausted:
            exhausted = False
        if outcome.best is not None and (
            best is None or outcome.best[0] < best[0] - IMPROVEMENT_EPSILON
        ):
            best = outcome.best
    if state["truncated"]:
        # The candidate budget ran out with further candidates left.
        exhausted = False
    if cancelled:
        # In-flight/unvisited shards were abandoned on purpose.
        exhausted = False
    if stopped_on_deadline and (retry or next(tasks, None) is not None):
        exhausted = False
    if deadline is not None and time.time() > deadline and not exhausted:
        timed_out = True
    return SweepSummary(
        best=best,
        examined=examined,
        exhausted=exhausted,
        timed_out=timed_out,
        cancelled=cancelled,
        pool_restarts=pool_restarts,
        degraded_to_serial=degraded_to_serial,
    )


__all__ = [
    "IMPROVEMENT_EPSILON",
    "ShardOutcome",
    "ShardTask",
    "SweepSummary",
    "resolve_jobs",
    "resolve_max_restarts",
    "run_sharded_search",
]
