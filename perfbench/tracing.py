"""Layer spans for the traced run, recorded from outside ``src/``.

:func:`install` wraps the public callables of each layer (the table
:data:`LAYERS`) where their callers look them up: a method is replaced on its
class, a function on every ``repro`` module that imported it by name (for
example ``annotate`` lives in ``provenance.lineage`` and is bound again in
``core.solver`` and ``service.session``).  :func:`uninstall` puts back the
very objects it replaced.

Each span records its name, start, end, parent, request id and thread.  The
request id arrives in the ``X-Request-Id`` header and is attached to the
``server.handle`` span that roots the request; spans opened on a portfolio's
engine threads inherit the race span as their parent.  When a request's root
span closes its spans are folded into a summary (count, total and self time
per span name, summed counters, wall time and coverage), so memory stays
proportional to the requests in flight, not to the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Header carrying the benchmark's request id.
REQUEST_ID_HEADER = "X-Request-Id"

#: Name of the span that roots a request.
ROOT_SPAN = "server.handle"


@dataclass
class Span:
    name: str
    start: float
    span_id: int
    parent: int | None
    request: str | None
    thread: int
    end: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans per request and folds each request into a summary."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._spans: dict[str | None, list[Span]] = {}
        self.summaries: list[dict] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def context(self) -> tuple[int | None, str | None]:
        """The (parent span id, request id) a span opened here would get."""
        stack = self._stack()
        if stack:
            return stack[-1].span_id, stack[-1].request
        return getattr(self._local, "inherited", (None, None))

    def adopt(self, context: tuple[int | None, str | None]) -> None:
        """Make spans of this thread children of a span on another thread."""
        self._local.inherited = context

    def begin(self, name: str, request: str | None = None) -> Span:
        parent, inherited = self.context()
        span = Span(
            name=name,
            start=self._clock(),
            span_id=next(self._ids),
            parent=parent,
            request=request if request is not None else inherited,
            thread=threading.get_ident(),
        )
        self._stack().append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._spans.setdefault(span.request, []).append(span)

    def finish_request(self, request: str) -> None:
        """Fold a finished request's spans into its summary."""
        with self._lock:
            spans = self._spans.pop(request, [])
        summary = summarize(spans)
        summary["request"] = request
        with self._lock:
            self.summaries.append(summary)

    def dump(self) -> dict:
        """Summaries of every request, plus the spans outside any request.

        ``setup`` holds the spans opened with no request (the server's warm
        up); ``late`` those that closed after their request had been folded
        (an engine thread that outlived its race).
        """
        with self._lock:
            leftovers = dict(self._spans)
            self._spans.clear()
            requests = list(self.summaries)
        setup = summarize(leftovers.pop(None, []))
        late = summarize([span for spans in leftovers.values() for span in spans])
        return {"requests": requests, "setup": setup, "late": late}


# -- analysis ------------------------------------------------------------------------


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``parts``."""
    low, high = interval
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in parts if end > low and start < high
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children may run on other threads (a portfolio's engines) and overlap
    each other, so the covered part is the union of their intervals clipped
    to the parent, not the sum of their durations.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration
        - covered((span.start, span.end), children.get(span.span_id, []))
        for span in spans
    }


def summarize(spans: list[Span]) -> dict:
    """Per-name ``[count, total_s, self_s]``, summed counters, wall and coverage.

    ``wall_s`` and ``coverage`` describe the root span, when there is one:
    coverage is the share of its interval that its children cover.
    ``portfolio.milp_slices`` counts the MILP solves run on a portfolio's
    engine threads.
    """
    selves = self_times(spans)
    by_id = {span.span_id: span for span in spans}
    names: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    root = None
    for span in spans:
        entry = names.setdefault(span.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span.duration
        entry[2] += selves[span.span_id]
        for key, value in span.counters.items():
            counters[key] = counters.get(key, 0) + value
        if span.name == ROOT_SPAN and span.parent is None:
            root = span
        if span.name == "solver.solve" and _has_ancestor(span, "portfolio.engine", by_id):
            counters["portfolio.milp_slices"] = counters.get("portfolio.milp_slices", 0) + 1
    summary: dict[str, Any] = {"spans": names, "counters": counters}
    if root is not None and root.duration > 0:
        summary["wall_s"] = root.duration
        summary["coverage"] = 1.0 - selves[root.span_id] / root.duration
    return summary


def _has_ancestor(span: Span, name: str, by_id: dict[int, Span]) -> bool:
    parent = by_id.get(span.parent) if span.parent is not None else None
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent) if parent.parent is not None else None
    return False


# -- counters read off arguments and results --------------------------------------------


def _naive_counters(args, kwargs, result) -> dict[str, float]:
    return {"naive.examined": result.candidates_examined, "naive.space": result.space_size}


def _prune_counters(args, kwargs, result) -> dict[str, float]:
    annotated = args[0] if args else kwargs["annotated"]
    return {"prune.input": len(annotated.tuples), "prune.kept": len(result.tuples)}


def _cut_loop_counters(args, kwargs, result) -> dict[str, float]:
    pools = args[1] if len(args) > 1 else kwargs["pools"]
    return {
        "cut_loop.rounds": result.rounds,
        "cut_loop.rows_generated": result.rows_generated,
        "cut_loop.pool_rows": sum(len(pool) for pool in pools),
    }


def _backend_counters(args, kwargs, result) -> dict[str, float]:
    return {"backend.failed": 1 if result.status.value == "error" else 0}


def _race_counters(args, kwargs, result) -> dict[str, float]:
    return {"portfolio.races": 1, "portfolio.proven": 1 if result.proven_optimal else 0}


def _lowering_state(args, kwargs) -> tuple[int, int]:
    model = args[0]
    return model.full_lowerings, model.incremental_extensions


def _lowering_counters(state, args, kwargs, result) -> dict[str, float]:
    model = args[0]
    return {
        "model.full_lowerings": model.full_lowerings - state[0],
        "model.incremental_extensions": model.incremental_extensions - state[1],
    }


@dataclass(frozen=True)
class Layer:
    """One wrapped callable: the span it opens and the counters it reads."""

    span: str
    module: str
    attribute: str
    #: ``(args, kwargs, result) -> counters`` after a successful call.
    counters: Callable[..., dict[str, float]] | None = None
    #: ``(args, kwargs) -> state`` before the call, for counters that need a
    #: before/after difference; the counters then get ``state`` first.
    before: Callable[..., Any] | None = None
    #: A wrapper factory of its own, for callables whose span is not simply
    #: the call (a context manager's enter, a callback handed to another
    #: thread).
    custom: str | None = None


#: Every wrapped callable.  The per-layer metrics in ``metrics.py`` are
#: computed from these span names and counters.
LAYERS: tuple[Layer, ...] = (
    Layer("server.handle", "repro.service.server", "_Handler.do_POST", custom="root"),
    Layer("admission.wait", "repro.service.admission", "AdmissionController.admit",
          custom="admission"),
    Layer("engine.refine", "repro.service.engine", "RefinementEngine.refine"),
    Layer("coalesce.run", "repro.service.coalesce", "RequestCoalescer.run",
          custom="coalesce"),
    Layer("session.acquire", "repro.service.session", "SessionPool.get"),
    Layer("session.prepared_milp", "repro.service.session", "DatasetSession.prepared_milp",
          custom="prepared"),
    Layer("executor.evaluate", "repro.relational.executor", "QueryExecutor.evaluate"),
    Layer("lineage.annotate", "repro.provenance.lineage", "annotate"),
    Layer("naive.search", "repro.core.naive", "_BaseExhaustiveSearch.search",
          counters=_naive_counters),
    Layer("naive.mask_index", "repro.core.naive", "MaskIndexData.build"),
    Layer("prune", "repro.core.optimizations", "apply_relevancy_pruning",
          counters=_prune_counters),
    Layer("solver.prepare", "repro.core.solver", "RefinementSolver.prepare"),
    Layer("solver.solve", "repro.core.solver", "RefinementSolver.solve"),
    Layer("builder.build", "repro.core.milp_builder", "MILPBuilder.build"),
    Layer("model.lower", "repro.milp.model", "Model.to_standard_form",
          counters=_lowering_counters, before=_lowering_state),
    Layer("backend.solve", "repro.milp.solvers.scipy_backend", "ScipySolver.solve",
          counters=_backend_counters),
    Layer("highs.run", "scipy.optimize", "milp"),
    Layer("cut_loop", "repro.core.lazy_generation", "run_cut_loop",
          counters=_cut_loop_counters),
    Layer("cut_loop.separate", "repro.core.lazy_generation", "LazyPool.separate"),
    Layer("portfolio.race", "repro.core.portfolio", "PortfolioSolver.solve",
          counters=_race_counters),
    Layer("portfolio.engine", "repro.core.portfolio", "ThreadEngineRunner.launch",
          custom="engine"),
    # Verification has no public entry point: the race calls it privately
    # once per candidate it selects.
    Layer("portfolio.verify", "repro.core.portfolio", "PortfolioSolver._verify"),
)


# -- wrapper factories --------------------------------------------------------------------


def _plain(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        state = layer.before(args, kwargs) if layer.before is not None else None
        span = recorder.begin(layer.span)
        try:
            result = func(*args, **kwargs)
        except BaseException:
            span.counters[f"{layer.span}.errors"] = 1
            raise
        finally:
            recorder.end(span)
        if layer.counters is not None:
            extra = (
                layer.counters(state, args, kwargs, result)
                if layer.before is not None
                else layer.counters(args, kwargs, result)
            )
            span.counters.update(extra)
        return result

    return traced


def _root(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(handler, *args, **kwargs):
        request = handler.headers.get(REQUEST_ID_HEADER)
        span = recorder.begin(layer.span, request=request)
        try:
            return func(handler, *args, **kwargs)
        finally:
            recorder.end(span)
            if request is not None:
                recorder.finish_request(request)

    return traced


class _TracedAdmission:
    """Times the enter of ``admit``: the wait for a slot, or the shed."""

    def __init__(self, recorder: Recorder, name: str, manager) -> None:
        self._recorder = recorder
        self._name = name
        self._manager = manager

    def __enter__(self):
        span = self._recorder.begin(self._name)
        try:
            return self._manager.__enter__()
        except BaseException:
            span.counters["admission.shed"] = 1
            raise
        finally:
            self._recorder.end(span)

    def __exit__(self, *exc_info):
        return self._manager.__exit__(*exc_info)


def _admission(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(*args, **kwargs):
        return _TracedAdmission(recorder, layer.span, func(*args, **kwargs))

    return traced


def _with_flag(span: Span, key: str, callback: Callable) -> Callable:
    """``callback`` that marks ``span`` when it runs on the caller's behalf."""

    def flagged(*args, **kwargs):
        span.counters[key] = 1
        return callback(*args, **kwargs)

    return flagged


def _coalesce(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(coalescer, key, compute, *args, **kwargs):
        span = recorder.begin(layer.span)
        span.counters["coalesce.runs"] = 1
        try:
            return func(coalescer, key, _with_flag(span, "coalesce.led", compute),
                        *args, **kwargs)
        finally:
            recorder.end(span)

    return traced


def _prepared(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(session, key, factory, *args, **kwargs):
        span = recorder.begin(layer.span)
        span.counters["session.prepared_lookups"] = 1
        try:
            return func(session, key, _with_flag(span, "session.prepared_misses", factory),
                        *args, **kwargs)
        finally:
            recorder.end(span)

    return traced


def _engine(recorder: Recorder, layer: Layer, func: Callable) -> Callable:
    @functools.wraps(func)
    def traced(runner, start, control, reports, run, *args, **kwargs):
        context = recorder.context()

        def run_in_span(*run_args, **run_kwargs):
            recorder.adopt(context)
            span = recorder.begin(layer.span)
            try:
                return run(*run_args, **run_kwargs)
            finally:
                recorder.end(span)

        return func(runner, start, control, reports, run_in_span, *args, **kwargs)

    return traced


_FACTORIES = {
    None: _plain,
    "root": _root,
    "admission": _admission,
    "coalesce": _coalesce,
    "prepared": _prepared,
    "engine": _engine,
}


# -- install / uninstall -----------------------------------------------------------------


@dataclass(frozen=True)
class Patch:
    owner: Any
    name: str
    original: Any


def _wrap_descriptor(descriptor: Any, wrap: Callable[[Callable], Callable]) -> Any:
    if isinstance(descriptor, classmethod):
        return classmethod(wrap(descriptor.__func__))
    if isinstance(descriptor, staticmethod):
        return staticmethod(wrap(descriptor.__func__))
    return wrap(descriptor)


def _bindings(original: Any, home: Any) -> list[Any]:
    """Modules bound to ``original`` under its name: its home, and importers."""
    owners = [home]
    for name, module in list(sys.modules.items()):
        if module is home or not (name == "repro" or name.startswith("repro.")):
            continue
        if getattr(module, original.__name__, None) is original:
            owners.append(module)
    return owners


def install(recorder: Recorder, layers: tuple[Layer, ...] = LAYERS) -> list[Patch]:
    """Wrap every layer's callable; returns the patches :func:`uninstall` undoes."""
    patches: list[Patch] = []
    for layer in layers:
        module = importlib.import_module(layer.module)
        factory = _FACTORIES[layer.custom]

        def wrap(func: Callable, layer: Layer = layer, factory=factory) -> Callable:
            return factory(recorder, layer, func)

        owner_name, _, attribute = layer.attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attribute]
            patches.append(Patch(owner, attribute, original))
            setattr(owner, attribute, _wrap_descriptor(original, wrap))
            continue
        original = getattr(module, attribute)
        traced = wrap(original)
        for owner in _bindings(original, module):
            patches.append(Patch(owner, attribute, original))
            setattr(owner, attribute, traced)
    return patches


def uninstall(patches: list[Patch]) -> None:
    """Put back every original object, newest patch first."""
    for patch in reversed(patches):
        setattr(patch.owner, patch.name, patch.original)
