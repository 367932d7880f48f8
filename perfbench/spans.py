"""Span recording for the benchmark's traced runs (standard library only).

The recorder times calls into each layer's public functions from the
outside: :func:`instrument` swaps the module-level bindings the program
calls through for timing wrappers and returns a function that restores
them.  Nothing under ``src/`` changes, and an untraced run installs
nothing, so it pays nothing.

Spans nest on a stack: each records its name, start, end, parent and the
benchmark call it belongs to, plus integer counters.  ``chrome_trace``
writes them as Chrome trace-event JSON (opens in Perfetto), and
``self_times`` gives the flat per-layer table, where a layer's self time is
its spans' duration minus the part covered by their child spans.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "start_ns", "end_ns", "parent", "call", "counters",
                 "child_ns")

    def __init__(self, name: str, start_ns: int, parent: Optional["Span"],
                 call: int):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = start_ns
        self.parent = parent
        self.call = call
        self.counters: Dict[str, float] = {}
        self.child_ns = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Recorder:
    """Holds every finished span of one traced run, in memory."""

    def __init__(self):
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.call = 0
        self.origin_ns = time.perf_counter_ns()

    def open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, time.perf_counter_ns(), parent, self.call)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        popped = self.stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")
        if span.parent is not None:
            span.parent.child_ns += span.duration_ns
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def inside(self, name: str) -> bool:
        return bool(self.stack) and self.stack[-1].name == name

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> Callable:
        """``fn`` timed as a span ``name``.  ``before(args, kwargs)``
        returns state handed to ``after(span, state, args, kwargs,
        result)``, which sets the span's counters."""

        def wrapped(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            if after is not None:
                after(span, state, args, kwargs, result)
            return result

        return wrapped

    # -- reading the spans ---------------------------------------------------

    def chrome_trace(self, metadata: Dict) -> Dict:
        """Chrome trace-event JSON: one complete ("X") event per span."""
        events = [{
            "name": s.name, "ph": "X", "pid": 1, "tid": 1,
            "ts": (s.start_ns - self.origin_ns) / 1e3,
            "dur": s.duration_ns / 1e3,
            "args": dict(s.counters, call=s.call),
        } for s in sorted(self.spans, key=lambda s: s.start_ns)]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": metadata}

    def self_times(self) -> List[Dict]:
        """Per span name: count, total and self seconds, largest self
        first."""
        table: Dict[str, Dict] = {}
        for s in self.spans:
            row = table.setdefault(s.name, {"layer": s.name, "count": 0,
                                            "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s.duration_ns / 1e9
            row["self_s"] += (s.duration_ns - s.child_ns) / 1e9
        return sorted(table.values(), key=lambda r: -r["self_s"])


def _patch(undo: List, owner, attr: str, value) -> None:
    undo.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, value)


def instrument(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer's entry points in spans; returns the undo.

    ``propagate`` is bound by name in each module that imports it, so each
    importer's binding is wrapped separately.
    """
    from repro import api
    from repro.auto import evaluator, prior, prune, search
    from repro.sim import costmodel

    undo: List = []

    def stats_before(args, kwargs):
        env = args[1] if len(args) > 1 else kwargs["env"]
        return env, env.stats.ops_processed

    def propagate_after(span, state, args, kwargs, result):
        env, before = state
        span.counters["ops"] = env.stats.ops_processed - before

    for module in (api, evaluator, prune, search):
        _patch(undo, module, "propagate",
               rec.wrap("propagate", module.__dict__["propagate"],
                        propagate_after, stats_before))

    def enumerate_after(span, state, args, kwargs, result):
        span.counters["candidates"] = len(result)

    _patch(undo, search, "candidate_actions",
           rec.wrap("enumerate", search.candidate_actions, enumerate_after))
    _patch(undo, search, "table_for",
           rec.wrap("cache.load", search.table_for))
    _patch(undo, search, "mcts_search",
           rec.wrap("search", search.mcts_search))

    def prune_after(span, state, args, kwargs, report):
        span.counters.update(probes=report.probes_run, total=report.total,
                             kept=len(report.kept))

    _patch(undo, prune, "condense",
           rec.wrap("prune", prune.condense, prune_after))

    def evaluations_before(args, kwargs):
        return args[0].evaluations

    def evaluate_after(span, before, args, kwargs, result):
        span.counters["computed"] = args[0].evaluations - before

    _patch(undo, evaluator.Evaluator, "evaluate",
           rec.wrap("evaluate", evaluator.Evaluator.evaluate,
                    evaluate_after, evaluations_before))

    fit = prior.LinearPrior.__dict__["fit"].__func__
    _patch(undo, prior.LinearPrior, "fit",
           classmethod(rec.wrap("prior.fit", fit)))

    # Streaming estimation: estimate_incremental may fall back to
    # estimate(); only the outermost call opens a span.
    def streaming(fn):
        timed = rec.wrap("estimate", fn, streaming_after, reused_before)

        def outer(self, *args, **kwargs):
            if rec.inside("estimate"):
                return fn(self, *args, **kwargs)
            return timed(self, *args, **kwargs)

        return outer

    def reused_before(args, kwargs):
        return args[0].ops_reused

    def streaming_after(span, before, args, kwargs, result):
        span.counters["ops_reused"] = args[0].ops_reused - before

    for attr in ("estimate_incremental", "estimate"):
        _patch(undo, costmodel.StreamingEstimator, attr,
               streaming(costmodel.StreamingEstimator.__dict__[attr]))

    # partir_jit's materialized pipeline: per-tactic snapshots and the
    # final lowering.
    _patch(undo, api, "lower", rec.wrap("lower", api.lower))
    _patch(undo, api, "fuse_collectives",
           rec.wrap("fuse", api.fuse_collectives))
    _patch(undo, api, "count_collectives",
           rec.wrap("count", api.count_collectives))
    _patch(undo, costmodel, "estimate",
           rec.wrap("final_estimate", costmodel.estimate))

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        undo.clear()

    return restore


def wrap_tactics(rec: Recorder, schedule) -> None:
    """Time each tactic's ``apply`` (partir_jit calls it per instance)."""
    for tactic in schedule:
        tactic.apply = rec.wrap("tactic", tactic.apply)
