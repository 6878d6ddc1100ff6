"""Span tracing from outside the program, for the per-layer run.

The tracer wraps the public entry points of each layer (class methods
and imported functions) for the duration of the traced run and restores
them afterwards, so nothing under ``src/`` changes.  Every wrapped call
records a span -- name, start, end, parent span and the id of the query
it belongs to -- in memory; counts are recorded at the same boundaries.
Spans are written out as JSON lines once a traced pass ends.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span record: [name, start, end, parent index (-1 for a root), query id].
Span = List

#: Per-layer metric -> (span name, "self" | "inclusive").  Times are
#: reported per query.  ``inclusive`` layers are leaves from the tuner's
#: point of view (everything under them is that layer's own work);
#: ``optimizer.plan`` spans nest inside the base and what-if spans.
TIMED_LAYERS: Dict[str, Tuple[str, str]] = {
    "tuner.self_s": ("tuner.query", "self"),
    "optimizer.base_s": ("optimizer.base", "inclusive"),
    "optimizer.whatif_s": ("optimizer.whatif", "inclusive"),
    "optimizer.plan_s": ("optimizer.plan", "inclusive"),
    "profiler.profile_s": ("profiler.profile", "self"),
    "profiler.end_epoch_s": ("profiler.end_epoch", "self"),
    "self_organizer.end_epoch_s": ("self_organizer.end_epoch", "self"),
    "knapsack.solve_s": ("knapsack.solve", "inclusive"),
    "scheduler.build_s": ("scheduler", "inclusive"),
    "bandit.model_s": ("bandit.model", "inclusive"),
    "tuner.insert_s": ("tuner.insert", "inclusive"),
    "fleet.route_s": ("fleet.route", "inclusive"),
    "fleet.ipc_send_s": ("fleet.ipc_send", "inclusive"),
    "fleet.ipc_wait_s": ("fleet.ipc_wait", "inclusive"),
    "fleet.reorganize_s": ("fleet.reorganize", "inclusive"),
}

#: Per-layer count metric -> counter name, reported per trial.
COUNTED_LAYERS: Dict[str, str] = {
    "optimizer.whatif_calls": "optimizer.whatif_calls",
    "optimizer.plan_calls": "optimizer.plan",
    "knapsack.calls": "knapsack.solve",
    "knapsack.items": "knapsack.items",
    "scheduler.builds": "scheduler.build_index",
    "scheduler.drops": "scheduler.drops",
    "bandit.model_calls": "bandit.model",
    "tuner.inserts": "tuner.insert",
    "fleet.ipc_messages": "fleet.ipc_messages",
}


def covered_length(intervals: Iterable[Tuple[float, float]], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def span_times(spans: Sequence[Span]) -> Tuple[Dict[str, float], Dict[str, float]]:
    """(self time, inclusive time) summed per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.
    """
    children: Dict[int, List[Tuple[float, float]]] = collections.defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    self_time: Dict[str, float] = collections.defaultdict(float)
    inclusive: Dict[str, float] = collections.defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        inclusive[name] += end - start
        self_time[name] += (end - start) - covered_length(children.get(i, ()), start, end)
    return dict(self_time), dict(inclusive)


class Tracer:
    """In-memory span recorder that wraps layer entry points."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self.qid = -1
        self._open: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        count: Optional[Callable[[tuple, object], Dict[str, int]]] = None,
        root: bool = False,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``count(args, result)`` returns extra counters to add after the
        call; every call also counts once under ``name``.  A ``root``
        wrapper starts a new query id.
        """
        original = getattr(owner, attr)
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if root:
                tracer.qid += 1
            index = len(spans)
            spans.append([name, clock(), 0.0, open_[-1] if open_ else -1, tracer.qid])
            open_.append(index)
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                open_.pop()
            counts[name] += 1
            if count is not None:
                counts.update(count(args, result))
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped entry point back."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def drain(self, path=None) -> Tuple[Dict[str, float], Dict[str, float], collections.Counter]:
        """Write the recorded spans to ``path`` (when given) as JSON lines,
        reset, and return (self time, inclusive time, counts) of them."""
        self_time, inclusive = span_times(self.spans)
        counts = self.counts.copy()
        if path is not None:
            with open(path, "w") as out:
                out.write(json.dumps({"fields": ["name", "start", "end", "parent", "qid"]}) + "\n")
                for span in self.spans:
                    out.write(json.dumps(span) + "\n")
        self.spans.clear()
        self.counts.clear()
        return self_time, inclusive, counts


def install_tuner_layers(tracer: Tracer) -> None:
    """Wrap the serving path of both engines, layer by layer."""
    from repro.backend.local import LocalBackend
    from repro.bandit import tuner as bandit_tuner
    from repro.bandit.linucb import RidgeModel
    from repro.core import self_organizer
    from repro.core.colt import ColtTuner
    from repro.core.profiler import Profiler
    from repro.core.scheduler import Scheduler
    from repro.optimizer.whatif import WhatIfOptimizer

    for cls in (ColtTuner, bandit_tuner.BanditTuner):
        tracer.wrap(cls, "process_query", "tuner.query", root=True)
        tracer.wrap(cls, "process_insert", "tuner.insert")
    tracer.wrap(WhatIfOptimizer, "begin_query", "optimizer.base")
    tracer.wrap(WhatIfOptimizer, "what_if_optimize", "optimizer.whatif",
                count=lambda args, result: {"optimizer.whatif_calls": len(result)})
    tracer.wrap(LocalBackend, "optimize", "optimizer.plan")
    tracer.wrap(Profiler, "profile_query", "profiler.profile")
    tracer.wrap(Profiler, "end_epoch", "profiler.end_epoch")
    tracer.wrap(self_organizer.SelfOrganizer, "end_epoch", "self_organizer.end_epoch")
    items = lambda args, result: {"knapsack.items": len(args[0])}
    for module in (self_organizer, bandit_tuner):
        for function in ("solve_knapsack", "solve_constrained"):
            if hasattr(module, function):
                tracer.wrap(module, function, "knapsack.solve", count=items)
    for method in ("request_materialization", "advance_epoch"):
        tracer.wrap(Scheduler, method, "scheduler")
    tracer.wrap(Scheduler, "request_drop", "scheduler",
                count=lambda args, result: {"scheduler.drops": len(args[1])})
    tracer.wrap(Scheduler, "_build", "scheduler.build_index")
    for method in ("update", "ucb", "decay"):
        tracer.wrap(RidgeModel, method, "bandit.model")


def install_fleet_layers(tracer: Tracer, fleet) -> None:
    """Wrap the parent side of a worker fleet: routing, pipes, reorganization."""
    from repro.fleet.workers import WorkerFleetCoordinator, WorkerHandle

    message = lambda args, result: {"fleet.ipc_messages": 1}
    tracer.wrap(WorkerFleetCoordinator, "run", "fleet.run", root=True)
    tracer.wrap(type(fleet.router), "route", "fleet.route")
    tracer.wrap(WorkerHandle, "send", "fleet.ipc_send", count=message)
    tracer.wrap(WorkerHandle, "receive", "fleet.ipc_wait", count=message)
    tracer.wrap(WorkerFleetCoordinator, "reorganize", "fleet.reorganize")


def layer_metrics(
    self_time: Dict[str, float],
    inclusive: Dict[str, float],
    counts: Dict[str, int],
    queries: int,
    trials: int,
) -> Dict[str, float]:
    """Per-layer metrics: seconds per query and counts per trial."""
    out: Dict[str, float] = {}
    for metric, (span, mode) in TIMED_LAYERS.items():
        table = self_time if mode == "self" else inclusive
        out[metric] = table.get(span, 0.0) / queries
    for metric, counter in COUNTED_LAYERS.items():
        out[metric] = counts.get(counter, 0) / trials
    return out
