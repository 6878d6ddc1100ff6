"""Closed-loop passes: one pass is set-up plus one sweep over a stream.

Each pass builds its inputs and a fresh tuner (or fleet), times the
sweep, and checks the program's outputs afterwards.  Tuners are driven
through ``process_query`` / ``process_insert``; the worker fleet
through ``FleetCoordinator(workers=2).run``.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Dict, List, Optional

from repro.bandit.config import BanditConfig
from repro.bandit.tuner import BanditTuner
from repro.core.colt import ColtTuner
from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.obs.quantiles import merge_histogram_samples
from repro.workload import build_catalog

from perfbench import tracing
from perfbench.workloads import GENERATORS

#: Worker processes (and replicas) in the ``fleet-workers`` workload.
FLEET_WORKERS = 2
#: Queries between fleet reorganizations (the ``replay`` CLI default).
FLEET_EPOCH = 200
#: Slack for float rounding in the storage-budget check.
BUDGET_SLACK = 1e-9


@dataclasses.dataclass
class Pass:
    """What one pass measured and which output checks it failed."""

    setup_s: float
    queries: int
    failed: int
    total_cost: float
    whatif_calls: int
    #: Per piece of work the client waits for: a query and the insert
    #: batch that follows it, or a fleet epoch (one ``run`` call).
    times: Optional[List[float]] = None
    #: Per piece: the ``process_query`` call's latency, or the workers'
    #: own histogram of the epoch's per-query latencies.
    details: Optional[List[object]] = None
    #: Fleet only: seconds the workers spent processing queries.
    busy_s: float = 0.0
    problems: List[str] = dataclasses.field(default_factory=list)
    layers: Optional[Dict[str, Dict]] = None


def _epoch_cap_problem(epoch_calls: List[int], cap: int, where: str) -> List[str]:
    worst = max(epoch_calls, default=0)
    if worst > cap:
        return [f"{where}: an epoch spent {worst} what-if calls, cap {cap}"]
    return []


def _budget_problem(sizes: List[float], budget: float, where: str) -> List[str]:
    used = sum(sizes)
    if used > budget * (1.0 + BUDGET_SLACK):
        return [f"{where}: materialized set uses {used:.1f} pages, budget {budget:.1f}"]
    return []


def tuner_pass(name: str, seed: int, length: int) -> Pass:
    """One pass of a COLT or bandit workload through ``process_query``."""
    perf = time.perf_counter
    started = perf()
    stream = GENERATORS[name](seed, length)
    catalog = build_catalog()
    if name == "htap-bandit":
        config = BanditConfig()
        tuner = BanditTuner(catalog, config)
        cap = config.observe_per_epoch
    else:
        config = ColtConfig()
        tuner = ColtTuner(catalog, config)
        cap = config.max_whatif_per_epoch
    setup = perf() - started

    latencies: List[float] = []
    times: List[float] = []
    epoch_calls: List[int] = []
    in_epoch = 0
    failed = 0
    total_cost = 0.0
    whatif_calls = 0
    process_query, process_insert = tuner.process_query, tuner.process_insert
    for kind, a, b in stream.events:
        t0 = perf()
        if kind == "w":
            total_cost += process_insert(a, count=b).total_cost
            times[-1] += perf() - t0
            continue
        try:
            outcome = process_query(a)
        except Exception:  # a failed query is counted, as run(on_error="skip") does
            outcome = None
        elapsed = perf() - t0
        latencies.append(elapsed)
        times.append(elapsed)
        if outcome is None:
            failed += 1
            continue
        total_cost += outcome.total_cost
        whatif_calls += outcome.whatif_calls
        in_epoch += outcome.whatif_calls
        if outcome.epoch_ended:
            epoch_calls.append(in_epoch)
            in_epoch = 0

    problems = _epoch_cap_problem(epoch_calls, cap, name)
    problems += _budget_problem(
        [catalog.index_size_pages(ix) for ix in tuner.materialized_set],
        config.storage_budget_pages,
        name,
    )
    return Pass(setup, len(latencies), failed, total_cost, whatif_calls,
                times=times, details=latencies, problems=problems)


def _traced_worker_main(original, out_dir: pathlib.Path, tag: str, keep_spans: bool):
    """A worker entry point that traces its tuner layers and, when the
    worker stops, writes its per-layer totals (and spans) to ``out_dir``."""

    def worker_main(conn, replica_id, *rest):
        tracer = tracing.Tracer()
        tracing.install_tuner_layers(tracer)
        try:
            original(conn, replica_id, *rest)
        finally:
            prefix = out_dir / f"worker-{tag}-{replica_id}"
            self_time, inclusive, counts = tracer.drain(
                prefix.with_suffix(".jsonl") if keep_spans else None)
            prefix.with_suffix(".json").write_text(json.dumps(
                {"self": self_time, "inclusive": inclusive, "counts": counts}))

    return worker_main


def fleet_pass(name: str, seed: int, length: int,
               tracer: Optional[tracing.Tracer] = None,
               out_dir: Optional[pathlib.Path] = None, tag: str = "",
               keep_spans: bool = False) -> Pass:
    """One pass of the two-worker fleet, one ``FleetCoordinator.run`` call
    per fleet epoch.

    With a tracer, the parent's routing, pipe and reorganization calls
    are traced here and each worker traces its own tuner layers.
    """
    from repro.fleet import workers

    perf = time.perf_counter
    original_main = workers._worker_main
    if tracer is not None:
        workers._worker_main = _traced_worker_main(
            original_main, out_dir, tag, keep_spans)
    try:
        started = perf()
        stream = GENERATORS[name](seed, length)
        config = ColtConfig()
        fleet = FleetCoordinator(build_catalog, config=config, policy="client",
                                 fleet_epoch_length=FLEET_EPOCH, workers=FLEET_WORKERS)
    finally:
        workers._worker_main = original_main
    try:
        # Returns once every worker has built its replica and answers.
        fleet.latency_summary()
        setup = perf() - started
        if tracer is not None:
            tracing.install_fleet_layers(tracer, fleet)
        # One run() call per fleet epoch: the same routing, chunks and
        # reorganizations as one call over the stream, timed per epoch.
        # Untraced, the workers' histograms are read after every epoch
        # (outside the timing); traced, that traffic would count as the
        # program's, so they are read once at the end.
        outcomes, times = [], []
        histograms = [_worker_histogram(fleet)] if tracer is None else []
        queries, client_ids = stream.queries, stream.client_ids
        try:
            for start in range(0, len(queries), FLEET_EPOCH):
                t0 = perf()
                run = fleet.run(queries[start:start + FLEET_EPOCH],
                                client_ids=client_ids[start:start + FLEET_EPOCH],
                                on_error="skip")
                times.append(perf() - t0)
                outcomes.extend(run.outcomes)
                if tracer is None:
                    histograms.append(_worker_histogram(fleet))
        finally:
            if tracer is not None:
                tracer.restore()
        busy = _worker_histogram(fleet)["sum"]
        materialized = [handle.materialized_names for handle in fleet.replicas]
    finally:
        fleet.close()

    problems: List[str] = []
    per_replica: Dict[int, List[int]] = {}
    for record in outcomes:
        per_replica.setdefault(record.replica_id, []).append(record.outcome.whatif_calls)
    for replica_id, calls in sorted(per_replica.items()):
        epochs = [sum(calls[i:i + config.epoch_length])
                  for i in range(0, len(calls), config.epoch_length)]
        problems += _epoch_cap_problem(
            epochs, config.max_whatif_per_epoch, f"{name} replica {replica_id}")
    catalog = build_catalog()
    by_name = {}
    for ref in catalog.indexable_columns():
        index = catalog.index_for(ref.table, ref.column)
        by_name[index.name] = index
    for replica_id, names in enumerate(materialized):
        unknown = [n for n in names if n not in by_name]
        if unknown:
            problems.append(f"{name} replica {replica_id}: unknown indexes {unknown}")
            continue
        problems += _budget_problem(
            [catalog.index_size_pages(by_name[n]) for n in names],
            config.storage_budget_pages,
            f"{name} replica {replica_id}",
        )
    return Pass(
        setup, len(outcomes), sum(r.outcome.failed for r in outcomes),
        sum(r.total_cost for r in outcomes), sum(r.outcome.whatif_calls for r in outcomes),
        times=times, details=[_minus(b, a) for a, b in zip(histograms, histograms[1:])] or None,
        busy_s=busy, problems=problems,
    )


def _worker_histogram(fleet) -> Dict:
    """The workers' own cumulative per-query latency histogram (the data
    ``latency_summary()`` reads), merged over the workers."""
    return merge_histogram_samples(
        sample for handle in fleet.replicas for sample in handle.request(("latency",)) or ())


def _minus(later: Dict, earlier: Dict) -> Dict:
    """The observations a cumulative histogram gained between two reads."""
    return {
        "labels": {},
        "count": later["count"] - earlier["count"],
        "sum": later["sum"] - earlier["sum"],
        "buckets": {k: v - earlier["buckets"].get(k, 0) for k, v in later["buckets"].items()},
    }


def _merge_layers(parts) -> Dict[str, Dict]:
    merged: Dict[str, Dict] = {"self": {}, "inclusive": {}, "counts": {}}
    for part in parts:
        for key, table in merged.items():
            for name, value in part[key].items():
                table[name] = table.get(name, 0) + value
    return merged


def traced_pass(name: str, seed: int, length: int, out_dir: pathlib.Path, tag: str,
                keep_spans: bool = True) -> Pass:
    """A pass with every layer wrapped; the per-layer totals (parent plus
    workers) land in ``Pass.layers`` and, with ``keep_spans``, the spans
    are written under ``out_dir``."""
    tracer = tracing.Tracer()
    parts = []
    if name == "fleet-workers":
        result = fleet_pass(name, seed, length, tracer=tracer, out_dir=out_dir, tag=tag,
                            keep_spans=keep_spans)
        parts = [json.loads(p.read_text())
                 for p in sorted(out_dir.glob(f"worker-{tag}-*.json"))]
        if len(parts) != FLEET_WORKERS:
            result.problems.append(f"{name}: {len(parts)} of {FLEET_WORKERS} workers "
                                   "wrote their spans")
    else:
        tracing.install_tuner_layers(tracer)
        try:
            result = tuner_pass(name, seed, length)
        finally:
            tracer.restore()
    self_time, inclusive, counts = tracer.drain(
        out_dir / f"parent-{tag}.jsonl" if keep_spans else None)
    parts.append({"self": self_time, "inclusive": inclusive, "counts": counts})
    result.layers = _merge_layers(parts)
    return result
