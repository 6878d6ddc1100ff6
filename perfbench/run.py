"""Closed-loop benchmark of the COLT reproduction, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload shift-fast --seed 1 --seconds 30 --trace 0

A run repeats trials until ``--seconds`` are used.  A trial is a fixed
set of sub-streams, each generated from its own seed (derived from
``--seed``) and sent by one closed-loop client to a fresh tuner or
fleet; summing over several sub-streams keeps the seed-to-seed spread
of the totals small.  Timings keep the fastest repeat of each query (of
each pass, for the fleet) over the run's trials, and single-process
trials take the CPUs in turn (see ``Fastest`` and ``_measure``): other
tenants of a shared host slow a core down for seconds at a time, and
the least-disturbed repeat is the steadiest measure of the program's
own speed.

``--trace 0`` runs at least two trials and reports the end-to-end
metrics.  ``--trace 1`` spends half the time untraced and half traced,
reports the per-layer metrics and writes the first traced trial's spans
under ``.perfbench_out/``.  Every run checks the program's outputs; a
failed check prints ``"correct": false`` with no numbers and exits 1.
The last line of standard output is the JSON result.

The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, List, Tuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per workload: (sub-streams per trial, queries per sub-stream).
SHAPES = {
    "stable-repeat": (6, 3000),
    "shift-fast": (4, 3000),
    "htap-bandit": (6, 2000),
    "fleet-workers": (10, 2000),
}
END_TO_END_UNITS = {
    "qps": "1/s",
    "latency_p50_us": "us",
    "total_cost": "cost",
    "whatif_calls": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Trials in an untraced run; the second checks that decisions repeat.
MIN_TRIALS = 2


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--length", type=int, default=None,
                        help="queries per sub-stream (default: the workload's own)")
    return parser.parse_args(argv)


def _import_program():
    """Import the program from this checkout's ``src/``; raise ImportError
    when it is not there."""
    here = pathlib.Path(__file__).resolve().parent
    sys.path[:] = [p for p in sys.path if pathlib.Path(p or ".").resolve() != here]
    sys.path[0:0] = [str(SRC), str(ROOT)]
    import repro

    if SRC not in pathlib.Path(repro.__file__).resolve().parents:
        raise ImportError(f"repro was imported from {repro.__file__}, not {SRC}")


def sub_seeds(seed: int, count: int):
    """Seeds of a trial's sub-streams; distinct seeds never share one."""
    return [seed * 100 + j for j in range(count)]


def _percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _measure(run_trial, seconds: float, minimum: int, rotate_cpus: bool):
    """Run trials until ``seconds`` are spent or the next would overrun.

    With ``rotate_cpus`` each trial is pinned to the next CPU in turn, so
    that a core kept busy by another tenant slows only some repeats.
    """
    cpus = sorted(os.sched_getaffinity(0)) if rotate_cpus else []
    trials = []
    deadline = time.perf_counter() + seconds
    try:
        while True:
            if cpus:
                os.sched_setaffinity(0, {cpus[len(trials) % len(cpus)]})
            started = time.perf_counter()
            trials.append(run_trial(len(trials)))
            last = time.perf_counter() - started
            if len(trials) >= minimum and time.perf_counter() + last > deadline:
                return trials
    finally:
        if cpus:
            os.sched_setaffinity(0, cpus)


def _decisions(trial):
    return [(p.total_cost, p.whatif_calls) for p in trial]


class Fastest:
    """The fastest repeat of each piece of work over a run's trials.

    A piece is a query (with the insert batch that follows it) for a
    tuner, and a fleet epoch for the fleet.  It is the same work in every
    trial (same inputs, same decisions), so its fastest repeat is the
    time the program needs when the host leaves it alone.  Slower
    repeats are dropped as they arrive, so memory does not grow with the
    number of trials.
    """

    def __init__(self) -> None:
        self.queries: Dict[int, int] = {}
        #: Per sub-stream and piece: the fastest time, and the latency
        #: detail (``Pass.details``) of that repeat.
        self.times: Dict[int, List[float]] = {}
        self.details: Dict[int, List[object]] = {}

    def add(self, trial) -> None:
        for j, p in enumerate(trial):
            self.queries[j] = p.queries
            if j not in self.times:
                self.times[j], self.details[j] = p.times, p.details
            else:
                faster = [new < old for new, old in zip(p.times, self.times[j])]
                self.times[j] = [min(new, old) for new, old in zip(p.times, self.times[j])]
                if p.details is not None:
                    self.details[j] = [new if f else old for f, new, old
                                       in zip(faster, p.details, self.details[j])]
            p.times = p.details = None

    @property
    def qps(self) -> float:
        return sum(self.queries.values()) / sum(map(sum, self.times.values()))


def _peak_rss_mb(workers: int) -> float:
    """Peak resident memory of this process plus its workers, in MB.

    ``RUSAGE_CHILDREN`` reports only the largest finished child, so the
    workers' share is counted as ``workers`` times that peak.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if workers else 0
    return (own + workers * child) / 1024.0


def _end_to_end(trials, fastest: Fastest, workers: int):
    details = [d for pieces in fastest.details.values() for d in pieces]
    if not workers:
        meta = {"timing": "fastest repeat of each query over the trials, "
                          "the trials taking the CPUs in turn"}
        samples = sorted(details)
        p50, p99 = statistics.median(samples), _percentile(samples, 0.99)
        meta.update({
            "latency_source": "client-timed process_query calls",
            "latency_samples": len(samples),
            "latency_p99_us": p99 * 1e6,
            "latency_p99_samples_beyond": len(samples) - math.ceil(0.99 * len(samples)),
            "latency_p999_us": _percentile(samples, 0.999) * 1e6,
            "latency_p999_samples_beyond": len(samples) - math.ceil(0.999 * len(samples)),
        })
    else:
        from repro.obs.quantiles import merge_histogram_samples, summarize_sample

        meta = {"timing": "fastest repeat of each fleet epoch over the trials"}
        summary = summarize_sample(merge_histogram_samples(details), (0.5, 0.99))
        p50 = summary["p50"]
        meta.update({
            "latency_p99_us": summary["p99"] * 1e6,
            "latency_source": "the workers' own per-query histograms of those epochs, "
                              "percentiles interpolated within a bucket",
            "latency_samples": summary["count"],
            "latency_p99_samples_beyond": summary["count"] - math.ceil(0.99 * summary["count"]),
        })
    meta["peak_rss_source"] = (
        "this process + workers x largest worker (getrusage)" if workers
        else "this process (getrusage)")
    metrics = {
        "qps": fastest.qps,
        "latency_p50_us": p50 * 1e6,
        "total_cost": sum(p.total_cost for p in trials[0]),
        "whatif_calls": sum(p.whatif_calls for p in trials[0]),
        "setup_s": statistics.median(p.setup_s for t in trials for p in t),
        "peak_rss_mb": _peak_rss_mb(workers),
    }
    return metrics, meta


def _per_layer(traced, fastest_untraced: Fastest, fastest_traced: Fastest, tracing):
    totals = {"self": {}, "inclusive": {}, "counts": {}}
    for trial in traced:
        for p in trial:
            for key, table in totals.items():
                for name, value in p.layers[key].items():
                    table[name] = table.get(name, 0) + value
    queries = sum(p.queries for t in traced for p in t)
    metrics = tracing.layer_metrics(totals["self"], totals["inclusive"], totals["counts"],
                                    queries, len(traced))
    metrics["fleet.worker_busy_s"] = sum(p.busy_s for t in traced for p in t) / queries
    metrics["trace.overhead"] = fastest_traced.qps / fastest_untraced.qps
    return metrics


def _check(name, untraced, traced):
    """Output checks across trials; returns the failures found."""
    problems = [problem for t in untraced + traced for p in t for problem in p.problems]
    expected = _decisions(untraced[0])
    for label, trials in (("untraced", untraced), ("traced", traced)):
        for i, trial in enumerate(trials):
            if _decisions(trial) != expected:
                problems.append(
                    f"{name}: {label} trial {i} made other decisions (total_cost, "
                    f"whatif_calls per sub-stream) {_decisions(trial)} than {expected}")
    if name != "htap-bandit":
        # COLT charges one ledger what-if call per probed index.
        for i, trial in enumerate(traced):
            seen = sum(p.layers["counts"].get("optimizer.whatif_calls", 0) for p in trial)
            ledger = sum(p.whatif_calls for p in trial)
            if seen != ledger:
                problems.append(f"{name}: traced trial {i} saw {seen} what-if calls, "
                                f"the ledger says {ledger}")
    return problems


def main(argv=None) -> int:
    args = _parse(argv)
    import_started = time.perf_counter()
    try:
        _import_program()
        from perfbench import passes, tracing
        from perfbench.workloads import GENERATORS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_started

    name = args.workload
    count, length = SHAPES[name]
    length = args.length or length
    seeds = sub_seeds(args.seed, count)
    fleet = name == "fleet-workers"
    workers = passes.FLEET_WORKERS if fleet else 0
    run_pass = passes.fleet_pass if fleet else passes.tuner_pass
    # The fleet spreads its own work over the CPUs.
    rotate = not fleet and hasattr(os, "sched_setaffinity")

    fastest, fastest_traced = Fastest(), Fastest()

    def untraced_trial(_):
        trial = [run_pass(name, s, length) for s in seeds]
        fastest.add(trial)
        return trial

    def traced_trial(i):
        # Spans of the first traced trial are written out; later trials
        # only add to the per-layer totals.
        trial = [passes.traced_pass(name, s, length, out_dir, f"{i}-{s}", i == 0)
                 for s in seeds]
        fastest_traced.add(trial)
        return trial

    traced = []
    if not args.trace:
        untraced = _measure(untraced_trial, args.seconds, MIN_TRIALS, rotate)
    else:
        out_dir = ROOT / ".perfbench_out" / f"{name}-seed{args.seed}"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        untraced = _measure(untraced_trial, args.seconds / 2, 1, rotate)
        traced = _measure(traced_trial, args.seconds / 2, 1, rotate)

    trials = untraced + traced
    attempted = sum(p.queries for t in trials for p in t)
    failed = sum(p.failed for t in trials for p in t)
    problems = _check(name, untraced, traced)
    if problems:
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                          "metrics": {}}))
        return 1

    if args.trace:
        values = _per_layer(traced, fastest, fastest_traced, tracing)
        units = {k: "ratio" if k == "trace.overhead" else
                 "s/query" if k.endswith("_s") else "count" for k in values}
        meta = {"spans_dir": str(out_dir.relative_to(ROOT))}
    else:
        values, meta = _end_to_end(untraced, fastest, workers)
        units = END_TO_END_UNITS
    # Regenerated only now, so that peak memory above is the trials' own.
    streams = [GENERATORS[name](s, length) for s in seeds]
    props = [s.properties() for s in streams]
    queries = sum(p["queries"] for p in props)
    writes = sum(p["writes"] for p in props)
    meta.update({
        "workload": name,
        "seed": args.seed,
        "substreams": count,
        "substream_length": length,
        "trials_untraced": len(untraced),
        "trials_traced": len(traced),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "import_s": import_s,
        "repeat_share": sum(p["queries"] - p["distinct_signatures"] for p in props) / queries,
        "write_share": writes / (queries + writes),
        "distinct_signatures": sum(p["distinct_signatures"] for p in props),
        "signature_sha256": hashlib.sha256(
            "".join(s.signature_hash() for s in streams).encode()).hexdigest(),
        "failed_frac": failed / attempted,
    })
    for key, value in values.items():
        print(f"{name:>14} {key:<28} {value:>16.6g} {units[key]}")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
