"""Golden pin for the C³-UCB bandit tuner's decision stream.

A seeded ~300-query two-client shifting stream, with statistics-only
insert batches after about one query in ten, runs through
:class:`~repro.bandit.tuner.BanditTuner`.  Each decision round is
compared against ``tests/data/golden_bandit_trace.json``: the
materialized set after the round, the round's adds and drops, the hot
set, the improvement ratio, the round's total cost (queries plus insert
batches) and its reward-probe count.  Any change to reward pricing, the
model, arm selection, the safety fallback or the scheduler protocol
that shifts a single decision fails with the first diverging round.

When a change *intentionally* alters bandit behaviour, regenerate with:

    GOLDEN_REGEN=1 PYTHONPATH=src python -m pytest \
        tests/bandit/test_golden_bandit.py -q
"""

import json
import os
import pathlib
import random

import pytest

from repro.bandit import BanditConfig, BanditTuner
from repro.workload import build_catalog, multi_client_workload, shifting_workload
from repro.workload.experiments import phase_distributions

GOLDEN_PATH = (
    pathlib.Path(__file__).parent.parent / "data" / "golden_bandit_trace.json"
)

SEED = 3
PHASE_LENGTH = 70
TRANSITION = 10
WRITE_PROBABILITY = 0.1
WRITE_ROWS = 2000


def _stream(catalog):
    """(kind, payload, rows) events: ``("q", query, None)`` or
    ``("w", table, rows)``."""
    phases = phase_distributions()
    clients = [
        shifting_workload(
            [phases[i], phases[i + 2]],
            catalog,
            phase_length=PHASE_LENGTH,
            transition=TRANSITION,
            seed=SEED + i,
        )
        for i in range(2)
    ]
    queries = multi_client_workload(clients, seed=SEED + 7).queries
    rng = random.Random(SEED)
    events = []
    for query in queries:
        events.append(("q", query, None))
        if rng.random() < WRITE_PROBABILITY:
            events.append(("w", rng.choice(sorted(query.tables)), WRITE_ROWS))
    return events


def _names(indexes):
    return [ix.name for ix in indexes]


def _traced_run():
    catalog = build_catalog()
    tuner = BanditTuner(catalog, BanditConfig(seed=SEED))
    rounds = []
    cost = 0.0
    probes = 0
    queries = 0
    for kind, payload, rows in _stream(catalog):
        if kind == "w":
            cost += tuner.process_insert(payload, count=rows).total_cost
            continue
        outcome = tuner.process_query(payload)
        queries += 1
        cost += outcome.total_cost
        probes += outcome.whatif_calls
        if outcome.epoch_ended:
            reorg = outcome.reorganization
            rounds.append(
                {
                    "epoch": len(rounds),
                    "materialized": _names(tuner.materialized_set),
                    "added": _names(reorg.materialize),
                    "dropped": _names(reorg.drop),
                    "hot": _names(tuner.hot_set),
                    "improvement_ratio": reorg.improvement_ratio,
                    "total_cost": cost,
                    "probes": probes,
                }
            )
            cost = 0.0
            probes = 0
    return {"queries": queries, "epochs": rounds}


@pytest.fixture(scope="module")
def trace():
    return _traced_run()


def test_golden_bandit_trace_exists_or_regenerates(trace):
    if os.environ.get("GOLDEN_REGEN") == "1":
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(trace, indent=2) + "\n")
    assert GOLDEN_PATH.exists(), (
        "golden bandit trace missing -- regenerate with GOLDEN_REGEN=1 "
        "(see module docstring)"
    )


def test_pinned_stream_exercises_the_bandit(trace):
    # Guards the pin itself: a stream that never builds, drops or probes
    # would pin nothing.
    epochs = trace["epochs"]
    assert 250 <= trace["queries"] <= 350
    assert any(e["added"] for e in epochs)
    assert any(e["dropped"] for e in epochs)
    assert sum(e["probes"] for e in epochs) > 0


def test_bandit_trace_matches_golden(trace):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert trace["queries"] == golden["queries"]
    assert len(trace["epochs"]) == len(golden["epochs"])
    for current, pinned in zip(trace["epochs"], golden["epochs"]):
        label = f"epoch {pinned['epoch']}"
        for field in ("materialized", "added", "dropped", "hot", "probes"):
            assert current[field] == pinned[field], f"{label}: {field}"
        # Floats through a JSON round trip: repr round-trips exactly, so
        # the tight tolerance only forgives summation-order noise.
        for field in ("improvement_ratio", "total_cost"):
            assert current[field] == pytest.approx(pinned[field], rel=1e-12), (
                f"{label}: {field}"
            )
