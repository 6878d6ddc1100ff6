"""Fleet epochs stay aligned when a stream is fed in ragged ``run`` slices.

Both coordinators close a fleet epoch after every
``fleet_epoch_length``-th arrival since construction, however the
arrivals are split across ``run`` calls.  The worker fleet must cut its
chunks at those global boundaries (not relative to each call), or a
caller feeding slices shorter than an epoch would never reorganize.
"""

import json

import pytest

from tests.fleet.test_workers import (
    make_serial_fleet,
    make_worker_fleet,
    mixed_queries,
    outcome_key,
)


def run_in_slices(fleet, queries, step):
    outcomes = []
    for start in range(0, len(queries), step):
        outcomes.extend(fleet.run(queries[start:start + step]).outcomes)
    return outcomes


@pytest.mark.parametrize("step", [7, 13])
def test_ragged_slices_match_the_serial_fleet(step):
    queries = mixed_queries(60)
    serial = make_serial_fleet(n=2, policy="round-robin")
    serial_outcomes = run_in_slices(serial, queries, step)
    with make_worker_fleet(workers=2, policy="round-robin") as fleet:
        worker_outcomes = run_in_slices(fleet, queries, step)

        # 60 arrivals at epoch length 10: six boundaries, wherever the
        # slices happen to end.
        assert len(serial.reorganizations) == 6
        assert fleet.reorganizations == serial.reorganizations
        closing = [o.index for o in worker_outcomes if o.reorganization]
        assert closing == [9, 19, 29, 39, 49, 59]

        # Outcome indices count across calls, and every per-replica
        # decision matches the serial fleet bit for bit.
        assert [outcome_key(o) for o in worker_outcomes] == [
            outcome_key(o) for o in serial_outcomes
        ]
        assert [h.stats for h in fleet.replicas] == [
            r.stats for r in serial.replicas
        ]
        assert fleet.replica_traces() == [
            json.loads(r.trace().to_json()) for r in serial.replicas
        ]


def test_ragged_slices_match_one_call():
    queries = mixed_queries(60)
    with make_worker_fleet(workers=2) as whole, make_worker_fleet(
        workers=2
    ) as sliced:
        one_call = whole.run(queries).outcomes
        in_slices = run_in_slices(sliced, queries, 7)
        assert [outcome_key(o) for o in in_slices] == [
            outcome_key(o) for o in one_call
        ]
        assert sliced.reorganizations == whole.reorganizations
