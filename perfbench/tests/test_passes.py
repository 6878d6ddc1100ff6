from repro.core.config import ColtConfig
from repro.fleet import FleetCoordinator
from repro.workload import build_catalog

from perfbench import passes, workloads


def test_fleet_workers_total_cost_matches_the_in_process_fleet():
    stream = workloads.fleet_workers(3, 450)
    in_process = FleetCoordinator(
        build_catalog, n_replicas=passes.FLEET_WORKERS, config=ColtConfig(),
        policy="client", fleet_epoch_length=passes.FLEET_EPOCH,
    ).run(stream.queries, client_ids=stream.client_ids)
    measured = passes.fleet_pass("fleet-workers", 3, 450)
    assert measured.problems == []
    assert measured.queries == 450
    assert measured.total_cost == in_process.total_cost
    assert measured.whatif_calls == sum(o.outcome.whatif_calls for o in in_process.outcomes)


def test_traced_pass_makes_the_untraced_decisions(tmp_path):
    for name in ("shift-fast", "htap-bandit"):
        plain = passes.tuner_pass(name, 2, 120)
        traced = passes.traced_pass(name, 2, 120, tmp_path, name)
        assert (traced.total_cost, traced.whatif_calls) == (plain.total_cost, plain.whatif_calls)
        assert traced.layers["counts"]["tuner.query"] == 120
        assert (tmp_path / f"parent-{name}.jsonl").exists()
