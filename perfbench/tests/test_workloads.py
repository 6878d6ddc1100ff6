import os
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.tests.conftest import ROOT

SCRIPT = (
    "import sys; sys.path[0:0] = [sys.argv[1] + '/src', sys.argv[1]]\n"
    "from perfbench import workloads\n"
    "print(workloads.GENERATORS[sys.argv[2]](int(sys.argv[3]), 60).signature_hash())\n"
)


def _hash_in_fresh_process(name, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), name, str(seed)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_same_seed_same_inputs_across_processes(name):
    first = _hash_in_fresh_process(name, 5, 1)
    assert first == _hash_in_fresh_process(name, 5, 2)
    assert first == workloads.GENERATORS[name](5, 60).signature_hash()
    assert first != _hash_in_fresh_process(name, 6, 1)


def test_stream_properties():
    stable = workloads.stable_repeat(1, 1000).properties()
    assert stable["queries"] == 1000
    assert stable["repeat_share"] >= 0.5
    assert workloads.shift_fast(1, 300).properties()["repeat_share"] < 0.05
    htap = workloads.htap_bandit(1, 400)
    assert 0.03 < htap.properties()["write_share"] < 0.2
    assert htap.events[-1][0] == "q"
    fleet = workloads.fleet_workers(1, 100)
    assert set(fleet.client_ids) == {0, 1}
