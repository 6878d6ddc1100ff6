import json
import shutil
import subprocess
import sys

import pytest

from perfbench import workloads
from perfbench.tests.conftest import ROOT


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(name, trace):
    out = _run(ROOT, "--workload", name, "--seed", "4", "--seconds", "0.1",
               "--trace", trace, "--length", "30")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if trace == "1" else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run(tmp_path, "--workload", "shift-fast", "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_fastest_keeps_the_quickest_repeat_of_each_piece():
    from perfbench import passes, run

    def measured(times, details):
        return passes.Pass(0.0, len(times), 0, 0.0, 0, times=times, details=details)

    fastest = run.Fastest()
    fastest.add([measured([1.0, 3.0, 5.0], ["a1", "b1", "c1"])])
    fastest.add([measured([2.0, 2.0, 1.0], ["a2", "b2", "c2"])])
    assert fastest.qps == 3 / (1.0 + 2.0 + 1.0)
    assert fastest.details == {0: ["a1", "b2", "c2"]}

    traced = run.Fastest()
    traced.add([measured([1.0, 3.0], None)])
    traced.add([measured([2.0, 2.0], None)])
    assert traced.qps == 2 / 3.0
