"""Smoke test of the benchmark: every workload runs its minimum rounds,
untraced and traced, with all its checks and its expected failures. No
timing is gated."""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Known faults kept as failing operations, per round (see README.md).
EXPECTED_FAILURES = {"deploy": 0, "kernels": 1, "noise_sweep": 1}


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    rounds, jobs = map(int, re.search(r"(\d+) rounds of (\d+) jobs",
                                      proc.stdout).groups())
    modeled = next(ln for ln in lines if ln.startswith("modeled: "))
    return json.loads(lines[-1]), rounds, jobs, modeled


@pytest.mark.parametrize("workload", sorted(EXPECTED_FAILURES))
def test_workload_runs_checked(workload):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert workload in [w["name"] for w in spec["workloads"]]
    seen = []
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result, rounds, jobs, modeled = _run(workload, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] == rounds * jobs
        assert result["failed"] == rounds * EXPECTED_FAILURES[workload]
        want = {m["name"]: m["unit"] for m in spec[group]}
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        assert got == want
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())
        seen.append(modeled)
    # tracing must not change what the simulated accelerator does
    assert seen[0] == seen[1]
