"""The benchmark's tiny workloads reproduce their recorded digests.

perfbench/run.py checks every result of a pass against the digest
recorded for its input in perfbench/digests.json.  A run of each workload
at its tiny size, untraced and with no timed passes, must read correct
with no failed trial and find digests recorded for its seed.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_matches_its_digests(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--tiny", "--trace", "0",
         "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "no recorded digests" not in proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True, proc.stderr
    assert doc["failed"] == 0 and doc["attempted"] >= 1
