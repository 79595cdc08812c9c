"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench

Every workload runs once untraced and once traced at its tiny size. Each
run must emit every metric BENCHMARK.json names, with its unit, and every
input's digest must match the one recorded for the tiny size.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
ARGS = ["--seed", "1", "--seconds", "0"]


def _run(cwd, *extra):
    cmd = [sys.executable if a == "python3" else a for a in BENCH["command"]]
    return subprocess.run(cmd + list(extra), cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_emits_every_metric_and_matches_digests(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--trace", str(trace), "--tiny", *ARGS)
    assert proc.returncode == 0, proc.stderr
    assert "no recorded digests" not in proc.stderr
    assert "FAILED" not in proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True
    assert doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in doc["metrics"].items()} == wanted
    for name, m in doc["metrics"].items():
        assert isinstance(m["value"], (int, float)), name


def test_traced_run_counts_no_certificate_failures():
    proc = _run(ROOT, "--workload", "coupling", "--trace", "1", "--tiny", *ARGS)
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["wierman.couple_calls"]["value"] > 0
    assert metrics["wierman.cert_failures"]["value"] == 0


def test_without_program_source_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "lattice_mc", "--trace", "0", *ARGS)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
