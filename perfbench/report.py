"""Print the end-to-end metrics and ``failed_share`` by name and unit, per workload.

    python3 perfbench/report.py --seed 1 --seconds 25

Each workload runs as its own ``run.py --trace 0`` process; per-layer
numbers come from ``run.py --trace 1``. ``failed_share`` is the
inputs that failed (raised, or whose digest differs from the reference)
divided by the inputs attempted, weighted by trials.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in BENCH["workloads"])


def run_workload(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    args = ap.parse_args(argv)
    results = {}
    for workload in WORKLOADS:
        doc = run_workload(workload, args.seed, args.seconds)
        doc["metrics"]["failed_share"] = {
            "value": doc["failed"] / doc["attempted"], "unit": "ratio"}
        results[workload] = doc
        print(f"== {workload}  correct={doc['correct']}  attempted={doc['attempted']}"
              f"  failed={doc['failed']}")
        for name, m in doc["metrics"].items():
            print(f"  {name:38s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results, sort_keys=True))
    return 0 if all(d["correct"] for d in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
