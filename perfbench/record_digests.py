"""Record the reference digests that every benchmark pass is checked against.

    python3 perfbench/record_digests.py

Run it on a commit whose results are trusted (the digests in
digests.json were recorded on the commit that added the benchmark). Every
input runs once, serially, so the fan-out workload's fanned results are
checked against serial ones.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 1001
FULL_SEEDS = list(range(1, 21)) + [HELD_OUT_SEED]
TINY_SEEDS = [DEFAULT_SEED, HELD_OUT_SEED]


def record(seeds, tiny) -> dict:
    table = {}
    for seed in seeds:
        table[str(seed)] = {
            name: {inp.name: workloads.digest(inp.run())
                   for inp in workloads.checked_inputs(name, seed, tiny)}
            for name in workloads.BUILDERS
        }
        print(f"{'tiny' if tiny else 'full'} seed {seed} recorded", file=sys.stderr)
    return table


def main():
    with workloads.threads(1):
        table = {"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                 "tiny": record(TINY_SEEDS, True), "full": record(FULL_SEEDS, False)}
    (HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
