"""Do the per-layer operation counts depend on PYTHONHASHSEED?

    python3 perfbench/compare_hash_seeds.py --workload NAME --seed N [--hash-seeds 0,1]

Runs the traced benchmark once per hash seed and prints every count metric
(unit `count`) whose value differs.  It reports; it does not gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def traced_counts(workload: str, seed: int, hash_seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1", "--hash-seed", str(hash_seed)],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items() if m["unit"] == "count"}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--hash-seeds", default="0,1")
    args = p.parse_args()
    seeds = [int(x) for x in args.hash_seeds.split(",")]
    runs = [traced_counts(args.workload, args.seed, h) for h in seeds]
    differing = [name for name in runs[0] if len({run[name] for run in runs}) > 1]
    print(f"{args.workload} seed {args.seed}: {len(differing)} of {len(runs[0])} counts differ "
          f"across PYTHONHASHSEED {seeds}")
    for name in differing:
        print(f"  {name}: " + "  ".join(str(run[name]) for run in runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
