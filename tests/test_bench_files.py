"""The BENCH_<n>.json files at the repository root: a trajectory, not a gate.

Each holds the final JSON line of `perfbench/run.py` for every workload of
BENCHMARK.json, with `--trace 0` and `--trace 1`, on each side it records
(the parent commit and the change).  The figures are never bounded here.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_bench_file_parses_and_names_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    files = sorted(ROOT.glob("BENCH_*.json"))
    assert files
    for path in files:
        bench = json.loads(path.read_text())
        assert {"commit", "python", "nproc", "runs"} <= set(bench), path.name
        for side, runs in bench["runs"].items():
            assert set(runs) == names, (path.name, side)
            for name, run in runs.items():
                for trace in ("trace0", "trace1"):
                    line = run[trace]
                    assert set(line) == {"correct", "attempted", "failed", "metrics"}, (path.name, side, name)
