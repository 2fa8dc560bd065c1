"""The lasagna benchmark: one workload per call, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository; nothing needs to be
built.  Each call starts fresh interpreters (one process, one thread each)
with PYTHONHASHSEED pinned:

* seven set-up probes, which import lasagna and build the inputs (setup_s
  is their median together with the measured process, each scaled to the
  nominal machine speed by the probe in workload.reference_s);
* the measured process (workload.py), which times closed-loop passes over
  the task list and then checks every output against an independent
  reference.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones (see
tracer.py).  Both print one line per metric with its unit, then one JSON
object as the last line.  The exit code is 0 only when every output was
correct.  --scale tiny runs each workload at a size meant for the smoke test.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7
IMPORT_PROBES = 5
DEADLINE_S = 170.0

sys.path.insert(0, HERE)
import tracer  # noqa: E402
from workload import REFERENCE_NOMINAL_S, WORKLOADS, reference_s  # noqa: E402

END_TO_END_UNITS = {
    "wall_s": "s",
    "task_p50_s": "s",
    "task_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def workload_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = str(hash_seed)
    # byte code is cached in the checkout, as an installed package has it
    env["PYTHONPYCACHEPREFIX"] = os.path.join(OUT, "pycache")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("LASAGNA_CACHE_DIR", None)
    return env


def _run(argv: list[str], env: dict, deadline: float) -> str:
    """Run a fresh interpreter to completion; on timeout kill its whole process group."""
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[:3])} exited with {proc.returncode}")
    return out.strip()


def run_child(argv: list[str], env: dict, deadline: float) -> tuple[float, dict]:
    """Run a fresh interpreter; returns (monotonic start, its JSON result)."""
    start = time.monotonic()
    return start, json.loads(_run(argv, env, deadline).splitlines()[-1])


def spec_metrics(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--hash-seed", type=int, default=0, help="PYTHONHASHSEED of every interpreter")
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = p.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "lasagna", "cli.py")):
        sys.stderr.write(f"error: no lasagna sources under {os.path.join(ROOT, 'src')}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = workload_env(args.hash_seed)
    child = [os.path.join(HERE, "workload.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--scale", args.scale, "--out", OUT]
    try:
        # compile the byte code once, untimed
        _run(["-c", "import lasagna.cli, lasagna.skein, lasagna.cobmaps"], env, deadline)
        setups, plain = [], []
        for i in range(SETUP_PROBES + 1):
            mode = "setup" if i < SETUP_PROBES else "trace" if args.trace else "run"
            # scaled to the nominal machine speed like the task times
            ref = reference_s()
            start, res = run_child(child + ["--mode", mode], env, deadline)
            plain.append(res["setup_done"] - start)
            setups.append(plain[-1] * REFERENCE_NOMINAL_S / ref)
        metrics = dict(res["metrics"])
        if args.trace:
            probe = ("import time; t = time.perf_counter(); import lasagna.cli; "
                     "print(time.perf_counter() - t)")
            imports = [float(_run(["-c", probe], env, deadline)) for _ in range(IMPORT_PROBES)]
            metrics["cli.import_s"] = statistics.median(imports)
        else:
            metrics["setup_s"] = statistics.median(setups)
    except (RuntimeError, LookupError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1

    units = tracer.metric_units() if args.trace else END_TO_END_UNITS
    wanted = spec_metrics("per_layer" if args.trace else "end_to_end")
    if wanted != {name: units[name] for name in metrics}:
        sys.stderr.write("error: printed metrics differ from BENCHMARK.json\n")
        return 1

    attempted, errors = res["attempted"], res["errors"]
    print(f"workload {args.workload}  seed {args.seed}  PYTHONHASHSEED {args.hash_seed}  "
          f"trace {args.trace}  scale {args.scale}  python {sys.version.split()[0]}")
    if not args.trace:
        passes = ", ".join(f"{w:.3f}" for w in res["passes"])
        print(f"  {len(res['passes'])} pass(es) of {res['tasks_per_pass']} tasks ({passes} s), "
              f"{res['runs']} task runs; percentiles over the {res['tasks_per_pass']} per-task "
              f"medians; setup_s is the scaled median of {len(setups)} fresh interpreters "
              f"(plain median {statistics.median(plain):.6g} s)")
        print(f"  measured task times summed {res['raw_wall_s']:.6g} s; reference probe "
              f"{res['speed']:.3f}x its nominal time, so times below are scaled by {1 / res['speed']:.3f}")
        if res["priming_s"] is not None:
            print(f"  priming pass (uncached) {res['priming_s']:.6g} s")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>14.6g} {units[name]}")
    print(f"  {'fail_frac':48s} {len(errors) / attempted:>14.6g} ratio  ({len(errors)} of {attempted} tasks)")
    for err in errors[:20]:
        print(f"  FAILED {err}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": min(len(errors), attempted),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
