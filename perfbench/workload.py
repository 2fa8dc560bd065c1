"""One benchmark workload, run in a fresh interpreter by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --mode {setup,run,trace} --scale {full,tiny} --out DIR

`setup` builds the inputs and prints the monotonic clock reading at which
set-up ended.  `run` then times passes over the task list, closed loop (the
next task starts when the previous one returns), starting no pass that
would end after --seconds, but always at least one.  `trace` times one
untraced and one traced pass.
Outputs are checked against independent references after the timed
region.  The last stdout line is one JSON object for run.py.

Every workload needs the repository's `src` directory on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Optional

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(os.path.dirname(HERE), "fixtures")


# Tasks call lasagna through module attributes (`rw.rw_plus`), never through
# names bound here, so that the traced run's wrappers see every call.
@dataclass
class Task:
    label: str
    run: Callable[[], object]
    # returns None when the output is right, else a one-line reason; runs
    # after the timed region
    check: Callable[[object], Optional[str]]


def _expect(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


# -- kh-corpus --------------------------------------------------------------

# The corpus core is drawn once from this constant: per-diagram scan cost
# varies by a factor of ten between words of the same size, and even between
# presentations of the same link, so a corpus drawn afresh from --seed makes
# the summed time vary ~15% from seed to seed.  --seed draws the small fresh
# diagrams and the task order.
CORE_SEED = 251005273
# The dense-cube oracle costs ~0.3 s at 7 crossings and ~0.6 s at 8, which
# for this corpus would be ~18 s per run, three times the timed pass.
DENSE_MAX_CROSSINGS = 6


def _random_braid(rng: random.Random, strands: int, crossings: int) -> list[int]:
    word = []
    for _ in range(crossings):
        p = rng.randint(1, strands - 1)
        word.append(p if rng.random() < 0.5 else -p)
    return word


class KhCorpus:
    """Many small scans: seeded braid closures plus T(4,4) through khr2_dims."""

    # kh_dims is scan_complex(d).homology_dims(): the scan, then its homology
    entry_points = ("khovanov.scan_complex", "complexes.BigradedComplex.homology_dims")

    def __init__(self, seed: int, scale: str, out_dir: str):
        from lasagna import catalog
        from lasagna import khovanov

        self.khovanov = khovanov
        core_n, fresh_n = (64, 36) if scale == "full" else (2, 3)
        core_rng = random.Random(CORE_SEED)
        rng = random.Random(seed)
        words = [(s, _random_braid(core_rng, s, core_rng.randint(6, 10)))
                 for s in (core_rng.choice((3, 4, 5)) for _ in range(core_n))]
        words += [(s, _random_braid(rng, s, rng.randint(4, 7)))
                  for s in (rng.choice((3, 4, 5)) for _ in range(fresh_n))]
        self.tasks_ = [self._braid_task(catalog.braid_closure(w, s), f"braid{s}:{w}")
                       for s, w in words]
        self.tasks_.append(self._t44_task(catalog.torus_link(4, 4)))
        rng.shuffle(self.tasks_)

    def _classical(self, d, table):
        # undo khr2_reindex: KhR2^{h,q} = Kh^{-h, q+w}
        from lasagna.gradings import DimTable

        w = d.writhe()
        return DimTable({(-g.h2, g.q2 + 2 * w): v for g, v in table.items()})

    def _braid_task(self, d, label):
        def check(table):
            classical = self._classical(d, table)
            if classical.euler() != self.khovanov.jones_unnormalized(d):
                return "Euler characteristic differs from the Kauffman bracket"
            if len(d.crossings) <= DENSE_MAX_CROSSINGS and classical != self.khovanov.kh_dims_bruteforce(d):
                return "table differs from the dense-cube oracle"
            return None

        return Task(label, lambda: self.khovanov.khr2_dims(d), check)

    def _t44_task(self, d):
        def check(table):
            t = self._classical(d, table)
            # acceptance criterion 3: Kh^{8,20} = Q, nothing below q=20 at h=8,
            # nothing above h=8
            ok = (t[(16, 40)] == 1 and all(t[(16, q2)] == 0 for q2 in range(0, 40, 2))
                  and all(g.h2 <= 16 for g in t))
            if not ok:
                return "T(4,4) misses acceptance criterion 3"
            return _expect(t.euler() == self.khovanov.jones_unnormalized(d),
                           "T(4,4) Euler characteristic differs from the bracket")

        return Task("T(4,4)", lambda: self.khovanov.khr2_dims(d), check)

    def tasks(self) -> list[Task]:
        return self.tasks_


# -- rw-twist ---------------------------------------------------------------


class RwTwist:
    """Crossing-heavy twisted diagrams with small scanned complexes."""

    entry_points = ("rw.rw_plus", "projector.twisted_tilde_table")

    def __init__(self, seed: int, scale: str, out_dir: str):
        from lasagna import catalog
        from lasagna import rw
        from lasagna.gradings import Window

        belt_window = Window(h2_lo=-4, h2_hi=2, q2_lo=-12, q2_hi=0)
        runs = [
            # test_rw_plus_belt_four
            ("belt_link(4) k<=2", catalog.belt_link(4),
             Window(h2_lo=-4, h2_hi=0, q2_lo=-16, q2_hi=0), 2, -8, range(-16, -8, 2), None),
            # acceptance criterion 4
            ("belt_link(2) k<=3", catalog.belt_link(2), belt_window, 3, -4, range(-12, -4, 2), {2}),
            # test_rw_plus_belt_antiparallel
            ("belt_link(1,1) k<=3", catalog.belt_link(1, 1), belt_window, 3, -4, (), None),
        ]
        if scale != "full":
            runs = runs[1:]
        self.tasks_ = []
        for label, d, window, k_max, bottom, empty, twists in runs:
            def run(d=d, window=window, k_max=k_max):
                return rw.rw_plus(d, window, k_max=k_max)

            def check(res, bottom=bottom, empty=empty, twists=twists):
                t = res.table
                ok = (t[(0, bottom)] == 1 and all(t[(0, q2)] == 0 for q2 in empty)
                      and all(g.h2 >= 0 for g in t) and res.all_stabilized()
                      and (twists is None or set(res.twists.values()) == twists))
                return _expect(ok, "table or stabilization differs from the pinned values")

            self.tasks_.append(Task(label, run, check))

    def tasks(self) -> list[Task]:
        return self.tasks_


# -- lasagna-colimit ----------------------------------------------------------


class LasagnaColimit:
    """Dense-cube colimit stages, the belt symmetrizer and the capping class."""

    entry_points = ("skein.s02_dims",)

    def __init__(self, seed: int, scale: str, out_dir: str):
        from lasagna import catalog
        from lasagna import skein
        from lasagna.gradings import DimTable, Grading, Window

        # acceptance criterion 6: dimension 1 at (h,q) = (0,0),(0,-2),(0,-4),(0,-6)
        window = Window(h2_lo=-2, h2_hi=2, q2_lo=-12, q2_hi=0)
        expected = DimTable({(0, 0): 1, (0, -4): 1, (0, -8): 1, (0, -12): 1})

        def s02(alpha, r_max):
            spec = skein.HandlebodySpec(catalog.empty_surgery(1), (alpha,))

            def check(res):
                return _expect(res.table == expected and set(res.stable) == set(expected)
                               and all(res.stable.values()),
                               "D2xS2 table differs from acceptance criterion 6")

            return Task(f"s02 D2xS2 alpha={alpha} r_max={r_max}",
                        lambda: skein.s02_dims(spec, window, r_max=r_max), check)

        def capping():
            spec = skein.HandlebodySpec(catalog.belt_link(2), (0,))

            def check(cert):
                # test_capping_certificates: survives, at (0,-4) doubled
                return _expect(cert.survives and cert.grading == Grading(0, -4),
                               "belt_link(2) capping certificate differs")

            return Task("capping belt_link(2)", lambda: skein.belt_capping_class(spec), check)

        self.tasks_ = [s02(2, 2)]
        if scale == "full":
            self.tasks_ += [s02(0, 3), capping()]
            self.entry_points = ("skein.s02_dims", "skein.belt_capping_class")

    def tasks(self) -> list[Task]:
        return self.tasks_


# -- cli-cached ---------------------------------------------------------------


def _fixture(name: str) -> str:
    return os.path.join(FIXTURES, name + ".json")


class CliCached:
    """The CLI as a user calls it: one process per request, answers cached.

    A priming pass runs each distinct request once against an empty cache
    directory; the timed stream then repeats them in seeded order, all
    served from the cache.  The traced run calls cli.run in-process.
    """

    entry_points = ("cli.run",)

    def __init__(self, seed: int, scale: str, out_dir: str):
        import lasagna.cli

        self.cli = lasagna.cli
        kh = ("t44", "t26", "t24", "figure8", "trefoil", "trefoil_left", "hopf", "unknot")
        if scale != "full":
            kh = ("trefoil", "hopf", "unknot")
        self.requests = [("kh", _fixture(name)) for name in kh]
        self.requests += [
            ("rw", _fixture("belt2"), "--window", "-1:0,-4:0", "--max-twists", "3"),
            ("lasagna", _fixture("empty_s1s2"), "--r-max", "2"),
        ]
        rng = random.Random(seed)
        n_stream = 100 if scale == "full" else 10
        self.stream = [rng.choice(self.requests) for _ in range(n_stream)]
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.cache_dirs: list[str] = []
        self.cold: dict = {}
        # peak RSS (KiB) of each timed stream process, from os.wait4
        self.stream_rss_kb: list[int] = []

    def _new_cache(self) -> str:
        path = tempfile.mkdtemp(prefix="cache-", dir=self.out_dir)
        self.cache_dirs.append(path)
        return path

    def _subprocess(self, argv, cache, rss_kb=None):
        proc = subprocess.Popen([sys.executable, "-m", "lasagna.cli", *argv, "--cache-dir", cache],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        with proc.stdout:
            stdout = proc.stdout.read()
        # reaped here rather than by Popen, to read this one child's peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if rss_kb is not None:
            rss_kb.append(usage.ru_maxrss)
        return proc.returncode, stdout

    def _in_process(self, argv, cache):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.run([*argv, "--cache-dir", cache])
        return code, out.getvalue().encode()

    def _tasks(self, call, cache, requests, cold: dict) -> list[Task]:
        def task(argv):
            def run():
                res = call(argv, cache)
                cold.setdefault(argv, res)
                return res

            def check(res):
                code, stdout = res
                if code != 0:
                    return f"exit code {code}"
                return _expect(stdout == cold[argv][1], "cached stdout differs from the cold stdout")

            return Task(f"{argv[0]} {os.path.basename(argv[1])}", run, check)

        return [task(argv) for argv in requests]

    def cold_tasks(self) -> list[Task]:
        self.cache = self._new_cache()
        return self._tasks(self._subprocess, self.cache, self.requests, self.cold)

    def tasks(self) -> list[Task]:
        def call(argv, cache):
            return self._subprocess(argv, cache, self.stream_rss_kb)

        return self._tasks(call, self.cache, self.stream, self.cold)

    def peak_rss_mb(self) -> float:
        """Largest peak RSS of a timed (cached) CLI process; the priming runs are left out."""
        return max(self.stream_rss_kb) / 1024.0

    def traced_tasks(self) -> list[Task]:
        """Priming and stream in-process, against a fresh cache each call."""
        cache, cold = self._new_cache(), {}
        return self._tasks(self._in_process, cache, self.requests + self.stream, cold)

    def workload_errors(self) -> list[str]:
        errors = []
        for cache in self.cache_dirs:
            entries = [f for f in os.listdir(cache) if f.endswith(".json")]
            if len(entries) != len(self.requests):
                errors.append(f"cache holds {len(entries)} entries for {len(self.requests)} requests")
        return errors

    def close(self) -> None:
        for cache in self.cache_dirs:
            shutil.rmtree(cache, ignore_errors=True)


WORKLOADS = {
    "kh-corpus": KhCorpus,
    "rw-twist": RwTwist,
    "lasagna-colimit": LasagnaColimit,
    "cli-cached": CliCached,
}


# -- running ----------------------------------------------------------------


# The machine-speed probe: a fixed pure-Python loop, best of three.  Its
# nominal time is its fastest reading on a shared 2-core virtual machine
# with Python 3.11.  Within a timed task it runs every SAMPLE_PERIOD_S.
REFERENCE_LOOP = 30_000
REFERENCE_NOMINAL_S = 0.0017
SAMPLE_PERIOD_S = 0.25


def reference_s() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(REFERENCE_LOOP):
            acc += i * i % 7
        best = min(best, clock() - t0)
    return best


class SpeedSampler:
    """Runs the probe every SAMPLE_PERIOD_S of a task, from a timer signal.

    The readings follow the machine's speed through a multi-second task; the
    time the probes take is left out of the task's time.
    """

    def __init__(self):
        self.readings: list[float] = []
        self.spent = 0.0
        self.active = False

    def _on_alarm(self, signum, frame):
        if self.active:
            t0 = clock()
            self.readings.append(reference_s())
            self.spent += clock() - t0

    def start(self) -> None:
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.active = True
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        self.active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def run_pass(tasks: list[Task], reference: bool = False):
    """Run the tasks back to back; returns [(task, seconds, reference seconds, output, error)].

    A full collection before each task, outside its time, keeps one task's
    garbage from being collected on the next one's clock.  With `reference`,
    the probe runs between tasks and every SAMPLE_PERIOD_S within them, and
    each task gets the mean of the probes on either side of it and inside it.
    """
    records = []
    probes = []
    for task in tasks:
        gc.collect()
        sampler = SpeedSampler()
        if reference:
            probes.append(reference_s())
            sampler.start()
        t0 = clock()
        try:
            out, err = task.run(), None
        except Exception as exc:  # a failing task is counted, the pass goes on
            out, err = None, f"{type(exc).__name__}: {exc}"
        if reference:
            sampler.stop()
        records.append([task, clock() - t0 - sampler.spent, sampler.readings, out, err])
    if reference:
        probes.append(reference_s())
        for i, rec in enumerate(records):
            rec[2] = statistics.mean([probes[i], probes[i + 1], *rec[2]])
    return [tuple(rec) for rec in records]


def task_time(records) -> float:
    return sum(rec[1] for rec in records)


def check_records(records) -> list[str]:
    """Check each task's first output against its reference, repeats against the first."""
    errors, first = [], {}
    for task, _, _, out, err in records:
        if err is None and id(task) in first:
            err = _expect(out == first[id(task)], "output differs from the task's first output")
        elif err is None:
            first[id(task)] = out
            try:
                err = task.check(out)
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            errors.append(f"{task.label}: {err}")
    return errors


def nearest_rank(sorted_values: list[float], percent: int) -> float:
    """Smallest sample with at least `percent`% of the samples at or below it."""
    k = max(1, -(-percent * len(sorted_values) // 100))
    return sorted_values[k - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _workload_errors(work) -> list[str]:
    return work.workload_errors() if hasattr(work, "workload_errors") else []


def measure(work, seconds: float) -> dict:
    """Time passes for `seconds`; report each task at the nominal machine speed.

    On a shared 2-core virtual machine, other tenants' load made the same
    task run up to 1.7x slower from one few-second stretch to the next, and
    the reference probe slowed with it.  Each run of a task is therefore scaled
    by REFERENCE_NOMINAL_S / (mean probe time around and during it), and a
    task's time is the median of its scaled runs.  Passes start while a whole pass still
    fits in --seconds (always one); the time left then goes to rounds over
    the tasks that still fit, shortest first, so short tasks get more runs.
    """
    priming_s, priming = None, []
    if hasattr(work, "cold_tasks"):
        priming = run_pass(work.cold_tasks())
        priming_s = task_time(priming)
    tasks = work.tasks()
    index = {id(task): i for i, task in enumerate(tasks)}
    raw: list[list[float]] = [[] for _ in tasks]
    scaled: list[list[float]] = [[] for _ in tasks]
    walls, timed = [], []
    started = clock()

    def record(records):
        timed.extend(records)
        for task, took, ref, _, _ in records:
            raw[index[id(task)]].append(took)
            scaled[index[id(task)]].append(took * REFERENCE_NOMINAL_S / ref)

    def left():
        return seconds - (clock() - started)

    while True:
        pass_start = clock()
        record(run_pass(tasks, reference=True))
        walls.append(clock() - pass_start)
        if statistics.median(walls) > left():
            break
    by_length = sorted(range(len(tasks)), key=lambda i: min(raw[i]))
    fitted = True
    while fitted:
        fitted = False
        for i in by_length:
            if min(raw[i]) < left():
                record(run_pass([tasks[i]], reference=True))
                fitted = True
    peak = work.peak_rss_mb() if hasattr(work, "peak_rss_mb") else peak_rss_mb()
    per_task = sorted(statistics.median(s) for s in scaled)
    errors = check_records(priming + timed) + _workload_errors(work)
    return {
        "attempted": len(priming) + len(timed),
        "errors": errors,
        "passes": walls,
        "runs": len(timed),
        "raw_wall_s": sum(statistics.median(r) for r in raw),
        "speed": statistics.median(rec[2] for rec in timed) / REFERENCE_NOMINAL_S,
        "priming_s": priming_s,
        "tasks_per_pass": len(tasks),
        "metrics": {
            "wall_s": sum(per_task),
            "task_p50_s": nearest_rank(per_task, 50),
            "task_p90_s": nearest_rank(per_task, 90),
            "peak_rss_mb": peak,
        },
    }


def measure_traced(work, name: str, out_dir: str) -> dict:
    from tracer import Tracer

    tasks_for = getattr(work, "traced_tasks", work.tasks)
    recs0 = run_pass(tasks_for())
    tracer = Tracer()
    tracer.install()
    try:
        recs1 = run_pass(tasks_for())
    finally:
        tracer.restore()
    # wall_s here is the tasks' own time: the collections between them are no span's
    untraced_wall, traced_wall = task_time(recs0), task_time(recs1)
    errors = check_records(recs0 + recs1) + _workload_errors(work)
    layers = tracer.metrics(traced_wall, untraced_wall, work.entry_points)
    for entry in work.entry_points:
        if not layers[entry + ".calls"]:
            errors.append(f"{entry} was never called while traced: a binding site was missed")
    tracer.write_spans(os.path.join(out_dir, f"spans-{name}.bin.gz"))
    return {"attempted": len(recs0) + len(recs1), "errors": errors, "metrics": layers}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    p.add_argument("--scale", choices=("full", "tiny"), default="full")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)

    work = WORKLOADS[args.workload](args.seed, args.scale, args.out)
    setup_done = time.monotonic()
    try:
        if args.mode == "setup":
            result = {}
        elif args.mode == "run":
            result = measure(work, args.seconds)
        else:
            result = measure_traced(work, args.workload, args.out)
    finally:
        getattr(work, "close", lambda: None)()
    result["setup_done"] = setup_done
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
