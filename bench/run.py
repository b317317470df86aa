"""chromapoly benchmark: closed-loop CLI jobs with checked answers.

Run from the root of a checkout:

    python3 bench/run.py --workload poly_exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

One client in one process and one thread calls ``chromapoly.cli.main(argv)``
in-process with the default ``--workers 1``, one job after the other.  A run
runs whole rounds of the seed's job stream (``workloads.py``) until
``--seconds`` have passed, checks every answer against
``refs/<workload>.json``, and prints one JSON object as its last line.  With
``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it times
one cycle of rounds untraced (after a warm-up cycle), then repeats the same
cycle traced, reports per-layer figures per cycle (see ``tracing.py``) and
writes the spans to ``.bench_out/``.  ``--smoke`` runs every workload at its smallest size and
checks that every metric named in BENCHMARK.json is reported.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402

SETUP_REPEATS = 7
HARD_CAP_S = 150.0      # stop mid-round rather than overrun the run limit
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import chromapoly.cli; "
                "print(time.perf_counter() - t)")
ANSWER_KEYS = ("basis", "coeffs", "counts_at", "cross_checked", "audit",
               "value", "fast", "total", "by_size", "models", "colorings",
               "count", "match", "multiplier", "target_size", "clauses",
               "passed")
LAYER_MODULES = ("cli", "counting", "gadgets", "identities", "polynomials")

class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_program(root: str) -> dict:
    """Import chromapoly from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "chromapoly", "cli.py")):
        raise BenchError(f"no chromapoly sources under {src}")
    sys.path.insert(0, src)
    mods = {name: importlib.import_module(f"chromapoly.{name}")
            for name in LAYER_MODULES + ("errors",)}
    origin = os.path.dirname(os.path.abspath(mods["cli"].__file__))
    if origin != os.path.join(os.path.abspath(src), "chromapoly"):
        raise BenchError(f"chromapoly was imported from {origin}, not {src}")
    return mods


def answer(payload: dict) -> dict:
    """The fields of a CLI result that carry the answer."""
    out = {k: payload[k] for k in ANSWER_KEYS if k in payload}
    if "identities" in payload:
        out["identities"] = [[r["name"], r["passed"], r["instances"]]
                             for r in payload["identities"]]
    return out


def verdict(rc: int, output: str, reference) -> str | None:
    """Why a job failed, or None when it succeeded with the right answer."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        payload = json.loads(output.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return "output is not JSON"
    for flag in ("cross_checked", "match", "passed"):
        if flag in payload and payload[flag] is not True:
            return f"{flag} is not true"
    if reference is None:
        return "no reference answer"
    if answer(payload) != reference:
        return "answer differs from the reference"
    return None


def run_job(main, job, reference, call=None) -> tuple[float, str | None]:
    """Run one CLI job; return its wall time and failure reason."""
    out = io.StringIO()
    invoke = lambda: main(list(job.argv))  # noqa: E731
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        try:
            rc = call(invoke) if call else invoke()
        except Exception:  # a traceback is a failed job, not a failed run
            elapsed = time.perf_counter() - start
            print(f"{job.key}: traceback\n{traceback.format_exc()}",
                  file=sys.stderr)
            return elapsed, "traceback"
        elapsed = time.perf_counter() - start
    reason = verdict(rc, out.getvalue(), reference)
    if reason:
        print(f"{job.key}: {reason}", file=sys.stderr)
    return elapsed, reason


def measure_setup(root: str, workload: str, seed: int, workdir: str,
                  smallest: bool, speed: Speed
                  ) -> tuple[float, workloads.Stream]:
    """Median over repeats of a fresh interpreter's import of chromapoly.cli
    plus generating and writing this run's inputs, in reference seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        speed.sample()
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root,
                               capture_output=True, text=True, timeout=60,
                               check=True)
        start = time.perf_counter()
        stream = workloads.Stream(workload, seed, workdir, smallest)
        workloads.write_files(stream.files.items())
        wall = float(probe.stdout) + time.perf_counter() - start
        samples.append(wall * speed.scale())
    return statistics.median(samples), stream


def tail(times: list[float], target: float) -> tuple[float, float]:
    """The job time at the workload's tail percentile, by nearest rank, as
    (percentile, value).  The target is the highest grid percentile with at
    least ten jobs beyond it at the workload's usual job count; a run with
    fewer jobs falls back to the highest grid percentile that still has ten
    beyond it, or to the maximum."""
    ordered = sorted(times)
    count = len(ordered)
    best = 100.0, ordered[-1]
    for pct in TAIL_GRID:
        rank = -(-pct * count // 100)        # nearest rank, 1-based
        if pct <= target and count - rank >= 10:
            best = pct, ordered[int(rank) - 1]
    return best


class Loop:
    """Closed loop, one client: each job starts when the last one ends."""

    def __init__(self, main, refs, speed: Speed):
        self.main, self.refs, self.speed = main, refs, speed
        self.times: list[float] = []        # reference seconds
        self.wall = 0.0                     # seconds of job wall time
        self.failed = 0
        self.started = time.perf_counter()

    def jobs(self, jobs, call=None) -> float:
        """Run ``jobs`` in order, each after a calibration sample; return
        the sum of their times in reference seconds."""
        start = len(self.times)
        for job in jobs:
            if time.perf_counter() - self.started > HARD_CAP_S:
                break
            self.speed.sample()
            job_call = None if call is None else (
                lambda invoke, i=len(self.times): call(i, invoke))
            elapsed, reason = run_job(self.main, job,
                                      self.refs.get(job.key), job_call)
            self.wall += elapsed
            self.times.append(elapsed * self.speed.scale())
            self.failed += reason is not None
        return sum(self.times[start:])

    def until(self, deadline: float, batches, call=None) -> list[float]:
        """Whole batches from ``batches`` until ``deadline``, at least one;
        returns the job time of each in reference seconds."""
        spent = []
        for batch in batches:
            spent.append(self.jobs(batch, call))
            now = time.perf_counter()
            if now >= deadline or now - self.started > HARD_CAP_S:
                break
        return spent


def run(root: str, workload: str, seed: int, seconds: float, traced: bool,
        smallest: bool = False) -> dict:
    mods = load_program(root)
    with open(os.path.join(HERE, "refs", f"{workload}.json"),
              encoding="utf-8") as fh:
        refs = json.load(fh)
    workdir = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        speed = Speed()
        setup_s, stream = measure_setup(root, workload, seed, workdir,
                                        smallest, speed)
        loop = Loop(mods["cli"].main, refs, speed)
        deadline = time.perf_counter() + seconds
        if not traced:
            rounds = (stream.round(r) for r in itertools.count())
            loop.until(deadline, rounds)
            pct, tail_s = tail(loop.times, workloads.TAIL_PCT[workload])
            metrics = {
                "setup_s": (setup_s, "s"),
                "jobs_per_s": (len(loop.times) / sum(loop.times), "1/s"),
                "job_p50_s": (statistics.median(loop.times), "s"),
                "job_tail_s": (tail_s, "s"),
                "success_frac":
                    ((len(loop.times) - loop.failed) / len(loop.times),
                     "frac"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                                .ru_maxrss / 1024, "MB"),
            }
            print(f"# {workload} seed {seed}: {len(loop.times)} jobs, "
                  f"{len(loop.times) / loop.wall:.4g} jobs per wall second "
                  f"at speed scale {speed.scale(recent=False):.3f}, "
                  f"job_tail_s is p{pct:g} of {len(loop.times)} jobs, "
                  f"failed_frac {loop.failed / len(loop.times):g}")
        else:
            # the cycle untraced twice (the first warms the process up, the
            # second is the reference), then traced until the deadline, so
            # every traced cycle does the same work
            cycle = [job for r in range(stream.trace_rounds)
                     for job in stream.round(r)]
            loop.jobs(cycle)
            untraced_s = loop.jobs(cycle)
            tracer = tracing.Tracer(mods["errors"].BudgetExceededError)
            tracer.install(mods)
            try:
                traced_s = loop.until(deadline, itertools.repeat(cycle),
                                      tracer.run_job)
            finally:
                tracer.uninstall()
            # span times are wall times: scale them by the run's speed
            units = dict(tracing.LAYER_METRICS)
            scale = speed.scale(recent=False)
            per_unit = {"s": scale, "us": scale, "1/s": 1 / scale}
            metrics = {k: (v * per_unit.get(units[k], 1), units[k])
                       for k, v in tracing.layer_metrics(
                           tracer, len(traced_s)).items()}
            metrics["trace.cycle_s"] = (untraced_s, "s")
            metrics["trace.overhead_s"] = (
                statistics.median(traced_s) - untraced_s, "s")
            out_dir = os.path.join(root, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            spans_path = os.path.join(out_dir,
                                      f"spans-{workload}-{seed}.jsonl.gz")
            tracer.write(spans_path, loop.started)
            print(f"# {workload} seed {seed}: {len(traced_s)} traced cycles of "
                  f"{len(cycle)} jobs at speed scale {scale:.3f}, "
                  f"{len(tracer.spans)} spans in "
                  f"{os.path.relpath(spans_path, root)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):     # other runs may still use it
            os.rmdir(os.path.dirname(workdir))
    return {"correct": loop.failed == 0, "attempted": len(loop.times),
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def smoke(root: str) -> int:
    """Each workload at its smallest size, untraced and traced; every metric
    BENCHMARK.json names must be reported and every answer right."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {False: [m["name"] for m in spec["end_to_end"]],
              True: [m["name"] for m in spec["per_layer"]]}
    for workload in workloads.WORKLOADS:
        for traced in (False, True):
            result = run(root, workload, 0, 0.0, traced, smallest=True)
            missing = [m for m in wanted[traced] if m not in result["metrics"]]
            if missing or not result["correct"]:
                print(f"smoke {workload} trace={int(traced)}: missing "
                      f"{missing}, correct={result['correct']}",
                      file=sys.stderr)
                return 1
    print("smoke ok")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.smoke:
            return smoke(root)
        if args.workload is None:
            parser.error("--workload is required")
        result = run(root, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
