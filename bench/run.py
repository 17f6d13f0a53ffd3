"""twospin benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 bench/run.py --workload float-enum --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-check

Each run builds the workload's job list from ``--seed`` (see
``workloads.py``), then starts fresh single-threaded Python processes
(``worker.py``, BLAS pinned to one thread) that import ``twospin.cli`` from
``src/``, write the seeded inputs and run the jobs in-process.  Set-up is
sampled in several fresh processes and reported as a median.  The job list
runs in passes until ``--seconds`` is spent; every job's first output is
checked against an independent reference (``check.py``) and later passes
must repeat it byte for byte.

Every time reported is in seconds at a fixed reference speed of the machine
(``speed.py``): the raw time times the ratio of a reference kernel time to
the kernel's time measured all through the same interval.  On a shared host
this takes out most of the drift between fast and slow moments that raw
medians show from one run to the next.  The raw figures are printed in the
``detail`` line.

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` the worker runs half the time untraced and half traced
(``spans.py``) and the result holds the per-layer metrics, with the tracing
overhead.  The last line of stdout is the JSON result; the lines before it
record the environment and every failure by job and type.  Every failed job
run counts in ``failed``; ``correct`` is false when a failure is not one of
the program's known defects listed in ``check.KNOWN``.

Seed 1 is the development seed; seed 2 is held out: a claimed gain must
also hold on it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

DEV_SEED, HELD_OUT_SEED = 1, 2
SETUP_SAMPLES = 5  # fresh set-up-only processes, plus the measuring one
DEADLINE_S = 170
BLAS_THREADS = "1"
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_tail_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = {**spans.METRICS, "trace.overhead_s": "s", "trace.overhead_share": "share",
             "fail_share": "share"}


def _at_reference(pass_: dict) -> list:
    """A pass's job times in seconds at the reference speed."""
    return [t * f for t, f in zip(pass_["latencies"], pass_["factors"])]


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "twospin").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_pinned": int(BLAS_THREADS)}


def _worker(args: list, workdir: Path, timeout: float) -> tuple[float, float, str]:
    """Run worker.py; (raw set-up seconds, speed factor, stdout).

    Set-up ends at the worker's ready mark; the speed sampler's own time in
    it is taken out.
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    cmd = [sys.executable, str(BENCH / "worker.py"), "--src", str(SRC),
           "--workdir", str(workdir), *args]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    mark = json.loads(proc.stdout.splitlines()[0])
    return mark["ready"] - start - mark["overhead"], mark["factor"], proc.stdout


def tail_quantile(n_jobs: int) -> float:
    """Highest quantile with at least ten job runs beyond it in the shortest run."""
    return 1 - 10 / (worker.MIN_PASSES * n_jobs)


def quantile(values: list, q: float) -> float:
    """Linearly interpolated q-quantile."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}")
    if not (SRC / "twospin" / "cli.py").is_file():
        raise BenchError(f"no twospin sources under {SRC}")
    started = time.monotonic()
    workdir = ROOT / ".bench_run" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        common = ["--workload", workload, "--seed", str(seed)]
        setups = [_worker([*common, "--setup-only"], workdir, 60)[:2]
                  for _ in range(SETUP_SAMPLES)]
        remaining = DEADLINE_S - (time.monotonic() - started)
        setups.append(_worker([*common, "--seconds", str(seconds), "--trace", str(int(trace))],
                              workdir, remaining)[:2])
        raw = json.loads((workdir / "result.json").read_text())
        jobs = raw["jobs"]
        failures, unexpected = {}, {}
        for index, job in enumerate(jobs):
            stdout = (workdir / "out" / f"{index}.txt").read_text()
            failure = check.check_job(job, raw["outputs"][job["id"]], stdout, workdir)
            if job["id"] in raw["changed"]:
                failure = "nondeterministic"
            if failure is not None:
                failures[job["id"]] = failure
                if not check.is_known(job, failure):
                    unexpected[job["id"]] = failure
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    plain = [p for p in raw["passes"] if not p["traced"]]
    traced = [p for p in raw["passes"] if p["traced"]]
    n_passes = len(raw["passes"])
    attempted = len(jobs) * n_passes
    failed = len(failures) * n_passes
    walls = [sum(_at_reference(p)) for p in plain]
    latencies = [t for p in plain for t in _at_reference(p)]
    if trace:
        metrics = {name: statistics.median(p["trace"][name] for p in traced)
                   for name in spans.METRICS}
        traced_wall = statistics.median(sum(_at_reference(p)) for p in traced)
        metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
        metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / statistics.median(walls)
        metrics["fail_share"] = failed / attempted
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(raw * factor for raw, factor in setups),
            "wall_s": statistics.median(walls),
            "job_p50_s": statistics.median(latencies),
            "job_tail_s": quantile(latencies, tail_quantile(len(jobs))),
            "peak_rss_mb": raw["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
    return {
        "result": {"correct": not unexpected, "attempted": attempted, "failed": failed,
                   "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}},
        "env": {**environment(), **raw["env"], "workload": workload, "seed": seed,
                "seconds": seconds, "trace": int(trace)},
        "detail": {"jobs": len(jobs), "passes": n_passes,
                   "tail_percentile": 100 * tail_quantile(len(jobs)),
                   "setup_samples_s": [raw * factor for raw, factor in setups],
                   "pass_walls_s": walls,
                   "raw_setup_samples_s": [raw for raw, _ in setups],
                   "raw_pass_walls_s": [sum(p["latencies"]) for p in plain],
                   "speed_factor_median": statistics.median(
                       f for p in raw["passes"] for f in p["factors"]),
                   "kernel_s": raw["kernel_s"],
                   "failures_by_job": failures,
                   "failures_by_type": dict(Counter(failures.values())),
                   "unexpected_failures": unexpected},
    }


def _print_run(run: dict) -> None:
    print("env " + json.dumps(run["env"], sort_keys=True))
    print("detail " + json.dumps(run["detail"], sort_keys=True))
    for name, m in run["result"]["metrics"].items():
        note = f" at p{run['detail']['tail_percentile']:.2f}" if name == "job_tail_s" else ""
        print(f"metric {name} {m['value']!r} {m['unit']}{note}")
    print(json.dumps(run["result"]), flush=True)


def self_check(seconds: float) -> int:
    """Run every workload briefly, untraced on the development seed and traced
    on the held-out seed; every named metric must print with the unit
    BENCHMARK.json gives it, and no job may fail unexpectedly."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, seed in ((0, DEV_SEED), (1, HELD_OUT_SEED)):
            run = run_workload(workload, seed, seconds, bool(trace))
            got = {k: m["unit"] for k, m in run["result"]["metrics"].items()}
            for name, m in run["result"]["metrics"].items():
                print(f"{workload:14s} trace={trace} {name:40s} {m['value']:<24.6g} {m['unit']}")
            if got != expect[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            if not all(math.isfinite(m["value"]) for m in run["result"]["metrics"].values()):
                problems.append(f"{workload} trace={trace}: non-finite metric")
            if not run["result"]["correct"]:
                problems.append(f"{workload} trace={trace}: unexpected failures "
                                f"{run['detail']['unexpected_failures']}")
    for problem in problems:
        print("self-check: " + problem, file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="run every workload briefly and check that every metric prints")
    args = ap.parse_args(argv)
    try:
        if args.self_check:
            return self_check(min(args.seconds, 1.0))
        if args.workload is None:
            ap.error("--workload is required")
        _print_run(run_workload(args.workload, args.seed, args.seconds, bool(args.trace)))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
