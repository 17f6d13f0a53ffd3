"""One workload in a fresh, single-threaded process.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
It imports ``twospin.cli`` from the checkout's ``src``, writes the seeded
input files, prints a ready timestamp (the end of set-up), and then -- unless
``--setup-only`` -- runs the job list in passes, each job as one in-process
``twospin.cli.main(argv)`` call with stdout and stderr captured.  Raw
timings, first-pass outputs (``out/``) and per-layer trace metrics go to the
work directory; checking happens in the parent, so reference computations
add nothing to this process's time or memory.

A ``speed.Sampler`` reads the machine's speed all through the process.  Each
timing is written raw, less the sampler's own time inside it, together with
the factor that turns it into seconds at the reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path

import speed

MIN_PASSES = 3  # an untraced run measures at least this many passes
MIN_TRACED_ROUNDS = 2  # a traced run, at least this many untraced + traced pairs


def blas_threads():
    """Thread count OpenBLAS reports, when its library is loaded and queryable."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def peak_rss_kb() -> int:
    """This process image's peak resident set, in KiB.

    ``ru_maxrss`` is not used where ``VmHWM`` can be read: on Linux it keeps
    the peak of the forked parent across ``exec``, so it would report the
    benchmark's own parent process whenever that is the larger.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_job(cli, argv):
    """(start, end, exit code, exception type or None, stdout) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    exc_type = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # the benchmark records the crash and keeps going
        code, exc_type = 1, type(exc).__name__
    return start, time.perf_counter(), code, exc_type, out.getvalue()


def run_pass(cli, jobs, tracer, outputs, changed, sampler) -> dict:
    """Run the job list once; ``tracer`` (or None) records spans for the pass.

    The first output of each job is written to ``out/<index>.txt``; a later
    pass whose output or exit code differs marks the job in ``changed``.
    """
    latencies, windows = [], []
    if tracer is not None:
        tracer.install()
    try:
        for index, job in enumerate(jobs):
            start, end, code, exc_type, stdout = run_job(cli, job["argv"])
            if tracer is not None:
                tracer.end_job()
            latencies.append(end - start - sampler.overhead(start, end))
            windows.append((start, end))
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            first = outputs.get(job["id"])
            if first is None:
                Path("out", f"{index}.txt").write_text(stdout)
                outputs[job["id"]] = {"code": code, "exception": exc_type, "sha256": digest}
            elif first["sha256"] != digest or first["code"] != code:
                changed.add(job["id"])
    finally:
        if tracer is not None:
            tracer.uninstall()
    # after the pass, so that short jobs also have readings from after them
    factors = [sampler.factor(start, end) for start, end in windows]
    return {"latencies": latencies, "factors": factors, "traced": tracer is not None,
            "trace": tracer.take() if tracer is not None else None}


def measure(cli, jobs, budget, tracer, outputs, changed, sampler) -> list:
    """Run rounds of passes for about ``budget`` seconds.

    A round is one untraced pass, followed by one traced pass when ``tracer``
    is given; alternating them keeps slow drifts of machine speed out of the
    tracing overhead.
    """
    passes = []
    rounds = 0
    min_rounds = MIN_PASSES if tracer is None else MIN_TRACED_ROUNDS
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if rounds:
            mean = elapsed / rounds
            if rounds >= min_rounds and elapsed + mean > budget:
                break
            if elapsed + mean > 4 * budget:
                break
        passes.append(run_pass(cli, jobs, None, outputs, changed, sampler))
        if tracer is not None:
            passes.append(run_pass(cli, jobs, tracer, outputs, changed, sampler))
        rounds += 1
    return passes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    sampler = speed.Sampler()
    begun = time.perf_counter()
    sampler.start()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import twospin.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"twospin imported from {cli.__file__}, not from {src}")
    import workloads

    workdir = Path(args.workdir)
    inputs, jobs = workloads.build(args.workload, args.seed)
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    ready, ready_pc = time.monotonic(), time.perf_counter()
    sampler.read_now(speed.MIN_SAMPLES)  # a reading at the end, for a short set-up
    overhead = sampler.warmup_s + sampler.overhead(begun, ready_pc)
    print(json.dumps({"ready": ready, "overhead": overhead,
                      "factor": sampler.factor(begun, ready_pc)}), flush=True)
    if args.setup_only:
        sampler.stop()
        return 0

    os.chdir(workdir)
    Path("out").mkdir(exist_ok=True)
    outputs, changed = {}, set()
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    passes = measure(cli, jobs, args.seconds, tracer, outputs, changed, sampler)
    sampler.stop()

    import numpy
    result = {
        "jobs": jobs,
        "passes": passes,
        "outputs": outputs,
        "changed": sorted(changed),
        "peak_rss_kb": peak_rss_kb(),
        "kernel_s": {"readings": len(sampler.seconds),
                     "median": sorted(sampler.seconds)[len(sampler.seconds) // 2]},
        "env": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
                "blas_threads_reported": blas_threads()},
    }
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
