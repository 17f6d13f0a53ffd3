"""The benchmark's self-loop jobs pass its own checker (bench/check.py).

The job list (bench/workloads.py) and the checker are compiled from their
source text (`load_bench`), so nothing is written under bench/.  Each job
runs in-process through ``twospin.cli.main``, the way bench/worker.py runs
it, and its output is checked against the mpmath reference; a failure must
be one that ``check.KNOWN`` lists.
"""

import contextlib
import io
import sys

from test_bench_tracer import load_bench
from twospin.cli import main


def _run(argv):
    """({"code", "exception"}, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception as exc:
        code, exception = 1, type(exc).__name__
    return {"code": code, "exception": exception}, out.getvalue()


def test_selfloop_jobs_pass_the_benchmark_check(tmp_path, monkeypatch):
    workloads = load_bench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # check.py imports it
    check = load_bench("check")
    _, jobs = workloads.build("field-gadgets", 1)
    jobs = [job for job in jobs if job["id"].startswith("selfloop-")]
    assert len(jobs) == 30
    unknown = {}
    for job in jobs:
        outcome, stdout = _run(job["argv"])
        failure = check.check_job(job, outcome, stdout, tmp_path)
        if failure is not None and not check.is_known(job, failure):
            unknown[job["id"]] = failure
    assert unknown == {}
