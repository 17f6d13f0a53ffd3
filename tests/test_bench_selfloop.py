"""The benchmark's field-gadgets jobs pass its own checker (bench/check.py).

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


def _unknown_failures(prefixes, count, workdir, monkeypatch):
    """Failures that ``check.KNOWN`` does not list, by job id, among the
    ``count`` field-gadgets jobs (seed 1) whose ids start with ``prefixes``."""
    workloads = load_bench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # check.py imports it
    check = load_bench("check")
    _, jobs = workloads.build("field-gadgets", 1)
    jobs = [job for job in jobs if job["id"].startswith(prefixes)]
    assert len(jobs) == count
    unknown = {}
    for job in jobs:
        outcome, stdout = _run(job["argv"])
        failure = check.check_job(job, outcome, stdout, workdir)
        if failure is not None and not check.is_known(job, failure):
            unknown[job["id"]] = failure
    return unknown


def test_selfloop_jobs_pass_the_benchmark_check(tmp_path, monkeypatch):
    assert _unknown_failures("selfloop-", 30, tmp_path, monkeypatch) == {}


def test_construct_jobs_pass_the_benchmark_check(tmp_path, monkeypatch):
    # the jobs write their gadgets (--emit-gadget) relative to the working directory
    monkeypatch.chdir(tmp_path)
    assert _unknown_failures(("construct-", "sweep-error-"), 160, tmp_path, monkeypatch) == {}
