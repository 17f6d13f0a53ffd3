"""The benchmark's field-gadgets and exact-certify jobs pass its own checker
(bench/check.py).

The job list (bench/workloads.py) and the checker are compiled from their
source text (`load_bench`), so nothing is written under bench/.  Each job
runs in-process through ``twospin.cli.main``, the way bench/worker.py runs
it, and its output is checked against the checker's independent reference;
a failure must be one that ``check.KNOWN`` lists.
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


def _unknown_failures(workload, prefixes, count, workdir, monkeypatch):
    """Failures that ``check.KNOWN`` does not list, by job id, among the
    ``count`` jobs of ``workload`` (seed 1) whose ids start with ``prefixes``,
    run in ``workdir`` with the workload's input files written there."""
    workloads = load_bench("workloads")
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # check.py imports it
    check = load_bench("check")
    inputs, jobs = workloads.build(workload, 1)
    for name, text in inputs.items():
        (workdir / name).write_text(text)
    monkeypatch.chdir(workdir)  # the jobs name their files relative to it
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
    assert _unknown_failures("field-gadgets", "selfloop-", 30, tmp_path, monkeypatch) == {}


def test_construct_jobs_pass_the_benchmark_check(tmp_path, monkeypatch):
    # the jobs write their gadgets (--emit-gadget) into the working directory
    assert _unknown_failures("field-gadgets", ("construct-", "sweep-error-"), 160,
                             tmp_path, monkeypatch) == {}


def test_exact_certify_jobs_pass_the_benchmark_check(tmp_path, monkeypatch):
    # every rational-mode reduce and eval job, checked exactly
    assert _unknown_failures("exact-certify", "", 55, tmp_path, monkeypatch) == {}
