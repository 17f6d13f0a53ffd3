"""Every benchmark job's argv is read from ``COMMANDS`` without argparse.

The job lists of all four workloads at seeds 1 and 2 are built from the
source text of bench/workloads.py (`load_bench`), so nothing is written under
bench/.  Each job runs in-process through ``twospin.cli.main`` with
``build_parser`` replaced by a spy: no job may build the parser, and the
table reader's namespace for each argv equals the one argparse returns.
"""

import contextlib
import io

import pytest

import twospin.cli as cli
from test_bench_tracer import load_bench

WORKLOADS = ["exact-certify", "float-enum", "field-gadgets", "pendant-peel"]


@pytest.mark.parametrize("seed", [1, 2])
def test_every_job_argv_is_read_without_the_parser(seed, tmp_path, monkeypatch):
    workloads = load_bench("workloads")
    parser = cli.build_parser()
    built = []
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or parser)
    monkeypatch.chdir(tmp_path)  # the jobs name their files relative to it
    argvs = []
    for workload in WORKLOADS:
        inputs, jobs = workloads.build(workload, seed)
        for name, text in inputs.items():
            (tmp_path / name).write_text(text)
        for job in jobs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    contextlib.suppress(Exception):  # the known failures of check.KNOWN
                cli.main(job["argv"])
            argvs.append(job["argv"])
    assert built == []
    assert len(argvs) > 200
    for argv in argvs:
        args = cli._read_argv(argv)
        assert args is not None, argv
        assert vars(args) == vars(parser.parse_args(argv)), argv
