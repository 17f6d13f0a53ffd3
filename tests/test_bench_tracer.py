"""The benchmark's span tracer (bench/spans.py) still finds every name it wraps.

The tracer patches package functions by name, so renaming one breaks only a
traced benchmark run; these tests make the rename fail the suite instead,
and a traced CLI run checks that each facts callback still fits the
signature of the function it wraps.
"""

import importlib
import json
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
MODULES = ("cli", "construct", "core", "exact", "gadgets", "recursion", "reductions")


def load_bench(name: str) -> types.ModuleType:
    """bench/<name>.py, compiled from its source text so that nothing is
    written next to it."""
    path = BENCH / f"{name}.py"
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    modules = [importlib.import_module(f"twospin.{name}") for name in MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = load_bench("spans").Tracer()
    try:
        tracer.install()  # looks up every traced name: a missing one raises here
        patched = list(tracer._patches)
        assert patched
        for module, attr, original in patched:
            assert module.__name__.startswith("twospin.")
            traced = getattr(module, attr)
            assert traced is not original and traced.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for module, attrs in zip(modules, before):
        assert vars(module).keys() == attrs.keys()
        changed = [k for k, v in vars(module).items() if v is not attrs[k]]
        assert changed == [], module.__name__


def test_traced_cli_runs_count_engine_calls_and_no_errors(tmp_path, capsys):
    cli = importlib.import_module("twospin.cli")
    doc = {"beta": 1, "gamma": 2, "vertices": [{"id": v, "field": 2} for v in "abcd"],
           "edges": [["a", "b"], ["b", "c"], ["c", "a"], ["c", "d"]], "output": "a"}
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    jobs = [["eval", "--input", str(path)],
            ["eval", "--input", str(path), "--mode", "rational"],
            ["reduce", "--kind", "pipeline", "--input", str(path), "--mu", "2",
             "--mode", "rational"]]
    tracer = load_bench("spans").Tracer()
    tracer.install()
    try:
        codes = []
        for argv in jobs:
            codes.append(cli.main(argv))  # the traced main, looked up after install
            tracer.end_job()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    metrics = tracer.take()
    assert codes == [0, 0, 0]
    assert metrics["core.float.calls"] >= 1
    assert metrics["core.exact.calls"] >= 1
    errors = {k: v for k, v in metrics.items() if ".errors." in k}
    assert errors and not any(errors.values()), errors
