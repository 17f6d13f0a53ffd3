"""The benchmark's span tracer (bench/spans.py) still finds every name it wraps.

The tracer patches package functions by name, so renaming one breaks only a
traced benchmark run; this test makes the rename fail the suite instead.
"""

import importlib
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
MODULES = ("cli", "construct", "core", "exact", "gadgets", "recursion", "reductions")


def _load_spans() -> types.ModuleType:
    # compiled from the source text, so nothing is written next to it
    module = types.ModuleType("spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_tracer_wraps_existing_names_and_restores_them():
    modules = [importlib.import_module(f"twospin.{name}") for name in MODULES]
    before = [dict(vars(module)) for module in modules]
    tracer = _load_spans().Tracer()
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
