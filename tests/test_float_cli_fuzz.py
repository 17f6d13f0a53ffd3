"""Fuzz of float-mode ``eval``: every input ends in a documented exit code.

Graph files of at most 11 vertices, with beta, gamma and every field drawn
from {0, 1e-300, ..., 1e300}, go to ``eval`` in float mode, run in-process
through ``twospin.cli.main``.  Half of the graphs are complete on 9 to 11
vertices, plus a few parallel edges and self-loops, so that their first
bucket's halves have 256 entries or more and take the vector log-sum-exp.
Each call must exit 0, 2 (domain, or a value beyond the float range) or 3
(capacity) with no traceback.  Where rational mode also exits 0 on the same
file, the float Z and effective field agree with it to rel 1e-9; both are
written with 12 significant digits.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twospin.cli import main

FUZZ = settings(max_examples=120, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# JSON number texts from 0 to 1e300: a zero field is a domain error, and a
# zero beta or gamma puts -inf entries in the log tables
VALUES = ["0", "1e-300", "1e-200", "1e-100", "1e-10", "0.5", "1", "2", "1e10", "1e100",
          "1e200", "1e300"]


@st.composite
def graph_texts(draw) -> str:
    """Graph JSON text: sparse on 1 to 11 vertices, or complete on 9 to 11
    plus a few extra edges.  Its numbers come from one run of VALUES, half
    the time of at most three, so that many complete graphs have a Z in the
    float range."""
    lo = draw(st.integers(0, len(VALUES) - 1))
    hi = draw(st.integers(lo, len(VALUES) - 1)) if draw(st.booleans()) else lo + 2
    values = st.sampled_from(VALUES[lo:hi + 1])
    complete = draw(st.booleans())
    ids = [f"v{i}" for i in range(draw(st.integers(9 if complete else 1, 11)))]
    pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
    if complete:
        edges = [(u, v) for i, u in enumerate(ids) for v in ids[:i]]
        edges += draw(st.lists(pair, max_size=4))
    else:
        edges = draw(st.lists(pair, max_size=3 * len(ids)))
    output = draw(st.sampled_from([None, *ids]))
    vertices = ", ".join(f'{{"id": "{v}", "field": {draw(values)}}}' for v in ids)
    pairs = ", ".join(f'["{u}", "{v}"]' for u, v in edges)
    return (f'{{"beta": {draw(values)}, "gamma": {draw(values)}, '
            f'"vertices": [{vertices}], "edges": [{pairs}], '
            f'"output": {"null" if output is None else json.dumps(output)}}}')


def _run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@FUZZ
@given(text=graph_texts())
def test_fuzzed_float_eval_exits_with_a_documented_code(tmp_path, text):
    path = tmp_path / "g.json"
    path.write_text(text)
    code, out, err = _run(["eval", "--input", str(path)])
    assert code in (0, 2, 3), (text, code, err)
    assert "Traceback" not in err, (text, err)
    if code != 0:
        return
    exact_code, exact_out, _ = _run(["eval", "--input", str(path), "--mode", "rational"])
    if exact_code != 0:
        return
    got, want = json.loads(out), json.loads(exact_out)
    for key in ("Z", "effective_field"):
        if key in want:
            # a value below the normal float range keeps fewer than 53 bits
            assert got[key] == pytest.approx(want[key], rel=1e-9, abs=sys.float_info.min), \
                (text, key)
