"""Fuzz of the exact layer's CLI: every input ends in a documented exit code.

Small graph files and flag values, malformed ones included, go to
``eval --mode rational`` and ``reduce --kind bipartite|contract|ising|pipeline
--mode rational``, run in-process through ``twospin.cli.main``.  Each call
must exit 0, 2 (domain), 3 (capacity) or 4 (verification) with no traceback;
an uncaught exception fails the test with its own.  ``reduce --kind
selfloop`` is left out: its float search is not part of the exact layer.
"""

import contextlib
import io
from fractions import Fraction

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twospin.cli import main

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _mostly(good, bad, odds: int = 30):
    """good, except one time in ``odds`` bad."""
    return st.integers(1, odds).flatmap(lambda k: bad if k == odds else good)


# JSON number texts, nearly all positive, now and then one that breaks a
# rule; exponents stay small, so that no radicand is long enough to be slow
# to split
JSON_NUMBERS = _mostly(
    st.one_of(st.integers(1, 9).map(str),
              st.decimals(min_value="0.05", max_value=12, places=2).map(str),
              st.sampled_from(["0.5", "1.25", "1.5", "2.5", "1e-3", "2.5e1", "1E1"])),
    st.sampled_from(["0", "-1", "-0.5", "1e-30", "2.5e12", "true", "null", '"2"']))
# flag texts: JSON numbers, fractions, and now and then text that is no number
FLAG_NUMBERS = _mostly(
    st.one_of(JSON_NUMBERS.filter(lambda s: s[0] not in 'tn"'),
              st.fractions(min_value=0, max_value=12, max_denominator=9).map(str)),
    st.sampled_from(["", "x", "nan", "inf", "-inf", "1/0", "1e99999"]), odds=10)


@st.composite
def graph_files(draw):
    """(vertex ids, graph JSON text) of at most 5 vertices; half of them are
    bipartite (edges join an even and an odd vertex), and now and then an
    edge or the output names an undeclared vertex."""
    ids = [f"v{i}" for i in range(draw(st.integers(0, 5)))]
    fields = [draw(JSON_NUMBERS) for _ in ids]
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                          max_size=8)) if ids else []
    if draw(st.booleans()):
        edges = [(u, v) for u, v in edges if (int(u[1:]) + int(v[1:])) % 2]
    if draw(st.integers(1, 20)) == 20:
        edges.append((ids[0] if ids else "ghost", "ghost"))
    output = draw(_mostly(st.sampled_from([None, *ids]), st.just("ghost"), odds=20))
    quote = '"{}"'.format
    vertices = ", ".join(f'{{"id": {quote(v)}, "field": {f}}}' for v, f in zip(ids, fields))
    pairs = ", ".join(f"[{quote(u)}, {quote(v)}]" for u, v in edges)
    text = (f'{{"beta": {draw(JSON_NUMBERS)}, "gamma": {draw(JSON_NUMBERS)}, '
            f'"vertices": [{vertices}], "edges": [{pairs}], '
            f'"output": {"null" if output is None else quote(output)}}}')
    return ids, text


def _flags(draw, names) -> list:
    """Each of the flags ``names`` given a fuzzed value, or left out."""
    argv = []
    for name in names:
        value = draw(st.none() | FLAG_NUMBERS)
        if value is not None:
            argv += [f"--{name}", value]
    return argv


def _exit(argv) -> tuple:
    """(exit code, stderr) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses a flag
            code = exc.code
    return code, err.getvalue()


def _check(argv):
    code, err = _exit(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@FUZZ
@given(data=st.data(), graph=graph_files(), limit=st.integers(1, 6))
def test_fuzzed_rational_eval_exits_with_a_documented_code(tmp_path, data, graph, limit):
    _, text = graph
    path = tmp_path / "g.json"
    path.write_text(text)
    _check(["eval", "--input", str(path), "--mode", "rational", "--enum-limit", str(limit),
            *_flags(data.draw, ("beta", "gamma"))])


@FUZZ
@given(data=st.data(), graph=graph_files(), limit=st.integers(1, 6),
       kind=st.sampled_from(["bipartite", "contract", "ising", "pipeline"]),
       no_verify=st.booleans())
def test_fuzzed_rational_reduce_exits_with_a_documented_code(tmp_path, data, graph, limit,
                                                             kind, no_verify):
    ids, text = graph
    path = tmp_path / "g.json"
    path.write_text(text)
    argv = ["reduce", "--kind", kind, "--input", str(path), "--mode", "rational",
            "--enum-limit", str(limit), *_flags(data.draw, ("beta", "gamma", "mu"))]
    if kind == "bipartite":  # it needs --mu-prime and, mostly, beta < gamma
        argv += ["--mu-prime", data.draw(FLAG_NUMBERS)]
        if data.draw(st.booleans()):
            beta = data.draw(st.fractions(Fraction(1, 2), 2, max_denominator=9))
            gamma = data.draw(st.fractions(2, 12, max_denominator=9))
            argv += ["--beta", str(beta), "--gamma", str(gamma)]
    if kind == "bipartite" and ids and data.draw(st.booleans()):
        argv += ["--left", ",".join(data.draw(st.lists(st.sampled_from(ids + ["ghost"]),
                                                       min_size=1, max_size=3)))]
    _check(argv + ["--no-verify"] * no_verify)
