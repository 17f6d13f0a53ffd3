"""Fuzz of the float CLI: every input ends in a documented exit code.

``eval``: graph files of at most 11 vertices, with beta, gamma and every
field drawn from {0, 1e-300, ..., 1e300}, run in float mode.  Half of the
graphs are complete on 9 to 11 vertices, plus a few parallel edges and
self-loops, so that their first bucket's halves have 256 entries or more and
take the vector log-sum-exp.  Where rational mode also exits 0 on the same
file, the float Z and effective field agree with it to rel 1e-9; both are
written with 12 significant digits.

``fixpoint``, ``construct``, ``thresholds``, every ``sweep`` kind, and float
``reduce --kind bipartite|contract|ising|pipeline`` with and without
``--no-verify``, take their numbers from the same values.  ``construct`` and
``sweep --kind construct-error`` also draw values inside the construction's
domain, where most calls succeed, a construct one time in four at a depth
up to the limit.  ``selfloop`` is left out: its achieved
field can still overflow as an OverflowError.

Every call runs in-process through ``twospin.cli.main``.  It exits 0, 2
(domain, or a value beyond the float range), 3 (capacity) or 4
(verification), with no traceback; an exit of 2 or 3 prints one stderr line
and nothing on stdout.  What it prints holds no inf or nan, except the
certificate's top-level ``scale``, whose float form can still be inf.
"""

import contextlib
import io
import json
import math
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from twospin import (DomainError, NumericError, RecursionParams, SpinParams,
                     construction_field_bound, solve_mu_star)
from twospin.cli import main
from twospin.gadgets import DEPTH_LIMIT

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


def _check_run(argv) -> tuple:
    """(exit code, stdout) of one call, after the checks every call must pass."""
    code, out, err = _run(argv)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code in (2, 3):
        assert out == "" and len(err.splitlines()) == 1, (argv, out, err)
    else:
        assert len(err.splitlines()) <= 1, (argv, err)
    return code, out


def _non_finite(doc, path=()) -> list:
    """Paths of the inf and nan floats in a parsed JSON document."""
    if isinstance(doc, dict):
        return [p for key, value in doc.items() for p in _non_finite(value, (*path, key))]
    if isinstance(doc, list):
        return [p for i, value in enumerate(doc) for p in _non_finite(value, (*path, i))]
    return [path] if isinstance(doc, float) and not math.isfinite(doc) else []


def _assert_finite_output(argv, out) -> None:
    if argv[0] == "sweep":
        cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells), (argv, out)
    else:
        assert [p for p in _non_finite(json.loads(out)) if p != ("scale",)] == [], (argv, out)


def _value(lo: str = "0", hi: str = "1e300"):
    return st.sampled_from(VALUES[VALUES.index(lo):VALUES.index(hi) + 1])


@st.composite
def command_argvs(draw) -> list:
    """argv of fixpoint, construct, thresholds or a sweep, every float from
    VALUES; the recursion's commands, which need beta <= 1 < gamma and a large
    mu, mostly get such values."""
    command = draw(st.sampled_from(["fixpoint", "construct", "thresholds", "star", "tree",
                                    "construct-error", "uniqueness"]))
    if command in ("thresholds", "star") or draw(st.integers(0, 3)) == 0:
        bg, mu = ["--beta", draw(_value()), "--gamma", draw(_value())], draw(_value())
    else:
        bg, mu = ["--beta", draw(_value("0", "1")), "--gamma", draw(_value("1"))], draw(_value("1"))
    bgmd = [*bg, "--mu", mu, "--d", str(draw(st.integers(1, 3)))]
    if command == "fixpoint":
        return ["fixpoint", *bgmd]
    if command == "construct":
        return ["construct", *bgmd, "--ell", str(draw(st.integers(0, 4))),
                "--target", draw(_value())]
    if command == "thresholds":
        d = draw(st.sampled_from([[], ["--d", "1"], ["--d", "3"], ["--d", "40"]]))
        return ["thresholds", *bg, *d]
    if command == "uniqueness":
        return ["sweep", "--kind", "uniqueness", "--beta-min", draw(_value()),
                "--beta-max", draw(_value()), "--steps", str(draw(st.integers(1, 3))),
                "--delta-reg", str(draw(st.integers(3, 6)))]
    rows = {"star": ["--w-max", draw(st.sampled_from(["0", "5", "100", "1000"]))],
            "tree": ["--t-max", str(draw(st.integers(0, 30)))],
            "construct-error": ["--ell-max", str(draw(st.integers(0, 2))),
                                "--targets", str(draw(st.integers(1, 2)))]}[command]
    return ["sweep", "--kind", command, *bgmd, *rows]


@FUZZ
@given(argv=command_argvs())
# the uniqueness sliver: float drift at b(1 - beta) = 1 + beta left the
# tangency root's discriminant negative, a math domain error
@example(argv=["sweep", "--kind", "uniqueness", "--beta-min", "0.3333333333333333",
               "--beta-max", "0.3333333333333333", "--steps", "1", "--delta-reg", "3"])
# a level of about 2.4e11 singleton children, which the list of them cannot hold
@example(argv=["construct", "--beta", "1", "--gamma", "2", "--mu", "1e10", "--d", "1",
               "--ell", "2", "--target", "0.5"])
# edge_ratio(mu) rounds to 1.0, where no star exponent exists
@example(argv=["sweep", "--kind", "construct-error", "--beta", "1", "--gamma", "2",
               "--mu", "1e100", "--d", "1", "--ell-max", "0", "--targets", "1"])
@example(argv=["construct", "--beta", "1", "--gamma", "2", "--mu", "1e100", "--d", "1",
               "--ell", "0", "--target", "1e-200"])
@example(argv=["construct", "--beta", "1.0", "--gamma", "1000.0",
               "--mu", "1.1725440749685394e+24", "--d", "5", "--ell", "2",
               "--target", "1.1725429024244644e+24"])
# target / mu underflows to 0
@example(argv=["construct", "--beta", "0.5", "--gamma", "1e10", "--mu", "1e100", "--d", "1",
               "--ell", "0", "--target", "1e-300"])
# mu + gamma overflows: the level map's first step would be 0.0
@example(argv=["fixpoint", "--beta", "0.2207132808549458", "--gamma", "1e308",
               "--mu", "1e308", "--d", "1"])
@example(argv=["sweep", "--kind", "construct-error", "--beta", "0.2207132808549458",
               "--gamma", "1e308", "--mu", "1e308", "--d", "1", "--ell-max", "0",
               "--targets", "2"])
def test_fuzzed_float_commands_exit_with_a_documented_code(argv):
    code, out = _check_run(argv)
    if code in (0, 4):
        _assert_finite_output(argv, out)


@st.composite
def construct_argvs(draw) -> list:
    """argv of ``construct``, or of ``sweep --kind construct-error``, inside
    their domain, where most calls build a gadget: beta is 1 half the time
    and otherwise in (0.3, 1), gamma is 10**U(0.2, 3), mu the construction's
    field bound times 10**U(0, 12) and the target mu_star times 10**U(-8, 0).
    A sweep has 0 to 3 as --ell-max and 1 to 4 --targets, which share one
    construction schedule.  A construct has 0 to 4 as --ell, or one time in
    four a depth up to DEPTH_LIMIT, with d at most 3 and beta*gamma in
    (1.01, 1.5), where the branch star's cap alpha**ell / d underflows a
    float before that depth."""
    deep = draw(st.integers(0, 3)) == 0
    if deep:  # beta*gamma near 1, so that alpha**ell leaves the float range by DEPTH_LIMIT
        d = draw(st.integers(1, 3))
        bg = 1 + 10 ** draw(st.floats(-2, -0.3))
        beta = bg ** -(d * draw(st.floats(0, 0.9)))  # beta * bg**d > 1
        gamma = bg / beta
    else:
        beta = 1.0 if draw(st.booleans()) else draw(st.floats(0.3, 1))
        gamma = 10 ** draw(st.floats(0.2, 3))
        d = draw(st.integers(1, 5))
    try:
        bound = construction_field_bound(SpinParams(beta, gamma, 1), d)
    except DomainError:  # beta*gamma <= 1, which the command refuses too
        bound = gamma ** d
    mu = bound * 10 ** draw(st.floats(0, 12))
    try:
        mu_star = solve_mu_star(RecursionParams(SpinParams(beta, gamma, mu), d))
    except (DomainError, NumericError):
        mu_star = mu
    bgmd = ["--beta", repr(beta), "--gamma", repr(gamma), "--mu", repr(mu), "--d", str(d)]
    if not deep and draw(st.booleans()):
        return ["sweep", "--kind", "construct-error", *bgmd,
                "--ell-max", str(draw(st.integers(0, 3))),
                "--targets", str(draw(st.integers(1, 4)))]
    target = mu_star * 10 ** draw(st.floats(-8, 0))
    ell = draw(st.integers(5, DEPTH_LIMIT) if deep else st.integers(0, 4))
    return ["construct", *bgmd, "--ell", str(ell), "--target", repr(target)]


@FUZZ
@given(argv=construct_argvs())
# the branch star's cap alpha**ell / d underflows to 0.0 from about ell = 250
@example(argv=["construct", "--beta", "0.8", "--gamma", "1.5", "--mu", "35.69670256576945",
               "--d", "3", "--ell", "250", "--target", "6.9801525264153375"])
def test_fuzzed_construct_in_its_domain_exits_with_a_documented_code(argv):
    code, out = _check_run(argv)
    if code in (0, 4):
        _assert_finite_output(argv, out)


@st.composite
def reduce_cases(draw) -> tuple:
    """(graph JSON text, reduce flags): a tree, a cycle with chords or any
    multigraph on 1 to 8 vertices, numbers from VALUES."""
    ids = [f"v{i}" for i in range(draw(st.integers(1, 8)))]
    shape = draw(st.sampled_from(["tree", "cycle", "any"]))
    if shape == "tree":
        edges = [(v, ids[draw(st.integers(0, i - 1))]) for i, v in enumerate(ids) if i]
    else:
        edges = list(zip(ids, ids[1:] + ids[:1])) if shape == "cycle" and len(ids) > 2 else []
        edges += draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)),
                               max_size=len(ids)))
    vertices = ", ".join(f'{{"id": "{v}", "field": {draw(_value())}}}' for v in ids)
    pairs = ", ".join(f'["{u}", "{v}"]' for u, v in edges)
    text = (f'{{"beta": {draw(_value())}, "gamma": {draw(_value())}, '
            f'"vertices": [{vertices}], "edges": [{pairs}], "output": null}}')
    kind = draw(st.sampled_from(["bipartite", "contract", "ising", "pipeline"]))
    flags = ["--kind", kind]
    if kind == "bipartite":
        flags += ["--mu-prime", draw(_value())]
    elif draw(st.booleans()):
        flags += ["--mu", draw(_value())]
    if draw(st.booleans()):
        flags.append("--no-verify")
    return text, flags


def _graph_text(beta, gamma, fields, edges) -> str:
    vertices = ", ".join(f'{{"id": "{v}", "field": {f}}}' for v, f in fields)
    return (f'{{"beta": {beta}, "gamma": {gamma}, "vertices": [{vertices}], '
            f'"edges": {json.dumps(edges)}, "output": null}}')


# sqrt(beta*gamma) = sqrt(1e400), the Ising output's a, is inf
_HUGE_ONE = _graph_text("1e200", "1e200", [("a", 1)], [])
_HUGE_TRIANGLE = _graph_text("1e200", "1e200", [(v, 1) for v in "abc"],
                             [["a", "b"], ["b", "c"], ["c", "a"]])


@FUZZ
@given(case=reduce_cases())
# b's field, edge_ratio(1e200) = (1e400 + 1)/(1e200 + 1), overflows; the scale is finite
@example(case=(_graph_text("1e200", "1", [("a", "1e200"), ("b", 1)], [["a", "b"]]),
               ["--kind", "contract", "--no-verify"]))
@example(case=(_HUGE_ONE, ["--kind", "pipeline", "--mu", "1"]))
@example(case=(_HUGE_ONE, ["--kind", "ising", "--mu", "1"]))
@example(case=(_HUGE_TRIANGLE, ["--kind", "ising", "--no-verify", "--mu", "1"]))
def test_fuzzed_float_reduce_exits_with_a_documented_code(tmp_path, case):
    text, flags = case
    path = tmp_path / "g.json"
    path.write_text(text)
    argv = ["reduce", *flags, "--input", str(path)]
    code, out = _check_run(argv)
    if code in (0, 4):
        _assert_finite_output(argv, out)
