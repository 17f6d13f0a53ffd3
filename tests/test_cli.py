"""CLI subcommands: outputs, exit codes, determinism."""

import gc
import json
import math
import os
import random
import re
import stat
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twospin
from gadget_helpers import gadget_from_json
from twospin import (FieldedGraph, NumericError, RecursionParams, SpinParams, core,
                     decay_constants, effective_field, gadget_field, graph_from_json,
                     is_exact, partition_function, solve_mu_star)
from twospin.cli import COMMANDS, _read_argv, build_parser, finite_float, main
from twospin.gadgets import DEPTH_LIMIT
from twospin.serialize import exact_str

K2_DOC = {"beta": 1, "gamma": 2,
          "vertices": [{"id": "u", "field": 2}, {"id": "v", "field": 2}],
          "edges": [["u", "v"]], "output": None}

PATH_DOC = {"beta": 1, "gamma": 2,
            "vertices": [{"id": "u", "field": 2}, {"id": "v", "field": 2},
                         {"id": "w", "field": 2}],
            "edges": [["u", "v"], ["v", "w"]], "output": None}


def write_doc(tmp_path, doc, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_eval_k2(tmp_path, capsys):
    path = write_doc(tmp_path, K2_DOC)
    code, out = run(capsys, ["eval", "--input", path])
    assert code == 0
    doc = json.loads(out)
    assert doc["Z"] == 10.0
    assert doc["schema"] == 1


def test_eval_rational_mode(tmp_path, capsys):
    path = write_doc(tmp_path, K2_DOC)
    code, out = run(capsys, ["eval", "--input", path, "--mode", "rational"])
    assert code == 0
    assert json.loads(out)["Z_exact"] == "10"


def test_eval_path_and_single_vertex(tmp_path, capsys):
    path = write_doc(tmp_path, PATH_DOC)
    _, out = run(capsys, ["eval", "--input", path])
    assert json.loads(out)["Z"] == pytest.approx(34.0)
    single = write_doc(tmp_path, {"beta": 1, "gamma": 2,
                                  "vertices": [{"id": "v", "field": 7}],
                                  "edges": [], "output": None}, name="one.json")
    _, out = run(capsys, ["eval", "--input", single])
    assert json.loads(out)["Z"] == pytest.approx(8.0)


def test_eval_reports_effective_field(tmp_path, capsys):
    doc = dict(K2_DOC, output="u")
    path = write_doc(tmp_path, doc)
    code, out = run(capsys, ["eval", "--input", path])
    assert code == 0
    # Z(u=0) = 2*2 + 2 = 6, Z(u=1) = 2 + 2 = 4
    assert json.loads(out)["effective_field"] == pytest.approx(1.5)


@pytest.mark.parametrize("mode", ["float", "rational"])
@pytest.mark.parametrize("output", [None, "v"])
def test_eval_is_one_elimination(tmp_path, capsys, monkeypatch, mode, output):
    # Z and the field of a graph with an output come from the one pass that
    # keeps the output: Z = Z(output=0) + Z(output=1)
    doc = dict(PATH_DOC, vertices=[{"id": "u", "field": 2}, {"id": "v", "field": 3},
                                   {"id": "w", "field": 5}], output=output)
    path = write_doc(tmp_path, doc)
    calls = []
    eliminate = core._eliminate

    def spy(factors, n, keep, *rest):
        calls.append(keep)
        return eliminate(factors, n, keep, *rest)

    monkeypatch.setattr(core, "_eliminate", spy)
    code, out = run(capsys, ["eval", "--input", path, "--mode", mode])
    assert code == 0
    assert calls == [(1,) if output else ()]
    got = json.loads(out)
    # Z(v=0) = 3 * (2 + 1) * (5 + 1) = 54, Z(v=1) = (2 + 2) * (5 + 2) = 28
    assert got["Z"] == pytest.approx(82.0, rel=1e-12)
    if mode == "rational":
        assert got["Z_exact"] == "82"
    if output:
        assert got["effective_field"] == pytest.approx(54 / 28, rel=1e-12)
        if mode == "rational":
            assert got["effective_field_exact"] == "27/14"


def test_eval_capacity_exit_code(tmp_path, capsys):
    # K12 has width 11, so its buckets span 12 vertices, above --enum-limit 8
    ids = [f"v{i}" for i in range(12)]
    doc = {"beta": 1, "gamma": 2, "vertices": [{"id": v, "field": 1} for v in ids],
           "edges": [[u, v] for i, u in enumerate(ids) for v in ids[:i]], "output": None}
    path = write_doc(tmp_path, doc)
    assert main(["eval", "--input", path, "--enum-limit", "8"]) == 3
    assert capsys.readouterr().err == ("capacity error: elimination width 11 needs buckets "
                                       "of 12 vertices, enumeration limit is 8\n")
    # 30 isolated vertices have width 0 and evaluate at the default limit
    isolated = write_doc(tmp_path, dict(doc, edges=[], vertices=[
        {"id": f"v{i}", "field": 1} for i in range(30)]), name="isolated.json")
    code, out = run(capsys, ["eval", "--input", isolated])
    assert code == 0
    assert json.loads(out)["Z"] == pytest.approx(2.0 ** 30, rel=1e-12)


def test_eval_domain_exit_code(tmp_path, capsys):
    doc = dict(K2_DOC, vertices=[{"id": "u", "field": -1}, {"id": "v", "field": 2}])
    path = write_doc(tmp_path, doc)
    assert run(capsys, ["eval", "--input", path])[0] == 2


def test_eval_float_overflow_is_a_numeric_error(tmp_path, capsys):
    # log Z = 20*ln(1e40 + 1) = 1842.07 > 709.78, beyond a float Z
    doc = {"beta": 1, "gamma": 1,
           "vertices": [{"id": f"v{i}", "field": 1e40} for i in range(20)],
           "edges": [], "output": None}
    path = write_doc(tmp_path, doc)
    code = main(["eval", "--input", path])
    captured = capsys.readouterr()
    graph, params = graph_from_json(doc, float)
    (log_z,) = core._log_partition_float(graph, params, ())
    assert log_z == pytest.approx(20 * math.log(1e40 + 1), rel=1e-12)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numeric error: Z = exp({log_z!r}) overflows a float\n"

    # rational mode: an exact value is finite, its float is not
    k2 = dict(K2_DOC, vertices=[{"id": "u", "field": 1e200}, {"id": "v", "field": 1e200}])
    path3 = dict(PATH_DOC, vertices=[{"id": v, "field": 1e300} for v in "uvw"])
    for doc, argv, quantity in [
            (k2, ["eval"], "Z"),
            (path3, ["reduce", "--kind", "contract"], "scale"),
            (K2_DOC, ["reduce", "--kind", "bipartite", "--mu-prime", "1e400", "--no-verify"],
             "a vertex field")]:
        path = write_doc(tmp_path, doc)
        proc = subprocess.run([sys.executable, "-m", "twospin", *argv, "--input", path,
                               "--mode", "rational"],
                              capture_output=True, text=True, env=_subprocess_env())
        assert proc.returncode == 2, argv
        assert proc.stdout == ""
        assert proc.stderr == f"numeric error: {quantity} overflows a float\n"
        assert "Traceback" not in proc.stderr


def test_fixpoint(capsys):
    code, out = run(capsys, ["fixpoint", "--beta", "1", "--gamma", "2",
                             "--mu", "20", "--d", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_star"] == pytest.approx(19.0498756211, abs=1e-9)
    assert doc["bracket"] == {"lower": 10.0, "ok": True, "upper": 20.0}
    assert doc["alpha"] == pytest.approx(0.171572875254, abs=1e-11)


def test_fixpoint_constants_follow_its_tol(capsys):
    # mu_star and the decay constants come from one iteration run to --tol,
    # so eta is mu_star halved j times
    code, out = run(capsys, ["fixpoint", "--beta", "1", "--gamma", "2",
                             "--mu", "20", "--d", "1", "--tol", "1e-3"])
    assert code == 0
    doc = json.loads(out)
    ratio = doc["mu_star"] / doc["eta"]  # both printed to 12 digits
    assert ratio == pytest.approx(2 ** round(math.log2(ratio)), rel=1e-11)
    rp = RecursionParams(SpinParams(1, 2, 20), 1)
    consts = decay_constants(rp, rel_tol=1e-3)
    assert consts.mu_star == solve_mu_star(rp, rel_tol=1e-3)
    assert math.frexp(consts.mu_star / consts.eta)[0] == 0.5


def test_fixpoint_rejects_non_ferromagnetic(capsys):
    code, _ = run(capsys, ["fixpoint", "--beta", "0.5", "--gamma", "1",
                           "--mu", "2", "--d", "1"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "fixpoint --beta 1 --gamma 2 --mu {x} --d 1",
    "fixpoint --beta 1 --gamma 2 --mu 20 --d 1 --tol {x}",
    "construct --beta 1 --gamma 2 --mu 20 --d 1 --ell 2 --target {x}",
    "thresholds --beta {x} --gamma 2",
    "sweep --kind star --beta 1 --gamma 2 --mu {x} --w-max 2",
    "sweep --kind uniqueness --beta-max {x}",
])
@pytest.mark.parametrize("value", ["inf", "nan", "abc"])
def test_float_flags_refuse_non_finite_values(capsys, argv, value):
    with pytest.raises(SystemExit) as exc:
        main(argv.format(x=value).split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid finite_float value: '{value}'" in captured.err


@pytest.mark.parametrize("argv, quantity", [
    ("thresholds --beta 0.5 --gamma 2.0001", "mu_bound_local_fields"),
    ("thresholds --beta 1e-300 --gamma 1.0001e300", "mu_bound_local_fields"),
    ("thresholds --beta 1 --gamma 2 --d 2000", "mu_bound_uniform"),
    ("thresholds --beta 1 --gamma 1.0000000000000002", "Delta"),
    ("sweep --kind uniqueness --beta-min 1e-200 --beta-max 2e-200 --steps 1",
     "the uniqueness threshold mu_c"),
    ("fixpoint --beta 1 --gamma 2 --mu 20 --d 100000", "gamma**d"),
    ("construct --beta 1 --gamma 2 --mu 20 --d 2000 --ell 1 --target 5", "gamma**d"),
    # (gamma - 1)/(beta - 1) = 1e308/2.2e-16
    ("thresholds --beta 1.0000000000000002 --gamma 1e308", "mu_bound_uniform_large_beta"),
    # gamma**d * (beta*gamma - 1)/beta = 1e300 * 1e290 / 1e-10
    ("construct --beta 1e-10 --gamma 1e300 --mu 1e300 --d 1 --ell 1 --target 5",
     "the construction's field bound"),
])
def test_threshold_overflow_is_a_numeric_error(capsys, argv, quantity):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numeric error: {quantity} overflows a float\n"


def test_construct_with_artifacts(tmp_path, capsys):
    gadget_path = str(tmp_path / "gadget.json")
    graph_path = str(tmp_path / "graph.json")
    code, out = run(capsys, ["construct", "--beta", "1", "--gamma", "2",
                             "--mu", "20", "--d", "1", "--ell", "2",
                             "--target", "12", "--emit-gadget", gadget_path,
                             "--materialize", graph_path])
    assert code == 0
    doc = json.loads(out)
    assert doc["within_bound"] is True
    assert abs(doc["log_error"]) <= doc["bound"]
    params = SpinParams(1.0, 2.0, 20.0)
    tree = gadget_from_json(json.load(open(gadget_path)))
    assert gadget_field(tree, params) == pytest.approx(doc["achieved"], rel=1e-9)
    graph, _ = graph_from_json(json.load(open(graph_path)), float)
    assert graph.n == doc["size"]
    assert graph.output is not None


def test_construct_materialized_star_matches_enumeration(tmp_path, capsys):
    # ell=0 emits a star small enough for the exhaustive evaluator
    graph_path = str(tmp_path / "star.json")
    code, out = run(capsys, ["construct", "--beta", "1", "--gamma", "2",
                             "--mu", "20", "--d", "1", "--ell", "0",
                             "--target", "12", "--materialize", graph_path])
    assert code == 0
    doc = json.loads(out)
    graph, _ = graph_from_json(json.load(open(graph_path)), float)
    params = SpinParams(1.0, 2.0, 20.0)
    assert effective_field(graph, params) == pytest.approx(doc["achieved"], rel=1e-9)


def test_construct_target_out_of_range(capsys):
    code, _ = run(capsys, ["construct", "--beta", "1", "--gamma", "2",
                           "--mu", "20", "--d", "1", "--ell", "1",
                           "--target", "25"])
    assert code == 2


DEEP_POINT = ["--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1"]


@pytest.mark.parametrize("argv", [
    ["construct", *DEEP_POINT, "--target", "10", "--ell"],
    ["construct", *DEEP_POINT, "--target", "10", "--emit-gadget", "{dir}/g.json", "--ell"],
    ["construct", *DEEP_POINT, "--target", "10", "--materialize", "{dir}/m.json", "--ell"],
    ["sweep", "--kind", "construct-error", *DEEP_POINT, "--targets", "1", "--ell-max"],
], ids=["construct", "emit-gadget", "materialize", "sweep"])
def test_depth_cap(tmp_path, capsys, argv):
    # every gadget walker recurses once per level and the JSON writer twice:
    # at the cap they fit the default recursion limit, beside pytest's frames
    argv = [arg.format(dir=tmp_path) for arg in argv]
    assert main([*argv, str(DEPTH_LIMIT)]) in (0, 4)
    capsys.readouterr()
    assert main([*argv, str(DEPTH_LIMIT + 1)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"capacity error: depth ell={DEPTH_LIMIT + 1} "
                            f"exceeds the limit {DEPTH_LIMIT}\n")


def test_thresholds(capsys):
    code, out = run(capsys, ["thresholds", "--beta", "1", "--gamma", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["Delta"] == 6 and doc["d"] == 1
    assert doc["mu_bound_local_fields"] == 8.0
    assert doc["mu_bound_uniform"] == 16.0
    assert "16" in doc["note"] and "12" in doc["note"]
    code, out = run(capsys, ["thresholds", "--beta", "2", "--gamma", "3"])
    assert json.loads(out)["mu_bound_uniform_large_beta"] == 2.0


def test_reduce_pipeline(tmp_path, capsys):
    path = write_doc(tmp_path, PATH_DOC)
    code, out = run(capsys, ["reduce", "--kind", "pipeline", "--input", path,
                             "--mu", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["relation"] == "input = scale * output"
    assert doc["scale"] == pytest.approx(34.0)


def test_reduce_contract_rational(tmp_path, capsys):
    path = write_doc(tmp_path, PATH_DOC)
    code, out = run(capsys, ["reduce", "--kind", "contract", "--input", path,
                             "--mu", "2", "--mode", "rational"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["scale_exact"] == "16"


def test_reduce_bipartite(tmp_path, capsys):
    path = write_doc(tmp_path, dict(K2_DOC, vertices=[
        {"id": "u", "field": 1}, {"id": "v", "field": 1}]))
    code, out = run(capsys, ["reduce", "--kind", "bipartite", "--input", path,
                             "--mu-prime", "1.1", "--beta", "1", "--gamma", "2",
                             "--left", "u"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] is True
    assert doc["scale"] == pytest.approx(2 / 1.1)


def test_reduce_selfloop(capsys):
    code, out = run(capsys, ["reduce", "--kind", "selfloop", "--beta", "2",
                             "--gamma", "3", "--mu", "3", "--target", "5",
                             "--m", "100"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["x"], doc["y"]) == (1, 6)
    assert doc["verified"] is True
    assert abs(doc["log_error"]) <= doc["tolerance"]


def test_reduce_selfloop_verifies_large_m(capsys):
    # 99 vertices: the verification evaluates the peeled one-vertex core
    code, out = run(capsys, ["reduce", "--kind", "selfloop", "--beta", "2",
                             "--gamma", "3", "--mu", "3", "--target", "5",
                             "--m", "1000"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["x"], doc["y"]) == (36, 98)
    assert doc["verified"] is True


@pytest.mark.parametrize("flags, code, label", [
    ("--gamma 4 --mu 1e9 --m 1000", 3, "capacity error"),  # y is about 1.1e8
    ("--gamma 3 --mu 1e300 --m 300", 2, "numeric error"),  # 1e300 * 2**54 overflows
    ("--gamma 3 --mu 1e300 --m 1000", 2, "numeric error"),  # (2/3)**1845 underflows
    ("--gamma 3 --mu 1e300 --m 1000 --no-verify", 2, "numeric error"),
], ids=["too-many-bristles", "peeled-field-overflow", "achieved-underflow",
        "achieved-underflow-no-verify"])
def test_reduce_selfloop_refusals(flags, code, label):
    argv = ["reduce", "--kind", "selfloop", "--beta", "2", "--target", "5", *flags.split()]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == code
    assert proc.stderr.startswith(f"{label}: ")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""


def test_reduce_selfloop_target_underflow_is_a_numeric_error():
    # target/mu = 5e-324/3 rounds to 0.0, whose log the search would need
    argv = ["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "3",
            "--target", "5e-324", "--m", "10"]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2
    assert proc.stderr == "numeric error: target/mu = 5e-324/3.0 underflows a float\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("mode", ["float", "rational"])
def test_reduce_pipeline_beta_zero_empty_core(tmp_path, mode):
    # K2 peels to nothing, so no Ising core is built and a = sqrt(0 * 3) = 0
    path = write_doc(tmp_path, dict(K2_DOC, beta=0, gamma=3))
    argv = ["reduce", "--kind", "pipeline", "--input", path, "--beta", "0",
            "--gamma", "3", "--mu", "2", "--mode", mode]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    assert (proc.returncode, proc.stderr) == (0, "")
    doc = json.loads(proc.stdout)
    assert doc["verified"] is True
    assert doc["output"]["vertices"] == [] and doc["output"]["beta"] == 0.0
    assert doc["scale"] == 7.0  # (2 + 3) * (2/5 + 1)


def test_one_number_policy(tmp_path, capsys):
    """exact.is_exact alone picks exact or float arithmetic.

    The CLI reads every number of a graph file in --mode's type, so integer
    JSON is float in float mode whether or not --mu is given, and exact in
    rational mode; the library takes all-int inputs as exact and a
    Fraction/float mix as float.
    """
    k3 = write_doc(tmp_path, {"beta": 1, "gamma": 2,
                              "vertices": [{"id": v, "field": 1} for v in "abc"],
                              "edges": [["a", "b"], ["b", "c"], ["c", "a"]],
                              "output": None})
    for flags in ([], ["--mu", "1"]):
        code, out = run(capsys, ["reduce", "--kind", "ising", "--input", k3, *flags])
        assert (code, json.loads(out)["scale_exact"]) == (0, None), flags
    code, out = run(capsys, ["reduce", "--kind", "ising", "--input", k3, "--mode", "rational"])
    assert (code, json.loads(out)["scale_exact"]) == (0, "2*sqrt(2)")
    code, out = run(capsys, ["eval", "--input", k3, "--mode", "rational"])
    assert (code, json.loads(out)["Z_exact"]) == (0, "18")

    z = partition_function(FieldedGraph({"u": 1, "v": 1}, [("u", "v")]), SpinParams(1, 2, 1))
    assert z == 5 and is_exact(z)
    # 20 * ln(1e40 + 1) > 709.78: the float path reports Z leaving the float range
    isolated = FieldedGraph({f"v{i}": 1e40 for i in range(20)}, [])
    with pytest.raises(NumericError, match="overflows a float"):
        partition_function(isolated, SpinParams(Fraction(1), Fraction(1), 1))


def test_reduce_missing_flags_domain_error(tmp_path, capsys):
    assert run(capsys, ["reduce", "--kind", "pipeline"])[0] == 2
    path = write_doc(tmp_path, PATH_DOC)
    assert main(["reduce", "--kind", "bipartite", "--input", path]) == 2
    assert capsys.readouterr().err == "domain error: --kind bipartite needs --mu-prime\n"


def test_reduce_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    import twospin.cli as cli_mod

    def stamp_false(cert, **kwargs):
        return cert._replace(verified=False)

    monkeypatch.setattr(cli_mod.red, "verify_reduction", stamp_false)
    path = write_doc(tmp_path, PATH_DOC)
    code, out = run(capsys, ["reduce", "--kind", "pipeline", "--input", path,
                             "--mu", "2"])
    assert code == 4


def test_sweep_star_csv(capsys):
    code, out = run(capsys, ["sweep", "--kind", "star", "--beta", "0.8",
                             "--gamma", "2", "--mu", "20", "--w-max", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,field,beta_power_bound"
    fields = [float(line.split(",")[1]) for line in lines[1:]]
    assert fields == sorted(fields, reverse=True)


def test_sweep_tree_csv(capsys):
    code, out = run(capsys, ["sweep", "--kind", "tree", "--beta", "1",
                             "--gamma", "2", "--mu", "20", "--d", "1",
                             "--t-max", "6"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,field,mu_star,ratio,ratio_bound"
    ratios = [float(line.split(",")[3]) for line in lines[1:]]
    bounds = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(r <= b for r, b in zip(ratios, bounds))
    fields = [float(line.split(",")[1]) for line in lines[1:]]
    assert fields == sorted(fields, reverse=True)


def test_sweep_refuses_a_deep_ell_max_before_any_row(capsys, monkeypatch):
    import twospin.cli as cli_mod

    calls = []
    monkeypatch.setattr(cli_mod, "certify_construct", lambda *a: calls.append(a))
    code = main(["sweep", "--kind", "construct-error", *DEEP_POINT,
                 "--ell-max", str(DEPTH_LIMIT + 1)])
    captured = capsys.readouterr()
    assert code == 3 and calls == [] and captured.out == ""
    assert captured.err == (f"capacity error: depth ell={DEPTH_LIMIT + 1} "
                            f"exceeds the limit {DEPTH_LIMIT}\n")


def test_sweep_construct_error_csv(capsys):
    code, out = run(capsys, ["sweep", "--kind", "construct-error", "--beta", "1",
                             "--gamma", "2", "--mu", "20", "--d", "1",
                             "--ell-max", "2", "--targets", "5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "ell,target,achieved,log_error,bound,size"
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[3])) <= float(cells[4])


def test_sweep_uniqueness_csv(capsys):
    code, out = run(capsys, ["sweep", "--kind", "uniqueness", "--delta-reg", "4",
                             "--beta-min", "0.1", "--beta-max", "0.3",
                             "--steps", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "beta,mu_c"
    assert all(float(line.split(",")[1]) > 1 for line in lines[1:])


def test_output_flag_writes_identical_file(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out = run(capsys, ["thresholds", "--beta", "1", "--gamma", "2",
                             "--output", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out


def test_rewrites_in_place_leave_no_stale_tail(tmp_path, capsys):
    # a long CSV, a short JSON over it, then the long CSV again: each time the
    # file holds exactly what the command printed
    out_path = str(tmp_path / "out")
    long_argv = ["sweep", "--kind", "star", "--beta", "1", "--gamma", "2", "--mu", "20",
                 "--w-max", "200", "--output", out_path]
    short_argv = ["thresholds", "--beta", "1", "--gamma", "2", "--output", out_path]
    sizes = []
    for argv in (long_argv, short_argv, long_argv):
        code, out = run(capsys, argv)
        assert code == 0
        assert Path(out_path).read_bytes() == out.encode()
        sizes.append(len(out))
    assert sizes[0] > sizes[1]


def test_output_file_mode_and_inode(tmp_path, capsys):
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("x" * 10_000)
    old.chmod(0o600)
    before = old.stat()
    argv = ["thresholds", "--beta", "1", "--gamma", "2", "--output"]
    umask = os.umask(0o002)
    try:
        assert run(capsys, [*argv, str(new)])[0] == 0
        assert run(capsys, [*argv, str(old)])[0] == 0
    finally:
        os.umask(umask)
    assert stat.S_IMODE(new.stat().st_mode) == 0o664  # 0o666 & ~umask, as open(path, "w")
    after = old.stat()  # rewritten in place, not replaced
    assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)
    assert old.read_text() == new.read_text()


def test_output_to_dev_null_a_fifo_and_a_directory(tmp_path, capsys):
    # /dev/null and a FIFO are written and never cut (ftruncate would fail)
    argv = ["thresholds", "--beta", "1", "--gamma", "2"]
    code, out = run(capsys, argv)
    assert run(capsys, [*argv, "--output", os.devnull]) == (code, out) == (0, out)
    fifo, read = tmp_path / "fifo", []
    os.mkfifo(fifo)
    reader = threading.Thread(target=lambda: read.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(capsys, [*argv, "--output", str(fifo)]) == (0, out)
    reader.join(timeout=10)
    assert read == [out]
    assert main([*argv, "--output", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"domain error: cannot write {tmp_path}: Is a directory\n"


def test_written_files_are_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    real_open, calls = os.open, []

    def spy(path, flags, *args, **kwargs):
        calls.append((str(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    paths = [str(tmp_path / name) for name in ("g.json", "m.json", "out.json")]
    argv = ["construct", "--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1", "--ell", "2",
            "--target", "10", "--emit-gadget", paths[0], "--materialize", paths[1],
            "--output", paths[2]]
    for _ in range(2):  # files created, then rewritten
        assert run(capsys, argv)[0] == 0
    assert [path for path, _ in calls] == paths * 2
    assert all(flags & os.O_TRUNC == 0 and flags & os.O_CREAT for _, flags in calls)


GOLDEN_EVAL_RATIONAL = """\
{
  "Z": 10.0,
  "Z_exact": "10",
  "command": "eval",
  "effective_field": 1.5,
  "effective_field_exact": "3/2",
  "mode": "rational",
  "n_edges": 1,
  "n_vertices": 2,
  "schema": 1
}
"""

GOLDEN_REDUCE_CONTRACT = """\
{
  "input": {
    "beta": 1.0,
    "edges": [
      [
        "u",
        "v"
      ],
      [
        "v",
        "w"
      ],
      [
        "w",
        "x"
      ]
    ],
    "gamma": 2.0,
    "mu": 2.0,
    "output": null,
    "vertices": [
      {
        "field": 2.0,
        "id": "u"
      },
      {
        "field": 2.0,
        "id": "v"
      },
      {
        "field": 2.0,
        "id": "w"
      },
      {
        "field": 2.0,
        "id": "x"
      }
    ]
  },
  "kind": "contract",
  "output": {
    "beta": 1.0,
    "edges": [],
    "gamma": 2.0,
    "mu": 2.0,
    "output": null,
    "vertices": [
      {
        "field": 1.07142857143,
        "id": "w"
      }
    ]
  },
  "relation": "input = scale * output",
  "scale": 56.0,
  "scale_exact": null,
  "schema": 1,
  "verified": true
}
"""

GOLDEN_FIXPOINT = """\
{
  "alpha": 0.171572875254,
  "bracket": {
    "lower": 10.0,
    "ok": true,
    "upper": 20.0
  },
  "c": 0.522568408384,
  "command": "fixpoint",
  "eta": 9.52493781056,
  "iota": 9.52493781056,
  "mu_star": 19.0498756211,
  "schema": 1,
  "t0": 0
}
"""

GOLDEN_THRESHOLDS = """\
{
  "Delta": 6,
  "command": "thresholds",
  "d": 1,
  "mu_bound_local_fields": 8.0,
  "mu_bound_uniform": 16.0,
  "mu_bound_uniform_large_beta": null,
  "note": "mu_bound_uniform evaluates gamma**d * max((gamma/beta)**(Delta/2), ((beta*gamma-1)/beta)*(1+(d+1)/ln(beta*(beta*gamma)**d))) literally; for (beta, gamma) = (1, 2) this gives 16, not the sometimes-quoted 12.",
  "schema": 1
}
"""

GOLDEN_CONSTRUCT = """\
{
  "achieved": 7.60142470551,
  "bound": 0.247026844494,
  "command": "construct",
  "ell": 1,
  "log_error": 0.0134326704323,
  "schema": 1,
  "size": 525,
  "target": 7.5,
  "trace": [
    {
      "branches": [
        {
          "gadget": {
            "d": 2,
            "kind": "tree",
            "t": 8
          },
          "i": 1,
          "y": 14.5017346634
        }
      ],
      "delta": 9.13657274694e-16,
      "ell": 1,
      "k": 4,
      "mu_hat_prime": 5.38092050132,
      "mu_values": [
        13.4814803447,
        15.8322487016
      ],
      "terminal": "recurse",
      "terminal_w": null
    },
    {
      "branches": [],
      "delta": null,
      "ell": 0,
      "k": 8,
      "mu_hat_prime": null,
      "mu_values": [],
      "terminal": "base-star",
      "terminal_w": 8
    }
  ],
  "within_bound": true
}
"""

GOLDEN_REDUCE_SELFLOOP = """\
{
  "achieved": 5.04325274348,
  "command": "reduce",
  "gadget": {
    "beta": 2.0,
    "edges": [
      [
        "v0",
        "v0"
      ],
      [
        "v0",
        "b0"
      ],
      [
        "v0",
        "b1"
      ],
      [
        "v0",
        "b2"
      ],
      [
        "v0",
        "b3"
      ],
      [
        "v0",
        "b4"
      ],
      [
        "v0",
        "b5"
      ]
    ],
    "gamma": 3.0,
    "mu": 3.0,
    "output": "v0",
    "vertices": [
      {
        "field": 3.0,
        "id": "v0"
      },
      {
        "field": 3.0,
        "id": "b0"
      },
      {
        "field": 3.0,
        "id": "b1"
      },
      {
        "field": 3.0,
        "id": "b2"
      },
      {
        "field": 3.0,
        "id": "b3"
      },
      {
        "field": 3.0,
        "id": "b4"
      },
      {
        "field": 3.0,
        "id": "b5"
      }
    ]
  },
  "kind": "selfloop",
  "log_error": 0.0086133470894,
  "m": 100,
  "schema": 1,
  "target": 5.0,
  "tolerance": 0.01,
  "verified": true,
  "x": 1,
  "y": 6
}
"""

GOLDEN_SWEEP_STAR = """\
w,field,beta_power_bound
0,20,20
1,19.0909090909,20
2,18.2231404959,20
3,17.3948159279,20
"""


def test_golden_bytes(tmp_path, capsys):
    """Literal stdout: indentation, key order, separators, rounding, newline."""
    k2 = write_doc(tmp_path, dict(K2_DOC, output="u"), name="k2.json")
    assert run(capsys, ["eval", "--input", k2, "--mode", "rational"]) == (
        0, GOLDEN_EVAL_RATIONAL)
    path4 = write_doc(tmp_path, {
        "beta": 1, "gamma": 2,
        "vertices": [{"id": v, "field": 2} for v in "uvwx"],
        "edges": [["u", "v"], ["v", "w"], ["w", "x"]], "output": None}, name="p4.json")
    assert run(capsys, ["reduce", "--kind", "contract", "--input", path4,
                        "--mu", "2"]) == (0, GOLDEN_REDUCE_CONTRACT)
    for argv, golden in [
            ("fixpoint --beta 1 --gamma 2 --mu 20 --d 1", GOLDEN_FIXPOINT),
            ("thresholds --beta 1 --gamma 2", GOLDEN_THRESHOLDS),
            ("construct --beta 0.9 --gamma 2 --mu 20 --d 2 --ell 1 --target 7.5",
             GOLDEN_CONSTRUCT),
            ("reduce --kind selfloop --beta 2 --gamma 3 --mu 3 --target 5 --m 100",
             GOLDEN_REDUCE_SELFLOOP),
            ("sweep --kind star --beta 1 --gamma 2 --mu 20 --w-max 3", GOLDEN_SWEEP_STAR)]:
        assert run(capsys, argv.split()) == (0, golden), argv


def _subprocess_env():
    """Environment whose python imports the same package as this process."""
    src = os.path.dirname(os.path.dirname(twospin.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_eval_rational_beyond_the_int_digit_limit(tmp_path, capsys):
    # Z = (1 + 0.0001234567)**500 = 10001234567**500 / 10**5000: 5,001 digits
    # each side, beyond the 4,300 that Python writes of an int by default
    doc = {"beta": 1, "gamma": 1,
           "vertices": [{"id": f"v{i}", "field": 0.0001234567} for i in range(500)],
           "edges": [], "output": None}
    path = write_doc(tmp_path, doc)
    argv = ["eval", "--input", path, "--mode", "rational"]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode in (0, 2)
    assert "Traceback" not in proc.stderr

    limit = sys.get_int_max_str_digits()
    code, out = run(capsys, argv)
    assert sys.get_int_max_str_digits() == limit
    assert code == 0
    numerator, denominator = json.loads(out)["Z_exact"].split("/")
    assert denominator == "1" + "0" * 5000
    assert len(numerator) == 5001
    assert int(numerator[-18:]) == pow(10001234567, 500, 10 ** 18)


def test_import_loads_no_dataclasses_inspect_csv_or_numpy():
    # records are NamedTuples and CSV is joined by hand, so neither dataclasses
    # (which imports inspect) nor csv is loaded; numpy waits for the first
    # elimination
    code = ("import sys, twospin.cli; "
            "print(sorted({'dataclasses', 'inspect', 'csv', 'numpy'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=_subprocess_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


@pytest.mark.parametrize("argv", [
    ["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "3", "--m", "100"],
    ["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "3",
     "--target", "5"],
    ["reduce", "--kind", "selfloop", "--gamma", "3", "--mu", "3", "--target", "5",
     "--m", "100"],
    ["eval", "--input", "{k2}", "--beta", "abc"],
    ["reduce", "--kind", "pipeline", "--input", "{k2}", "--mu", "abc"],
    ["eval", "--input", "{missing}"],
    ["reduce", "--kind", "contract", "--input", "{malformed}"],
    ["sweep", "--kind", "tree", "--beta", "1", "--gamma", "2"],
    ["reduce", "--kind", "ising", "--input", "{k2}", "--beta", "0", "--mu", "2"],
    ["eval", "--input", "{triple}"],
    ["eval", "--input", "{single}"],
    ["eval", "--input", "{infinite}"],
    ["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "3",
     "--target", "inf", "--m", "10"],
    ["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "inf",
     "--target", "5", "--m", "10"],
    ["sweep", "--kind", "star", "--beta", "1", "--gamma", "2", "--mu", "20", "--w-max", "-1"],
    ["sweep", "--kind", "tree", "--beta", "1", "--gamma", "2", "--mu", "20", "--t-max", "-3"],
    ["sweep", "--kind", "construct-error", "--beta", "1", "--gamma", "2", "--mu", "20",
     "--targets", "-1"],
    ["sweep", "--kind", "construct-error", "--beta", "1", "--gamma", "2", "--mu", "20",
     "--ell-max", "-1"],
    ["sweep", "--kind", "uniqueness", "--steps", "-1"],
    ["eval", "--input", "{unhashable}"],
    ["eval", "--input", "{k2}", "--output", "{unwritable}"],
    ["construct", "--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1", "--ell", "1",
     "--target", "12", "--emit-gadget", "{unwritable}"],
    ["construct", "--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1", "--ell", "1",
     "--target", "12", "--materialize", "{unwritable}"],
    ["fixpoint", "--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1", "--tol", "-1"],
    ["thresholds", "--beta", "2.206216874300683e+77", "--gamma", "1e308"],
    ["sweep", "--kind", "star", "--beta", "3", "--gamma", "4", "--mu", "1e300",
     "--w-max", "1000"],
    ["sweep", "--kind", "star", "--beta", "3", "--gamma", "4", "--mu", "1e300",
     "--w-max", "100"],
    ["sweep", "--kind", "tree", "--beta", "0.5", "--gamma", "1e300", "--mu", "1e300",
     "--d", "1", "--t-max", "0"],
    # b(1 - beta) = 1 + beta up to float drift, which left the discriminant below 0
    ["sweep", "--kind", "uniqueness", "--beta-min", "0.3333333333333333",
     "--beta-max", "0.3333333333333333", "--steps", "1", "--delta-reg", "3"],
    # the residual target leaves (0, mu_star] by 3.7e-5 relative: a failed invariant
    ["construct", "--beta", "0.9", "--gamma", "1000.0", "--mu", "1220873586480681.8",
     "--d", "2", "--ell", "2", "--target", "988907605047354.5"],
    ["thresholds", "--beta", "1.5", "--gamma", "2", "--d", "-5"],
    ["thresholds", "--beta", "1", "--gamma", "2", "--d", "0"],
    # field * ratio leaves the normal range at w = 15293 and would stick there
    ["sweep", "--kind", "star", "--beta", "1", "--gamma", "2", "--mu", "20",
     "--w-max", "20000"],
], ids=["selfloop-no-target", "selfloop-no-m", "selfloop-no-beta", "eval-beta-abc",
        "reduce-mu-abc", "missing-input", "malformed-input", "sweep-no-mu",
        "ising-beta-0",
        "edge-of-three", "edge-of-one", "float-file-beta-infinity", "selfloop-target-inf",
        "selfloop-mu-inf", "sweep-w-max-negative", "sweep-t-max-negative",
        "sweep-targets-negative", "sweep-ell-max-negative", "sweep-steps-negative",
        "unhashable-id", "output-unwritable", "emit-gadget-unwritable",
        "materialize-unwritable", "fixpoint-tol-negative", "thresholds-delta-nan",
        "sweep-star-w-max-1000", "sweep-star-w-max-100", "sweep-tree-bound",
        "sweep-uniqueness-sliver", "construct-invariant-violation",
        "thresholds-d-negative", "thresholds-d-zero", "sweep-star-underflow"])
def test_input_errors_exit_2_without_traceback(tmp_path, request, argv):
    files = {"k2": write_doc(tmp_path, K2_DOC, name="k2.json"),
             "missing": str(tmp_path / "absent.json"),
             "malformed": str(tmp_path / "bad.json"),
             "triple": write_doc(tmp_path, dict(K2_DOC, edges=[["u", "u", "u"]]), "3.json"),
             "single": write_doc(tmp_path, dict(K2_DOC, edges=[["u"]]), "1.json"),
             "infinite": write_doc(tmp_path, dict(K2_DOC, beta=math.inf), "inf.json"),
             "unhashable": write_doc(tmp_path, dict(K2_DOC, vertices=[
                 {"id": "u", "field": 2}, {"id": ["v"], "field": 2}]), "list-id.json"),
             "unwritable": str(tmp_path / "absent-dir" / "out.json")}
    (tmp_path / "bad.json").write_text('{"beta": 1, "gamma": ')
    argv = [arg.format(**files) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    # a result beyond the float range is a numeric error that names the quantity
    expected = {"thresholds-delta-nan": "numeric error: Delta overflows a float",
               "sweep-star-w-max-1000": "numeric error: the star sweep's field overflows",
               "sweep-star-w-max-100": "numeric error: the star sweep's field overflows",
               "sweep-tree-bound": "numeric error: the tree sweep's ratio_bound overflows "
                                   "a float at t = 0",
               "construct-invariant-violation": "invariant violation: residual target ",
               "thresholds-d-negative": "domain error: arity d must be a positive integer\n",
               "thresholds-d-zero": "domain error: arity d must be a positive integer\n",
               "sweep-star-underflow": "numeric error: the star sweep's field underflows "
                                       "a float at w = 15293\n"}
    assert proc.returncode == 2
    assert proc.stderr.startswith(expected.get(request.node.callspec.id, "domain error: "))
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    if files["triple"] in argv or files["unhashable"] in argv:
        assert proc.stderr.startswith("domain error: malformed graph document: ")
    if files["unwritable"] in argv:
        assert proc.stderr.startswith(f"domain error: cannot write {files['unwritable']}: ")


# K2_DOC's text with beta and u's field left to fill in
K2_TEXT = ('{"beta": %s, "gamma": 2, "vertices": [{"id": "u", "field": %s}, '
           '{"id": "v", "field": 2}], "edges": [["u", "v"]], "output": null}')

# A graph file's beta, gamma and fields are JSON numbers, finite in --mode's
# type: (key, JSON text, mode) -> exit 2, naming the key.
MALFORMED_NUMBERS = [
    *((key, text, mode) for key in ("beta", "field") for text in ("true", '"2"', "null")
      for mode in ("float", "rational")),
    *((key, text, "float") for key in ("beta", "field")
      for text in ("NaN", "Infinity", "1e400")),
    *((key, text, "rational") for key in ("beta", "field") for text in ("NaN", "Infinity")),
]


@pytest.mark.parametrize("key,text,mode", MALFORMED_NUMBERS)
def test_malformed_graph_numbers_exit_2_naming_the_key(tmp_path, capsys, key, text, mode):
    path = tmp_path / "g.json"
    path.write_text(K2_TEXT % ((text, 2) if key == "beta" else (1, text)))
    code = main(["eval", "--input", str(path), "--mode", mode])
    captured = capsys.readouterr()
    name = "beta" if key == "beta" else "field of vertex 'u'"
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"domain error: malformed graph document: {name} = ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("text", ["1e10000000", "1E+10000000", "1e-10000000",
                                  "2.5e100000000", "1e4301", "1e-4301"])
@pytest.mark.parametrize("source", ["flag", "graph"])
def test_rational_exponent_beyond_the_int_digit_limit_exits_2(tmp_path, capsys,
                                                                text, source):
    # Fraction would build 10**exponent in full: 10**(10**8) takes longer than 30 s
    if source == "flag":
        argv = ["eval", "--input", write_doc(tmp_path, K2_DOC), "--beta", text]
    else:
        path = tmp_path / "g.json"
        path.write_text(K2_TEXT % (1, text))
        argv = ["eval", "--input", str(path)]
    start = time.perf_counter()
    code = main([*argv, "--mode", "rational"])
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("domain error: ")
    assert f"the exponent of {text!r} exceeds 4300 in magnitude" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("text", ["1e-4300", "2.5E-4300"])
def test_rational_exponent_at_the_int_digit_limit_is_read(tmp_path, capsys, text):
    path = tmp_path / "g.json"
    path.write_text(K2_TEXT % (1, text))
    code, out = run(capsys, ["eval", "--input", str(path), "--mode", "rational",
                             "--beta", text])
    assert code == 0
    assert json.loads(out)["Z_exact"] == exact_str(partition_function(
        FieldedGraph((("u", Fraction(text)), ("v", 2)), (("u", "v"),)),
        SpinParams(Fraction(text), 2, 1)))


def test_radicand_with_a_large_prime_factor_is_split_quickly(tmp_path, capsys):
    # beta*gamma = 2 * 10000000000000061 / 10**16; trial division up to the
    # square root of each radicand took 17 s for this command
    path = write_doc(tmp_path, {**K2_DOC, "vertices": [{"id": "u", "field": 1},
                                                       {"id": "v", "field": 1}]})
    argv = ["reduce", "--kind", "bipartite", "--mode", "rational", "--input", path,
            "--gamma", "2", "--mu-prime", "2", "--beta"]
    start = time.perf_counter()
    code, out = run(capsys, [*argv, "1.0000000000000061"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["verified"] is True
    # at 12 significant digits the document is beta = 1's
    assert run(capsys, [*argv, "1"]) == (0, out)

    # a cofactor of 60 bits with no prime factor below 1000 stays in the radicand
    start = time.perf_counter()
    code, out = run(capsys, [*argv, "1.000000000000000003"])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["verified"] is True


def _odd_primes_below(n: int) -> list:
    sieve = bytearray([1]) * n
    for i in range(2, math.isqrt(n) + 1):
        sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(3, n) if sieve[i]]


_LONG = random.Random(5).randrange(10 ** 3999, 10 ** 4000)


@pytest.mark.parametrize("beta", [
    # 4,000 digits over about 4/3 of them: a radicand of about 26,600 bits
    f"{_LONG}/{_LONG + _LONG // 3 + 1}",
    # beta near 0.707: the radicand 2*P, P the product of the odd primes below
    # 3000, is past 2**1024, and its coefficient 2**-2115 below the float range
    f"{math.prod(_odd_primes_below(3000))}/{2 ** 4230}",
], ids=["4000-digits", "primorial"])
def test_long_radicands_certify_quickly(tmp_path, capsys, beta):
    path = write_doc(tmp_path, {**K2_DOC, "vertices": [{"id": "u", "field": 1},
                                                       {"id": "v", "field": 1}]})
    start = time.perf_counter()
    code, out = run(capsys, ["reduce", "--kind", "bipartite", "--mode", "rational",
                             "--input", path, "--gamma", "2", "--mu-prime", "2",
                             "--beta", beta])
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["verified"] is True


def test_rational_field_beyond_float_range_is_a_numeric_error(tmp_path):
    # read exactly, the 1e400 field cannot be written back as a float
    path = tmp_path / "g.json"
    path.write_text(K2_TEXT % (1, "1e400"))
    proc = subprocess.run([sys.executable, "-m", "twospin", "reduce", "--kind", "contract",
                           "--mode", "rational", "--input", str(path)],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("numeric error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _multi_edge_doc(beta, gamma, k, field=1):
    """Vertices a and b joined by k parallel edges."""
    return {"beta": beta, "gamma": gamma,
            "vertices": [{"id": v, "field": field} for v in "ab"],
            "edges": [["a", "b"]] * k, "output": None}


# beta = gamma = 1e200: a = sqrt(beta*gamma) = sqrt(1e400), the Ising output's beta
HUGE_ONE = {"beta": 1e200, "gamma": 1e200, "vertices": [{"id": "a", "field": 1}],
            "edges": [], "output": None}
HUGE_TRIANGLE = dict(HUGE_ONE, vertices=[{"id": v, "field": 1} for v in "abc"],
                     edges=[["a", "b"], ["b", "c"], ["c", "a"]])
# beta = gamma = 0: peeling a makes b's field 1e-300 / 1e300, 0.0 in floats,
# and b's own edge ratio is then 1 / (0 + gamma)
ZERO_PATH = {"beta": 0, "gamma": 0,
             "vertices": [{"id": v, "field": f} for v, f in zip("abcd", (1e300, 1e-300, 1, 1))],
             "edges": [["a", "b"], ["b", "c"], ["c", "d"]], "output": None}
CYCLE_24 = {"beta": 1, "gamma": 1e30,
            "vertices": [{"id": f"c{i}", "field": 2} for i in range(24)],
            "edges": [[f"c{i}", f"c{(i + 1) % 24}"] for i in range(24)], "output": None}
STAR_2 = {"beta": 1, "gamma": 2,
          "vertices": [{"id": v, "field": 1} for v in ("c", "l1", "l2")],
          "edges": [["c", "l1"], ["c", "l2"]], "output": None}


@pytest.mark.parametrize("doc, flags, message", [
    (_multi_edge_doc(1, 2, 2), "bipartite --mu-prime 2 --beta 0.5 --gamma 1e300",
     "gamma**|E| overflows a float"),
    (STAR_2, "bipartite --mu-prime 1e200", "mu'**|R| overflows a float"),
    (_multi_edge_doc(1, 2, 4), "bipartite --mu-prime 2 --beta 1e-100 --gamma 2e100",
     "(gamma/beta)**(4/2) overflows a float"),
    (CYCLE_24, "ising --mu 2", "sqrt(gamma/beta)**|E| overflows a float"),
    (CYCLE_24, "pipeline --mu 2", "sqrt(gamma/beta)**|E| overflows a float"),
    # beta/gamma = 1e-400 is 0.0 in floats
    (_multi_edge_doc(1e-200, 1e200, 3), "ising --mu 1",
     "transformed field of 'a' underflows a float"),
    (_multi_edge_doc(1e-200, 1e200, 3), "pipeline --mu 1",
     "transformed field of 'a' underflows a float"),
    # mu' * (gamma/beta)**(4/2) = 1e320: two finite factors, an infinite product
    (_multi_edge_doc(1, 1e10, 4), "bipartite --mu-prime 1e300 --beta 1 --gamma 1e10 --no-verify",
     "transformed field of 'a' overflows a float"),
    # b's field becomes 1 * edge_ratio(1e200) = 1e400 / (1e200 + 1); the scale is finite
    ({"beta": 1e200, "gamma": 1, "vertices": [{"id": "a", "field": 1e200},
                                              {"id": "b", "field": 1}],
      "edges": [["a", "b"]], "output": None}, "contract --no-verify", "the field of 'b' after the peel overflows a float"),
    (HUGE_ONE, "pipeline --mu 1", "sqrt(beta*gamma) overflows a float"),
    (HUGE_ONE, "ising --mu 1", "sqrt(beta*gamma) overflows a float"),
    (HUGE_TRIANGLE, "ising --no-verify --mu 1", "sqrt(beta*gamma) overflows a float"),
    (ZERO_PATH, "contract --no-verify", "the pendant peel overflows a float"),
    (ZERO_PATH, "pipeline --no-verify", "the pendant peel overflows a float"),
], ids=["bipartite-gamma-power", "bipartite-mu-prime-power", "bipartite-degree-power",
        "ising-scale", "pipeline-scale", "ising-field-underflow", "pipeline-field-underflow",
        "bipartite-field-overflow", "contract-field-overflow", "pipeline-a-overflow",
        "ising-a-overflow", "ising-a-overflow-no-verify", "contract-peel-zero-division",
        "pipeline-peel-zero-division"])
def test_reduction_float_range_is_a_numeric_error(tmp_path, capsys, doc, flags, message):
    path = write_doc(tmp_path, doc)
    code = main(["reduce", "--kind", *flags.split(), "--input", path])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numeric error: {message}\n"


# One process, every subcommand, interleaved so that a flag set by one call is
# left at its default by a later one; with usage errors, --help and domain
# errors among them, and argvs on both sides of the table reader's boundary
# (``--ell=1``, the abbreviation ``--bet``, a value starting with ``-``, a
# refused choice before a valid one, a repeated valid flag).  eval reads --mu
# if the namespace has one, so a value leaking from the reduce call before it
# would fail the eval.
SHARED_PARSER_ARGVS = [
    "thresholds --beta 1 --gamma 2 --d 3",
    "eval --input {k2} --mode rational --enum-limit 5",
    "thresholds --beta 1 --gamma 2",
    "fixpoint --beta 1 --gamma 2 --mu 20 --d 1 --tol 1e-6",
    "fixpoint --beta 1 --gamma 2 --d 1",
    "reduce --kind contract --input {k2} --mu -1",
    "eval --input {k2}",
    "sweep --help",
    "sweep --kind star --beta 1 --gamma 2 --mu 20 --w-max 3 --output {out}",
    "construct --beta 0.9 --gamma 2 --mu 20 --d 2 --ell 1 --target 7.5",
    "construct --beta 0.9 --gamma 2 --mu 20 --d 2 --ell=1 --target 7.5",
    "fixpoint --bet 1 --gamma 2 --mu 20 --d 1",
    "fixpoint --beta 1 --gamma 2 --mu 20 --d 1",
    "reduce --kind x --kind contract --input {k2} --mu 2",
    "reduce --kind ising --kind contract --input {k2} --mu 2 --mu 3",
    "reduce --kind selfloop --beta 2 --gamma 3 --mu 3 --target 5 --m 100",
    "frobnicate",
]


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    """In-process calls match fresh processes byte for byte.  The parser is
    built on the first argv the table reader refuses and reused for every
    later one; an argv the reader accepts never touches it."""
    import twospin.cli as cli_mod
    files = {"k2": write_doc(tmp_path, dict(K2_DOC, output="u"), name="k2.json"),
             "out": str(tmp_path / "out.csv")}
    env = dict(_subprocess_env(), COLUMNS="100")
    monkeypatch.setenv("COLUMNS", "100")
    argvs = [line.format(**files).split() for line in SHARED_PARSER_ARGVS]
    refused = [cli_mod._read_argv(argv) is None for argv in argvs]
    assert 0 < sum(refused) < len(argvs)
    cli_mod.build_parser.cache_clear()
    seen = set()
    for k, argv in enumerate(argvs):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                              capture_output=True, text=True, env=env)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr), argv
        seen.add(code)
        assert cli_mod.build_parser.cache_info().misses == any(refused[:k + 1]), argv
    assert seen == {0, 2}
    info = cli_mod.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, sum(refused) - 1)


# flag texts by type: ones the type accepts, then ones it refuses
READER_TEXTS = {
    finite_float: (["1", "0.5", "20", "1e300", " 2.5", "1_0.5", "2E-3"],
                   ["inf", "nan", "Infinity", "1e400", "abc", "", "0x10"]),
    int: (["0", "3", "12", "1_0", " 7", "\u0663"], ["1.5", "abc", "", "1e3", "inf"]),
    str: (["g.json", "x", "", "a=b", "1", "float", "contract"], []),
}
# texts starting with "-": left to argparse, which takes some as values
READER_DASHED = ["-1", "-0.5", "-inf", "-", "--", "--beta", "-h"]


def _reader_texts(spec):
    """(accepted, refused) texts of one flag."""
    if "choices" in spec:
        return list(spec["choices"]), ["x", "Float", "", "star " + spec["choices"][0]]
    return READER_TEXTS[spec.get("type", str)]


def _given(flag, spec, text):
    return [flag] if spec.get("action") == "store_true" else [flag, text]


@st.composite
def reader_argvs(draw):
    """An argv of one COMMANDS row: its required flags and some optional ones
    with accepted values, in any order, then up to three changes that argparse
    reads otherwise or refuses."""
    name = draw(st.sampled_from(list(COMMANDS)))
    flags = COMMANDS[name][3]
    groups = [_given(flag, spec, draw(st.sampled_from(_reader_texts(spec)[0])))
              for flag, spec in flags.items()
              if spec.get("required") or draw(st.integers(0, 3)) == 0]
    groups = list(draw(st.permutations(groups)))
    flag = draw(st.sampled_from(list(flags)))
    spec = flags[flag]
    good, bad = _reader_texts(spec)
    choices = [f for f, sp in flags.items() if "choices" in sp]
    for change in draw(st.lists(st.sampled_from(
            ["repeat", "refused", "dashed", "equals", "abbrev", "help", "stray", "last",
             "choice", "drop", "command"]), max_size=3)):
        extra = None
        if change == "choice" and choices:
            choice = draw(st.sampled_from(choices))
            extra = [choice, draw(st.sampled_from(_reader_texts(flags[choice])[1]))]
        elif change == "repeat":
            extra = _given(flag, spec, draw(st.sampled_from(good)))
        elif change == "refused" and bad:
            extra = _given(flag, spec, draw(st.sampled_from(bad)))
        elif change == "dashed":
            extra = [flag, draw(st.sampled_from(READER_DASHED))]
        elif change == "equals":
            extra = [f"{flag}={draw(st.sampled_from(good))}"]
        elif change == "abbrev":
            extra = _given(flag[:draw(st.integers(2, len(flag) - 1))], spec,
                           draw(st.sampled_from(good)))
        elif change == "help":
            extra = [draw(st.sampled_from(["-h", "--help"]))]
        elif change == "stray":
            extra = [draw(st.sampled_from(["x", "1", "--frob", "-b", name]))]
        elif change == "last" and spec.get("action") != "store_true":
            groups.append([flag])  # a flag with no value after it
        elif change == "drop" and groups:
            groups.pop(draw(st.integers(0, len(groups) - 1)))
        elif change == "command":
            name = draw(st.sampled_from(["frobnicate", name[:-1], name.upper(), "-h", ""]))
        if extra is not None:
            groups.insert(draw(st.integers(0, len(groups))), extra)
    argv = [name] + [token for group in groups for token in group]
    return argv if name or draw(st.booleans()) else []


def _argparse_namespace(argv):
    try:
        return vars(build_parser().parse_args(argv))
    except SystemExit:
        pytest.fail(f"the reader accepts what argparse refuses: {argv}")


READER_AGREES = settings(max_examples=1000, deadline=None)


@READER_AGREES
@given(argv=reader_argvs())
@example(argv=["reduce", "--kind", "x", "--kind", "contract", "--input", "g.json"])
@example(argv=["sweep", "--kind", "star", "--d", "x", "--d", "3"])
@example(argv=["eval", "--input", "g.json", "--mode", "exact"])
@example(argv=["sweep", "--kind", "tree", "--kind", "trees"])
@example(argv=["fixpoint", "--beta", "1", "--gamma", "2", "--mu", "20"])
@example(argv=["reduce", "--input", "g.json", "--no-verify"])
@example(argv=["thresholds", "--beta", "1", "--gamma", "inf"])
def test_table_reader_agrees_with_argparse(argv):
    """The reader returns None or the namespace argparse returns."""
    args = _read_argv(argv)
    if args is not None:
        assert vars(args) == _argparse_namespace(argv)


READER_ACCEPTS = [
    "thresholds --beta 1 --gamma 2",
    "thresholds --beta 1 --gamma 2 --d 3 --d 4 --output o.json",
    "fixpoint --beta 1 --gamma 2 --mu 20 --d 1 --tol 1e-6",
    "construct --d 2 --ell 6 --target 7.5 --beta 0.9 --gamma 2 --mu 20 --emit-gadget g.json "
    "--materialize m.json --materialize-limit 1_000 --output o.json",
    "eval --input g.json --mode rational --enum-limit 5 --beta 1/2 --gamma 3",
    "reduce --kind selfloop --beta 2 --gamma 3 --mu 3 --target 5 --m 100 --no-verify",
    "reduce --kind ising --kind contract --input g.json --mu 2 --mu 3 --no-verify --no-verify",
    "reduce --kind bipartite --input g.json --mu-prime 1.1 --left u,v --mode rational",
    "sweep --kind construct-error --beta 1 --gamma 2 --mu 20 --d 1 --ell-max 3 --targets 4",
    "sweep --kind uniqueness --steps 3 --beta-min 0.1 --beta-max 0.2 --delta-reg 3",
]


@pytest.mark.parametrize("line", READER_ACCEPTS)
def test_table_reader_accepts_well_formed_argvs(line):
    argv = line.split()
    args = _read_argv(argv)
    assert args is not None
    assert vars(args) == _argparse_namespace(argv)


NUMPY_OFF_IMPORT_PATH = """
import contextlib, io, json, sys
import twospin, twospin.cli
from twospin.cli import main
loaded = ["numpy" in sys.modules]
point = ["--beta", "1", "--gamma", "2", "--mu", "20", "--d", "1"]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["thresholds", "--beta", "1", "--gamma", "2"]),
             main(["reduce", "--kind", "contract", "--input", sys.argv[1], "--mu", "2",
                   "--no-verify"]),
             main(["fixpoint", *point]),
             main(["construct", *point, "--ell", "3", "--target", "7.5"]),
             main(["sweep", "--kind", "tree", *point]),
             main(["sweep", "--kind", "construct-error", *point, "--ell-max", "2",
                   "--targets", "3"]),
             main(["reduce", "--kind", "selfloop", "--beta", "2", "--gamma", "3", "--mu", "3",
                   "--target", "5", "--m", "1000", "--no-verify"])]
loaded.append("numpy" in sys.modules)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(["eval", "--input", sys.argv[1], "--mode", "rational"])
loaded.append("numpy" in sys.modules)
print(json.dumps({"loaded": loaded, "codes": codes, "code": code, "eval": out.getvalue()}))
"""


def test_numpy_stays_off_the_import_path(tmp_path):
    """Only the elimination engine loads numpy; commands that evaluate no Z do not."""
    k2 = write_doc(tmp_path, dict(K2_DOC, output="u"), name="k2.json")
    proc = subprocess.run([sys.executable, "-c", NUMPY_OFF_IMPORT_PATH, k2],
                          capture_output=True, text=True, check=True,
                          env=_subprocess_env())
    result = json.loads(proc.stdout)
    assert result["loaded"] == [False, False, True]  # eval's tables need it
    assert result["codes"] == [0] * 7
    assert (result["code"], result["eval"]) == (0, GOLDEN_EVAL_RATIONAL)


HELP_FLAGS = {
    "eval": "--input --beta --gamma --output --mode --enum-limit",
    "fixpoint": "--beta --gamma --mu --d --tol --output",
    "construct": "--beta --gamma --mu --d --ell --target --emit-gadget --materialize "
                 "--materialize-limit --output",
    "thresholds": "--beta --gamma --d --output",
    "reduce": "--kind --input --beta --gamma --mu --mu-prime --left --target --m --no-verify "
              "--output --mode --enum-limit",
    "sweep": "--kind --beta --gamma --mu --d --w-max --t-max --ell-max --targets --delta-reg "
             "--beta-min --beta-max --steps --output",
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_help_lists_every_flag(command):
    proc = subprocess.run([sys.executable, "-m", "twospin", command, "--help"],
                          capture_output=True, text=True,
                          env=dict(_subprocess_env(), COLUMNS="1000"))
    assert proc.returncode == 0 and proc.stderr == ""
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", proc.stdout))
    assert flags == set(HELP_FLAGS[command].split()) | {"--help"}
    if command == "sweep":
        # the CSV column lists README points at `twospin sweep --help` for
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        columns = re.findall(r"`([\w-]+: [\w,]+)`", readme)
        assert len(columns) == 4
        text = " ".join(proc.stdout.split())
        assert all(c in text for c in columns)


def test_byte_identical_reruns(tmp_path):
    argv = [sys.executable, "-m", "twospin", "construct", "--beta", "1",
            "--gamma", "2", "--mu", "20", "--d", "1", "--ell", "3",
            "--target", "7.5"]
    env = _subprocess_env()
    first = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    second = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    assert first == second and first


def _collector_argvs(tmp_path) -> list:
    """One argv per command, kind and artifact flag."""
    k2 = write_doc(tmp_path, dict(K2_DOC, output="u"), name="k2.json")
    path = write_doc(tmp_path, PATH_DOC, name="path.json")
    triangle = write_doc(tmp_path, dict(PATH_DOC, edges=[["u", "v"], ["v", "w"], ["w", "u"]]),
                         name="triangle.json")
    point = "--beta 1 --gamma 2 --mu 20 --d 1"
    lines = [f"eval --input {k2}", f"eval --input {k2} --mode rational",
             f"fixpoint {point}", "thresholds --beta 1 --gamma 2",
             f"construct {point} --ell 4 --target 7.5 --emit-gadget {tmp_path}/g.json "
             f"--materialize {tmp_path}/m.json",
             f"sweep --kind star {point} --w-max 6", f"sweep --kind tree {point} --t-max 6",
             f"sweep --kind construct-error {point} --ell-max 3 --targets 4",
             "sweep --kind uniqueness --steps 3",
             f"reduce --kind bipartite --input {k2} --mu-prime 1.1 --left u",
             "reduce --kind selfloop --beta 2 --gamma 3 --mu 3 --target 5 --m 100"]
    lines += [f"reduce --kind {kind} --input {graph} --mu 2"
              for kind, graph in [("contract", path), ("ising", triangle), ("pipeline", path)]]
    return [line.split() for line in lines]


def test_commands_leave_no_cyclic_garbage(tmp_path):
    """With the collector off, reference counting frees all a command drops."""
    argvs = _collector_argvs(tmp_path)
    for argv in argvs:  # first calls: numpy's import leaves one-time cyclic garbage
        assert main(argv) == 0, argv
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for argv in argvs:
            assert main(argv) == 0, argv
            assert gc.collect() == 0, argv
    finally:
        if enabled:
            gc.enable()


FIRST_CALL_GARBAGE = """
import contextlib, gc, io
from twospin.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["thresholds", "--beta", "1", "--gamma", "2"])
print(code, gc.collect())
"""


def test_the_first_command_leaves_no_cyclic_garbage():
    """The first call builds the shared parser, in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", FIRST_CALL_GARBAGE],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(tmp_path, monkeypatch, enabled):
    import twospin.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli_mod.red, "verify_reduction", lambda cert, **_: cert._replace(
        verified=False))
    monkeypatch.setattr(cli_mod, "hardness_thresholds", boom)
    path = write_doc(tmp_path, PATH_DOC)
    calls = [(0, ["fixpoint", *DEEP_POINT]),
             (2, ["fixpoint", "--beta", "0.5", "--gamma", "1", "--mu", "2", "--d", "1"]),
             (3, ["sweep", "--kind", "construct-error", *DEEP_POINT,
                  "--ell-max", str(DEPTH_LIMIT + 1)]),
             (4, ["reduce", "--kind", "pipeline", "--input", path, "--mu", "2"]),
             (SystemExit, ["fixpoint"]),
             (RuntimeError, ["thresholds", "--beta", "1", "--gamma", "2"])]
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for outcome, argv in calls:
            if isinstance(outcome, int):
                assert main(argv) == outcome, argv
            else:
                with pytest.raises(outcome):
                    main(argv)
            assert gc.isenabled() is enabled, argv
    finally:
        (gc.enable if before else gc.disable)()
