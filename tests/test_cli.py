"""CLI subcommands: outputs, exit codes, determinism."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

import twospin
from twospin import SpinParams, core, effective_field, gadget_from_json, gadget_field, graph_from_json
from twospin.cli import main

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


def test_eval_capacity_exit_code(tmp_path, capsys):
    doc = {"beta": 1, "gamma": 2,
           "vertices": [{"id": f"v{i}", "field": 1} for i in range(30)],
           "edges": [], "output": None}
    path = write_doc(tmp_path, doc)
    assert run(capsys, ["eval", "--input", path])[0] == 3


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
    graph, params = graph_from_json(doc)
    log_z = core._log_partition_float(graph, params, {})
    assert log_z == pytest.approx(20 * math.log(1e40 + 1), rel=1e-12)
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"numeric error: Z = exp({log_z!r}) overflows a float\n"


def test_fixpoint(capsys):
    code, out = run(capsys, ["fixpoint", "--beta", "1", "--gamma", "2",
                             "--mu", "20", "--d", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mu_star"] == pytest.approx(19.0498756211, abs=1e-9)
    assert doc["bracket"] == {"lower": 10.0, "ok": True, "upper": 20.0}
    assert doc["alpha"] == pytest.approx(0.171572875254, abs=1e-11)


def test_fixpoint_rejects_non_ferromagnetic(capsys):
    code, _ = run(capsys, ["fixpoint", "--beta", "0.5", "--gamma", "1",
                           "--mu", "2", "--d", "1"])
    assert code == 2


def test_fixpoint_bracket_violation_exit_code(capsys, monkeypatch):
    # the solver self-validates, so force a bogus value through the CLI check
    import twospin.cli as cli_mod
    monkeypatch.setattr(cli_mod, "solve_mu_star", lambda rp, rel_tol: 999.0)
    code, _ = run(capsys, ["fixpoint", "--beta", "1", "--gamma", "2",
                           "--mu", "20", "--d", "1"])
    assert code == 4


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
    graph, _ = graph_from_json(json.load(open(graph_path)))
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
    graph, _ = graph_from_json(json.load(open(graph_path)))
    params = SpinParams(1.0, 2.0, 20.0)
    assert effective_field(graph, params) == pytest.approx(doc["achieved"], rel=1e-9)


def test_construct_target_out_of_range(capsys):
    code, _ = run(capsys, ["construct", "--beta", "1", "--gamma", "2",
                           "--mu", "20", "--d", "1", "--ell", "1",
                           "--target", "25"])
    assert code == 2


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


def test_reduce_random_trials(capsys):
    code, out = run(capsys, ["reduce", "--kind", "pipeline", "--random-trials",
                             "10", "--seed", "1", "--beta", "0.8", "--gamma", "2"])
    assert code == 0
    assert json.loads(out)["all_verified"] is True


def test_reduce_missing_flags_domain_error(capsys):
    assert run(capsys, ["reduce", "--kind", "pipeline"])[0] == 2
    assert run(capsys, ["reduce", "--kind", "bipartite", "--random-trials", "3",
                        "--beta", "1", "--gamma", "2"])[0] == 2


def test_reduce_verification_failure_exit_code(tmp_path, capsys, monkeypatch):
    import twospin.cli as cli_mod

    def stamp_false(cert, **kwargs):
        return dataclasses.replace(cert, verified=False)

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


def _subprocess_env():
    """Environment whose python imports the same package as this process."""
    src = os.path.dirname(os.path.dirname(twospin.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
], ids=["selfloop-no-target", "selfloop-no-m", "selfloop-no-beta", "eval-beta-abc",
        "reduce-mu-abc", "missing-input", "malformed-input", "sweep-no-mu"])
def test_input_errors_exit_2_without_traceback(tmp_path, argv):
    files = {"k2": write_doc(tmp_path, K2_DOC, name="k2.json"),
             "missing": str(tmp_path / "absent.json"),
             "malformed": str(tmp_path / "bad.json")}
    (tmp_path / "bad.json").write_text('{"beta": 1, "gamma": ')
    argv = [arg.format(**files) for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "twospin", *argv],
                          capture_output=True, text=True, env=_subprocess_env())
    assert proc.returncode == 2
    assert proc.stderr.startswith("domain error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_byte_identical_reruns(tmp_path):
    argv = [sys.executable, "-m", "twospin", "construct", "--beta", "1",
            "--gamma", "2", "--mu", "20", "--d", "1", "--ell", "3",
            "--target", "7.5"]
    env = _subprocess_env()
    first = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    second = subprocess.run(argv, capture_output=True, check=True, env=env).stdout
    assert first == second and first
