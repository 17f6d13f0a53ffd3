"""Seeded job lists for the four benchmark workloads.

A workload is a fixed list of jobs; a job is one ``twospin`` CLI invocation
(an argv list) plus the facts its checker needs.  ``build(workload, seed)``
returns the input files to write and the job list.  The seed only moves
values -- which edges, which fields, which targets -- never the shape of the
list: every job slot keeps its size (vertices, edges, depth, arity) across
seeds, so run-to-run cost stays comparable while the inputs change.  The
self-loop targets are the one exception: they are fixed (see
``_field_gadgets``).

This module does not import ``twospin``: the program receives only the files
written from ``inputs`` and the argv of each job.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

WORKLOADS = ("exact-certify", "float-enum", "field-gadgets", "pendant-peel")


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"twospin-bench/{workload}/{seed}")


def _graph_doc(beta, gamma, vertices, edges, output=None) -> dict:
    return {"beta": beta, "gamma": gamma,
            "vertices": [{"id": v, "field": f} for v, f in vertices],
            "edges": [[u, v] for u, v in edges], "output": output}


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def _job(jid: str, argv: list, check: str, **facts) -> dict:
    return {"id": jid, "argv": [str(a) for a in argv], "check": check, **facts}


def _simple_edges(rng: random.Random, ids: list, n_edges: int) -> list:
    pairs = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))]
    rng.shuffle(pairs)
    return pairs[:n_edges]


# ---------------------------------------------------------------------------
# float-enum: float `eval` with an output vertex, n = 16..21, sparse to dense.
# Nearly all time is the chunked 2^n enumerator; dense slots keep the
# elimination width high, so a width-based engine cannot skip them.

FLOAT_SLOTS = [(16, 20), (16, 45), (16, 70), (16, 95), (16, 120),
               (17, 25), (17, 60), (17, 100), (17, 136),
               (18, 30), (18, 80), (18, 130),
               (19, 35), (20, 40), (21, 45)]


def _float_enum(rng: random.Random):
    inputs, jobs = {}, []
    for k, (n, n_edges) in enumerate(FLOAT_SLOTS):
        ids = [f"v{i}" for i in range(n)]
        rng.shuffle(ids)
        beta = round(rng.uniform(0.4, 1.6), 4)
        gamma = round(rng.uniform(0.6, 2.2), 4)
        fields = [(v, round(rng.uniform(0.3, 3.0), 4)) for v in ids]
        edges = _simple_edges(rng, ids, n_edges)
        name = f"fe{k:02d}.json"
        inputs[name] = _dump(_graph_doc(beta, gamma, fields, edges, rng.choice(ids)))
        jobs.append(_job(f"eval-n{n}-e{n_edges}-{k}", ["eval", "--input", name],
                         "float_eval", input=name))
    return inputs, jobs


# ---------------------------------------------------------------------------
# exact-certify: rational-mode reductions verified exactly, plus exact eval.
# The Quad-bearing parameter sets have beta*gamma (or gamma/beta) that is not
# a rational square, so the sums run in Q(sqrt(m)).

BIPARTITE_QUAD = ("1/2", "3", "2")        # beta*gamma = 3/2
BIPARTITE_FRACTION = ("1/2", "8", "3/2")  # beta*gamma = 4
PIPELINE_QUAD = ("2/3", "3", "3/2")       # beta*gamma = 2
PIPELINE_FRACTION = ("3/4", "3", "2")     # beta*gamma = 9/4, gamma/beta = 4

EXACT_SLOTS = (
    [("bipartite", BIPARTITE_QUAD, n, e) for n, e in
     [(6, 7), (8, 10), (9, 12), (10, 13), (11, 15), (12, 16)]]
    + [("bipartite", BIPARTITE_FRACTION, n, e) for n, e in
       [(8, 10), (10, 13), (12, 16), (13, 18), (14, 20), (15, 21)]]
    + [("pipeline", PIPELINE_QUAD, n, e) for n, e in
       [(6, 8), (8, 11), (10, 14), (11, 16), (12, 17)]]
    + [("pipeline", PIPELINE_FRACTION, n, e) for n, e in
       [(8, 11), (10, 14), (12, 17), (14, 20), (15, 22)]]
    + [("eval", None, n, e) for n, e in
       [(8, 12), (10, 15), (12, 20), (13, 22), (14, 24), (15, 27), (16, 30)]]
)

# Slots of at most SMALL_N vertices get SMALL_COPIES instances (fresh draws from
# the seed).  Job cost grows steeply with n, so with one instance per slot the
# median job sat between a few jobs whose costs move with the seed's edges,
# and job_p50_s moved by 15% between seeds; the extra small instances make
# the middle of the cost distribution dense at 15% more pass time.
SMALL_N, SMALL_COPIES = 10, 3

# decimal strings are exact under --mode rational (JSON floats parse as Fraction)
_EVAL_VALUES = ("0.5", "0.75", "1.25", "1.5", "2", "2.5")


def _pipeline_graph(rng: random.Random, n: int, n_edges: int, mu: str):
    """Random core plus a few pendant chains; fields are at most mu."""
    n_pendant = 2 + n // 6
    core = [f"c{i}" for i in range(n - n_pendant)]
    edges = _simple_edges(rng, core, n_edges - n_pendant)
    ids = list(core)
    for i in range(n_pendant):
        leaf = f"p{i}"
        edges.append((rng.choice(ids), leaf))
        ids.append(leaf)
    mu_f = float(Fraction(mu))
    fields = [(v, mu_f * rng.choice((1.0, 0.75, 0.5))) for v in ids]
    return fields, edges


def _exact_certify(rng: random.Random):
    inputs, jobs = {}, []
    instances = [slot for slot in EXACT_SLOTS
                 for _ in range(SMALL_COPIES if slot[2] <= SMALL_N else 1)]
    for k, (kind, params, n, n_edges) in enumerate(instances):
        name = f"ex{k:02d}.json"
        if kind == "bipartite":
            beta, gamma, mu_prime = params
            left = [f"l{i}" for i in range(n // 2)]
            right = [f"r{i}" for i in range(n - n // 2)]
            pairs = [(u, v) for u in left for v in right]
            rng.shuffle(pairs)
            doc = _graph_doc(1, 1, [(v, 1) for v in left + right], pairs[:n_edges])
            argv = ["reduce", "--kind", "bipartite", "--input", name, "--mode", "rational",
                    "--beta", beta, "--gamma", gamma, "--mu-prime", mu_prime]
        elif kind == "pipeline":
            beta, gamma, mu = params
            fields, edges = _pipeline_graph(rng, n, n_edges, mu)
            doc = _graph_doc(1, 1, fields, edges)
            argv = ["reduce", "--kind", "pipeline", "--input", name, "--mode", "rational",
                    "--beta", beta, "--gamma", gamma, "--mu", mu]
        else:
            ids = [f"v{i}" for i in range(n)]
            fields = [(v, float(rng.choice(_EVAL_VALUES))) for v in ids]
            edges = _simple_edges(rng, ids, n_edges)
            output = rng.choice(ids) if k % 2 else None
            doc = _graph_doc(float(rng.choice(_EVAL_VALUES[:3])),
                             float(rng.choice(_EVAL_VALUES[3:])), fields, edges, output)
            argv = ["eval", "--input", name, "--mode", "rational"]
        inputs[name] = _dump(doc)
        check = "verified" if kind != "eval" else "exact_eval"
        jobs.append(_job(f"{kind}-n{n}-e{n_edges}-{k}", argv, check, input=name))
    return inputs, jobs


# ---------------------------------------------------------------------------
# field-gadgets: many small jobs that realise fields.  Recursion, construction,
# gadget_field and CLI/JSON overhead dominate; enumeration is not used.

def _level_fixed_point(beta, gamma, mu, d):
    x = mu
    for _ in range(100000):
        nxt = mu * ((beta * x + 1) / (x + gamma)) ** d
        if abs(x - nxt) <= 1e-13 * nxt:
            return nxt
        x = nxt
    return x


def construction_field_bound(beta, gamma, d):
    """Uniform field above which the construction reaches every target."""
    bg = beta * gamma
    return (gamma ** d * (bg - 1) / beta) * (1 + (d + 1) / math.log(beta * bg ** d))


SELFLOOP_PARAMS = [("2", "3", "3"), ("1.5", "2", "4")]
SELFLOOP_M = (10, 100, 1000, 10_000, 100_000)
SELFLOOP_TARGETS = 3  # per (params, m)
CONSTRUCT_ELLS = range(13)
TARGET_BINS = ((0.02, 0.3), (0.3, 0.7), (0.7, 0.99))


def _gadget_points(rng: random.Random):
    """(name, beta, gamma, mu, d): beta = 1, beta < 1, mu just above the bound, d = 2."""
    edge = construction_field_bound(1.0, 2.0, 1)
    return [
        ("b1", 1.0, 2.0, 20.0 * (1 + 0.1 * rng.random()), 1),
        ("blt1", 0.8, 2.0, 30.0 * (1 + 0.1 * rng.random()), 1),
        ("edge", 1.0, 2.0, edge * (1.002 + 0.008 * rng.random()), 1),
        ("d2", 0.9, 1.5, 12.0 * (1 + 0.1 * rng.random()), 2),
    ]


def _field_gadgets(rng: random.Random):
    jobs = []
    for name, beta, gamma, mu, d in _gadget_points(rng):
        p = ["--beta", repr(beta), "--gamma", repr(gamma)]
        pm = p + ["--mu", repr(mu), "--d", d]
        facts = {"beta": beta, "gamma": gamma, "mu": mu, "d": d}
        jobs.append(_job(f"fixpoint-{name}", ["fixpoint", *pm], "fixpoint", **facts))
        jobs.append(_job(f"thresholds-{name}", ["thresholds", *p], "thresholds", **facts))
        jobs.append(_job(f"sweep-tree-{name}", ["sweep", "--kind", "tree", *pm, "--t-max", 30],
                         "sweep_tree", **facts))
        jobs.append(_job(f"sweep-error-{name}", ["sweep", "--kind", "construct-error", *pm,
                                                 "--ell-max", 6, "--targets", 20],
                         "sweep_error", **facts))
        mu_star = _level_fixed_point(beta, gamma, mu, d)
        for ell in CONSTRUCT_ELLS:
            for b, (lo, hi) in enumerate(TARGET_BINS):
                target = mu_star * rng.uniform(lo, hi)
                gadget = f"gadget-{name}-{ell}-{b}.json"
                jobs.append(_job(f"construct-{name}-l{ell}-t{b}",
                                 ["construct", *pm, "--ell", ell, "--target", repr(target),
                                  "--emit-gadget", gadget],
                                 "construct", gadget=gadget, target=target, ell=ell, **facts))
    # the targets are the same for every seed: the (x, y) search cost and the
    # memory of the result vary by orders of magnitude with the target, which
    # made this workload's tail latency and peak RSS swing between seeds
    fixed = random.Random("twospin-bench/selfloop-targets")
    for i, (beta, gamma, mu) in enumerate(SELFLOOP_PARAMS):
        for m, k in itertools.product(SELFLOOP_M, range(SELFLOOP_TARGETS)):
            target = round(fixed.uniform(0.3, 8.0), 6)
            jobs.append(_job(f"selfloop-p{i}-m{m}-{k}",
                             ["reduce", "--kind", "selfloop", "--beta", beta, "--gamma", gamma,
                              "--mu", mu, "--target", repr(target), "--m", m, "--no-verify"],
                             "selfloop", beta=float(beta), gamma=float(gamma), mu=float(mu),
                             target=target, m=m))
    return {}, jobs


# ---------------------------------------------------------------------------
# pendant-peel: pendant contraction on materialised trees and gadgets of
# 10^3..4*10^3 vertices, plus a cycle with trees hanging off it so that
# to_ising runs on a non-empty core.  Without this workload contraction does
# little work anywhere, and its quadratic cost goes unmeasured.

TREE_SLOTS = [(2, 9, "contract"), (2, 9, "pipeline"), (2, 10, "contract"),
              (2, 10, "pipeline"), (3, 7, "contract"), (3, 7, "pipeline"),
              (2, 11, "contract")]
# (beta, gamma, mu, d, ell): ell = 1 with d = 2 materialises to ~10^3 vertices
GADGET_SLOTS = [(0.8, 1.7, 12.0, 2, 1), (0.8, 1.7, 22.5, 2, 1), (0.9, 1.5, 12.4, 2, 1)]
CYCLE_LENGTH = 24
CYCLE_VERTICES = 2500


def _peel_params(rng: random.Random):
    beta = round(rng.uniform(0.6, 0.9), 4)
    gamma = round(rng.uniform(1.5, 2.5), 4)
    mu = round(rng.uniform(0.5, 0.95 * gamma / beta), 4)
    return beta, gamma, mu


def _labels(rng: random.Random, n: int) -> list:
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    return labels


def _dary_tree(rng: random.Random, d: int, t: int, mu: float):
    n = (d ** (t + 1) - 1) // (d - 1)
    lab = _labels(rng, n)
    edges = [(lab[(c - 1) // d], lab[c]) for c in range(1, n)]
    return [(v, mu) for v in lab], edges


def _cycle_with_trees(rng: random.Random, mu: float):
    lab = _labels(rng, CYCLE_VERTICES)
    edges = [(lab[i], lab[(i + 1) % CYCLE_LENGTH]) for i in range(CYCLE_LENGTH)]
    for c in range(CYCLE_LENGTH, CYCLE_VERTICES):
        edges.append((lab[rng.randrange(c)], lab[c]))  # random recursive trees
    return [(v, mu) for v in lab], edges


def _reduce_job(jid, kind, name, params, **facts):
    beta, gamma, mu = params
    return _job(jid, ["reduce", "--kind", kind, "--input", name, "--mu", repr(mu),
                      "--no-verify"],
                "peel", kind=kind, input=name, beta=beta, gamma=gamma, mu=mu, **facts)


def _pendant_peel(rng: random.Random):
    inputs, jobs = {}, []
    for k, (beta, gamma, mu, d, ell) in enumerate(GADGET_SLOTS):
        mu_star = _level_fixed_point(beta, gamma, mu, d)
        target = mu_star * rng.uniform(0.1, 0.95)
        name = f"mat{k}.json"
        facts = {"beta": beta, "gamma": gamma, "mu": mu, "d": d}
        jobs.append(_job(f"construct-mat{k}",
                         ["construct", "--beta", repr(beta), "--gamma", repr(gamma),
                          "--mu", repr(mu), "--d", d, "--ell", ell, "--target", repr(target),
                          "--materialize", name],
                         "materialize", materialized=name, target=target, ell=ell, **facts))
        for kind in ("contract", "pipeline") if k < 2 else ("contract",):
            jobs.append(_reduce_job(f"{kind}-mat{k}", kind, name, (beta, gamma, mu)))
    for k, (d, t, kind) in enumerate(TREE_SLOTS):
        params = _peel_params(rng)
        verts, edges = _dary_tree(rng, d, t, params[2])
        name = f"tree{k}.json"
        inputs[name] = _dump(_graph_doc(params[0], params[1], verts, edges))
        jobs.append(_reduce_job(f"{kind}-tree-d{d}-t{t}-{k}", kind, name, params))
    params = _peel_params(rng)
    verts, edges = _cycle_with_trees(rng, params[2])
    inputs["cycle.json"] = _dump(_graph_doc(params[0], params[1], verts, edges))
    for kind in ("contract", "pipeline"):
        jobs.append(_reduce_job(f"{kind}-cycle", kind, "cycle.json", params))
    return inputs, jobs


_JOB_LISTS = {"exact-certify": _exact_certify, "float-enum": _float_enum,
             "field-gadgets": _field_gadgets, "pendant-peel": _pendant_peel}


def build(workload: str, seed: int) -> tuple[dict, list]:
    """(inputs: file name -> text, jobs) for the workload at this seed."""
    return _JOB_LISTS[workload](_rng(workload, seed))
