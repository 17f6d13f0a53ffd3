"""Independent references for every job's output.

Nothing here imports ``twospin``.  How each reference is computed:

* ``float_eval`` (float-enum): log Z and log Z(out=0)/Z(out=1) by brute force
  over all 2^n configurations, organised as a split sum -- the vertices are
  cut into halves A and B, the cross-edge counts for every (config_A,
  config_B) pair come from two matrix products, and the 2^a x 2^b log-weights
  are log-sum-exp'd.  Same sum as the program's, different code and order.
* ``exact_eval`` (exact-certify): Z, and Z0/Z1 when an output is set, as a
  ``Fraction`` by variable elimination (min-degree order), compared for
  exact equality with the printed ``Z_exact`` strings.
* ``verified`` (exact-certify): the certificate's own exact verification,
  ``"verified": true`` with a lossless ``scale_exact``.
* ``fixpoint``, ``thresholds``, ``sweep_tree``, ``sweep_error``, ``construct``
  and ``selfloop`` (field-gadgets): the level map, the threshold formulas,
  the product recursion over the emitted gadget JSON and the self-loop
  product, recomputed in mpmath at 40 digits; a construction must also meet
  |log_error| <= (ln gamma + ell) * alpha**ell.
* ``materialize`` and ``peel`` (pendant-peel): the materialised tree's root
  field by the product recursion, and for contraction the surviving fields
  and log(scale) = sum over peeled u of log(mu_u + gamma), where mu_u is
  u's field when it is peeled (its hanging subtree's product field).

``check_job`` returns None for a correct output, or a failure type.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import deque
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np

from workloads import construction_field_bound

REL = 1e-9
LOG_DBL_MAX = math.log(1.7976931348623157e308)
# failures of the program at the benchmark's parent commit; they are still
# counted in ``failed``, but do not make the run's ``correct`` false
KNOWN = {("selfloop", "OverflowError"), ("peel", "scale_overflow")}

mpmath.mp.dps = 40


class Mismatch(Exception):
    """An output disagrees with its reference; the message is the failure type."""


def _close(got, want, what):
    if not abs(float(got) - float(want)) <= REL * max(1.0, abs(float(want))):
        raise Mismatch(what)


def _require(cond, what):
    if not cond:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# float brute force by split sums

def _bits(k: int) -> np.ndarray:
    """(2^k, k) matrix, entry 1.0 where the vertex has spin 0 in that config."""
    idx = np.arange(1 << k, dtype=np.int64)[:, None]
    return (((idx >> np.arange(k)) & 1) == 0).astype(float)


def _lse(x: np.ndarray) -> float:
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def float_log_partitions(doc: dict) -> tuple[float, float, float]:
    """(log Z, log Z(out=0), log Z(out=1)) of a graph document by brute force."""
    ids = [v["id"] for v in doc["vertices"]]
    out = doc["output"]
    ids.sort(key=lambda v: v != out)  # output first, in half A
    pos = {v: i for i, v in enumerate(ids)}
    n = len(ids)
    a = (n + 1) // 2
    logf = np.zeros(n)
    for v in doc["vertices"]:
        logf[pos[v["id"]]] = math.log(v["field"])
    counts = np.zeros((n, n))
    for u, v in doc["edges"]:
        i, j = sorted((pos[u], pos[v]))
        counts[i, j] += 1
    lb, lg = math.log(doc["beta"]), math.log(doc["gamma"])
    za, zb = _bits(a), _bits(n - a)
    oa, ob = 1 - za, 1 - zb

    def half(z, o, lf, m):
        return z @ lf + lb * ((z @ m) * z).sum(1) + lg * ((o @ m) * o).sum(1)

    cross = counts[:a, a:]
    logw = (half(za, oa, logf[:a], counts[:a, :a])[:, None]
            + half(zb, ob, logf[a:], counts[a:, a:])[None, :]
            + lb * (za @ cross @ zb.T) + lg * (oa @ cross @ ob.T))
    spin0 = za[:, 0] == 1
    return _lse(logw), _lse(logw[spin0]), _lse(logw[~spin0])


# ---------------------------------------------------------------------------
# exact variable elimination

def exact_partition(doc: dict, pins: dict | None = None) -> Fraction:
    """Z as a Fraction by variable elimination over the two-spin factor graph."""
    beta, gamma = Fraction(doc["beta"]), Fraction(doc["gamma"])
    factors = []
    for v in doc["vertices"]:
        table = {(0,): Fraction(v["field"]), (1,): Fraction(1)}
        if pins and v["id"] in pins:
            table[(1 - pins[v["id"]],)] = Fraction(0)
        factors.append(((v["id"],), table))
    for u, v in doc["edges"]:
        if u == v:
            factors.append(((u,), {(0,): beta, (1,): gamma}))
        else:
            factors.append(((u, v), {(0, 0): beta, (0, 1): Fraction(1),
                                     (1, 0): Fraction(1), (1, 1): gamma}))
    remaining = {v["id"] for v in doc["vertices"]}
    while remaining:
        def width(x):
            return len({w for scope, _ in factors if x in scope for w in scope})
        x = min(sorted(remaining), key=width)
        remaining.discard(x)
        touching = [f for f in factors if x in f[0]]
        factors = [f for f in factors if x not in f[0]]
        scope = tuple(sorted({w for s, _ in touching for w in s} - {x}))
        table = {}
        for assign in itertools.product((0, 1), repeat=len(scope)):
            spins = dict(zip(scope, assign))
            total = Fraction(0)
            for sx in (0, 1):
                spins[x] = sx
                prod = Fraction(1)
                for s, t in touching:
                    prod *= t[tuple(spins[w] for w in s)]
                total += prod
            table[assign] = total
        factors.append((scope, table))
    z = Fraction(1)
    for _, t in factors:
        z *= t[()]
    return z


# ---------------------------------------------------------------------------
# mpmath gadget algebra

def _h(x, beta, gamma):
    return (beta * x + 1) / (x + gamma)


def _mp(p):
    return {k: mpmath.mpf(p[k]) for k in ("beta", "gamma", "mu")}


def level_iterates(job, steps=None):
    """mu, level_map(mu), ... in mpmath: ``steps`` terms, or run to convergence."""
    p = _mp(job)
    x = p["mu"]
    out = [x]
    for _ in range(steps if steps is not None else 10 ** 6):
        x = p["mu"] * _h(x, p["beta"], p["gamma"]) ** job["d"]
        if steps is None and abs(x - out[-1]) <= mpmath.mpf(10) ** -30 * x:
            return out + [x]
        out.append(x)
    return out


def alpha_of(job):
    s = mpmath.sqrt(mpmath.mpf(job["beta"]) * mpmath.mpf(job["gamma"]))
    return (s - 1) / (s + 1)


def error_bound(job, ell):
    return (mpmath.log(mpmath.mpf(job["gamma"])) + ell) * alpha_of(job) ** ell


def gadget_field(doc, job):
    """(field, size) of a gadget JSON document by the product recursion."""
    p = _mp(job)
    mu, beta, gamma = p["mu"], p["beta"], p["gamma"]
    levels = {}

    def tree(d, t):
        if (d, t) not in levels:
            x = mu
            for _ in range(t):
                x = mu * _h(x, beta, gamma) ** d
            levels[d, t] = x
        return levels[d, t]

    def walk(node):
        kind = node["kind"]
        if kind == "star":
            return mu * _h(mu, beta, gamma) ** node["w"], node["w"] + 1
        if kind == "tree":
            d, t = node["d"], node["t"]
            size = t + 1 if d == 1 else (d ** (t + 1) - 1) // (d - 1)
            return tree(d, t), size
        field, size = mu, 1
        for child in node["children"]:
            f, s = walk(child)
            field *= _h(f, beta, gamma)
            size += s
        return field, size

    return walk(doc)


# ---------------------------------------------------------------------------
# pendant contraction by hand

def _adjacency(doc):
    adj = {v["id"]: [] for v in doc["vertices"]}
    for u, v in doc["edges"]:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def two_core(adj) -> set:
    deg = {v: len(ns) for v, ns in adj.items()}
    queue = deque(v for v, d in deg.items() if d == 1)
    gone = set()
    while queue:
        u = queue.popleft()
        if u in gone or deg[u] != 1:
            continue
        gone.add(u)
        for w in adj[u]:
            if w not in gone:
                deg[w] -= 1
                if deg[w] == 1:
                    queue.append(w)
    return {v for v in adj if v not in gone and deg[v] > 0}


def hanging_fields(doc, adj, survivors):
    """Fields after peeling every tree hanging off ``survivors`` toward them.

    Returns the fields (a peeled vertex keeps the field it had when peeled)
    and the sum of log(field + gamma) over the peeled vertices.
    """
    beta, gamma = doc["beta"], doc["gamma"]
    field = {v["id"]: v["field"] for v in doc["vertices"]}
    parent = {s: None for s in survivors}
    order = list(survivors)
    for u in order:
        for w in adj[u]:
            if w not in parent:
                parent[w] = u
                order.append(w)
    for u in reversed(order):  # children before parents
        if parent[u] is not None:
            field[parent[u]] *= _h(field[u], beta, gamma)
    log_scale = math.fsum(math.log(field[u] + gamma) for u in order if u not in survivors)
    return field, log_scale


# ---------------------------------------------------------------------------
# per-kind checks

def _load(path: Path, exact=False):
    with open(path) as fh:
        return json.load(fh, parse_float=Fraction) if exact else json.load(fh)


def _check_float_eval(job, doc, workdir):
    graph = _load(workdir / job["input"])
    log_z, log_z0, log_z1 = float_log_partitions(graph)
    _require(doc["n_vertices"] == len(graph["vertices"]), "n_vertices")
    _require(doc["n_edges"] == len(graph["edges"]), "n_edges")
    _close(math.log(doc["Z"]), log_z, "log_Z")
    _close(math.log(doc["effective_field"]), log_z0 - log_z1, "effective_field")


def _check_exact_eval(job, doc, workdir):
    graph = _load(workdir / job["input"], exact=True)
    _require(doc["Z_exact"] == str(exact_partition(graph)), "Z_exact")
    if graph["output"] is not None:
        out = graph["output"]
        field = exact_partition(graph, {out: 0}) / exact_partition(graph, {out: 1})
        _require(doc["effective_field_exact"] == str(field), "effective_field_exact")


def _check_verified(job, doc, workdir):
    _require(doc["verified"] is True, "not_verified")
    _require(doc["scale_exact"] is not None, "scale_not_exact")


def _check_fixpoint(job, doc, workdir):
    mu_star = level_iterates(job)[-1]
    _close(doc["mu_star"], mu_star, "mu_star")
    _require(doc["bracket"]["ok"] is True, "bracket")
    _close(doc["alpha"], alpha_of(job), "alpha")
    _require(0 < doc["c"] < 1 and doc["eta"] > 0 and doc["t0"] >= 0, "decay_constants")


def _check_thresholds(job, doc, workdir):
    beta, gamma = job["beta"], job["gamma"]
    s = math.sqrt(beta * gamma)
    delta = math.floor((s + 1) / (s - 1)) + 1
    d = 1
    while not beta * (beta * gamma) ** d > 1:
        d += 1
    local = (gamma / beta) ** (delta / 2)
    bound = construction_field_bound(beta, gamma, d)
    _require(doc["Delta"] == delta and doc["d"] == d, "Delta_d")
    _close(doc["mu_bound_local_fields"], local, "mu_bound_local_fields")
    _close(doc["mu_bound_uniform"], max(gamma ** d * local, bound), "mu_bound_uniform")


def _rows(text):
    return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _check_sweep_tree(job, text, workdir):
    rows = _rows(text)
    fields = level_iterates(job, steps=len(rows) - 1)
    mu_star = level_iterates(job)[-1]
    _require(len(rows) == 31, "rows")
    for row, field in zip(rows, fields):
        _close(row["field"], field, "field")
        _close(row["mu_star"], mu_star, "mu_star")
        _close(row["ratio"], field / mu_star, "ratio")
        _require(1 - REL <= row["ratio"] <= row["ratio_bound"] * (1 + REL), "ratio_bound")


def _check_sweep_error(job, text, workdir):
    rows = _rows(text)
    mu_star = level_iterates(job)[-1]
    _require(len(rows) == 7 * 20, "rows")
    for i, row in enumerate(rows):
        ell, j = divmod(i, 20)
        _require(row["ell"] == ell, "ell")
        _close(row["target"], mu_star * (j + 1) / 20, "target")
        _close(row["bound"], error_bound(job, ell), "bound")
        _close(row["log_error"], math.log(row["achieved"] / row["target"]), "log_error")
        _require(abs(row["log_error"]) <= row["bound"], "error_exceeds_bound")


def _check_construct(job, doc, workdir):
    field, size = gadget_field(_load(workdir / job["gadget"]), job)
    _close(doc["achieved"], field, "achieved")
    _close(doc["target"], job["target"], "target")
    bound = error_bound(job, job["ell"])
    _close(doc["bound"], bound, "bound")
    _require(abs(mpmath.log(field / mpmath.mpf(job["target"]))) <= bound, "error_exceeds_bound")
    _require(doc["within_bound"] is True and doc["size"] == size, "report")


def _check_selfloop(job, doc, workdir):
    p = _mp(job)
    x, y = doc["x"], doc["y"]
    field = p["mu"] * (p["beta"] / p["gamma"]) ** x * (
        (p["mu"] * p["beta"] + 1) / (p["mu"] + p["gamma"])) ** y
    _close(doc["achieved"], field, "achieved")
    _require(abs(mpmath.log(field / mpmath.mpf(job["target"]))) <= 1 / mpmath.mpf(job["m"]),
             "error_exceeds_tolerance")
    gadget = doc["gadget"]
    loops = sum(u == v for u, v in gadget["edges"])
    _require(len(gadget["vertices"]) == y + 1 and loops == x
             and len(gadget["edges"]) == x + y, "gadget_shape")


def _check_materialize(job, doc, workdir):
    _require(doc["within_bound"] is True, "within_bound")
    _close(doc["bound"], error_bound(job, job["ell"]), "bound")
    graph = _load(workdir / job["materialized"])
    _require(len(graph["vertices"]) == doc["size"] == len(graph["edges"]) + 1, "size")
    _require(all(v["field"] == job["mu"] for v in graph["vertices"]), "fields")
    field, _ = hanging_fields(graph, _adjacency(graph), {graph["output"]})
    _close(doc["achieved"], field[graph["output"]], "achieved")


def _check_peel(job, doc, workdir):
    graph = _load(workdir / job["input"])
    beta, gamma = graph["beta"], graph["gamma"]
    adj = _adjacency(graph)
    core = two_core(adj)
    result = doc["output"]
    if job["kind"] == "contract":
        kept = {v["id"] for v in result["vertices"]}
        _require(kept == core if core else len(kept) == 1, "survivors")
    else:
        kept = core
        _require({v["id"] for v in result["vertices"]} == core, "survivors")
    survivors = kept or {next(iter(adj))}
    field, log_scale = hanging_fields(graph, adj, survivors)
    core_edges = [e for e in graph["edges"] if e[0] in core and e[1] in core]
    _require(len(result["edges"]) == len(core_edges), "core_edges")
    if job["kind"] == "contract":
        for v in result["vertices"]:
            _close(v["field"], field[v["id"]], "surviving_field")
    else:
        if not core:  # the lone survivor is stripped as isolated: Z = scale exactly
            log_scale += math.log(field[next(iter(survivors))] + 1)
        log_scale += len(core_edges) / 2 * math.log(gamma / beta)
        deg = {v: sum(v in e for e in core_edges) for v in core}
        for v in result["vertices"]:
            _close(v["field"], field[v["id"]] * (beta / gamma) ** (deg[v["id"]] / 2),
                   "ising_field")
    scale = doc["scale"]
    if math.isinf(scale) and log_scale > LOG_DBL_MAX:
        raise Mismatch("scale_overflow")
    _require(0 < scale < math.inf, "scale_range")
    _close(math.log(scale), log_scale, "log_scale")


CHECKS = {
    "float_eval": _check_float_eval, "exact_eval": _check_exact_eval,
    "verified": _check_verified, "fixpoint": _check_fixpoint,
    "thresholds": _check_thresholds, "sweep_tree": _check_sweep_tree,
    "sweep_error": _check_sweep_error, "construct": _check_construct,
    "selfloop": _check_selfloop, "materialize": _check_materialize, "peel": _check_peel,
}
CSV_CHECKS = {"sweep_tree", "sweep_error"}


def check_job(job: dict, outcome: dict, stdout: str, workdir: Path) -> str | None:
    """None when the job's output matches its reference, else the failure type."""
    if outcome["exception"] is not None:
        return outcome["exception"]
    if outcome["code"] != 0:
        return f"exit{outcome['code']}"
    try:
        doc = stdout if job["check"] in CSV_CHECKS else json.loads(stdout)
        CHECKS[job["check"]](job, doc, workdir)
    except Mismatch as exc:
        return f"check:{exc}"
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"check:unreadable:{type(exc).__name__}"
    return None


def is_known(job: dict, failure: str) -> bool:
    return (job["check"], failure.removeprefix("check:")) in KNOWN
