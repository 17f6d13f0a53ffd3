"""Partition-function-preserving transformations with verifiable certificates.

Three families:

* `bipartite_transform`: an antiferromagnetic Ising instance on a bipartite
  graph becomes a ferromagnetic (beta, gamma) instance on the same graph with
  degree-dependent fields; Z_ferro = gamma**|E| * mu'**(-|R|) * Z_anti.
* `realize_field_selfloops` (gamma > beta > 1): self-loops and bristles on a
  single output vertex realise any positive target field within exp(+-1/m).
* `contract_degree_one` + `to_ising`: peel pendant vertices (each removal
  contributes mu_u + gamma to the scale), then rebalance edge weights into a
  uniform Ising instance with a = sqrt(beta*gamma) and per-vertex fields
  mu_v * (beta/gamma)**(deg/2); Z = sqrt(gamma/beta)**|E'| * Z_ising.

Every operation returns a `ReductionCertificate` holding both instances, the
exact relating scalar, and the direction the scalar applies in;
`verify_reduction` re-evaluates both partition functions (exactly when the
instances carry Fraction/Quad numbers) and stamps the certificate.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (ENUM_LIMIT, FieldedGraph, SpinParams, partition_function)
from .errors import DomainError, NumericError
from .exact import half_power, is_exact, sqrt_fraction
from .recursion import edge_ratio

OUTPUT_FROM_INPUT = "output = scale * input"
INPUT_FROM_OUTPUT = "input = scale * output"


@dataclass(frozen=True)
class Instance:
    graph: FieldedGraph
    params: SpinParams


@dataclass(frozen=True)
class ReductionCertificate:
    """Two instances plus the exact scalar tying their partition functions.

    ``relation`` records which side the scalar multiplies; ``verified`` is
    None until `verify_reduction` stamps it.
    """

    kind: str
    input: Instance
    output: Instance
    scale: object
    relation: str
    verified: Optional[bool] = None


def _all_exact(*values) -> bool:
    return all(isinstance(v, (int, Fraction)) for v in values)


def verify_reduction(cert: ReductionCertificate, *, limit: int = ENUM_LIMIT,
                     rel_tol: float = 1e-9) -> ReductionCertificate:
    """Re-evaluate both sides and stamp ``verified``.

    Exact instances (Fraction/Quad throughout) are required to agree exactly;
    float instances must agree to ``rel_tol`` relative error.
    """
    z_in = partition_function(cert.input.graph, cert.input.params, limit=limit)
    z_out = partition_function(cert.output.graph, cert.output.params, limit=limit)
    if cert.relation == OUTPUT_FROM_INPUT:
        lhs, rhs = z_out, cert.scale * z_in
    elif cert.relation == INPUT_FROM_OUTPUT:
        lhs, rhs = z_in, cert.scale * z_out
    else:
        raise DomainError(f"unknown certificate relation {cert.relation!r}")
    if is_exact(lhs) and is_exact(rhs):
        ok = lhs == rhs
    else:
        lhs_f, rhs_f = float(lhs), float(rhs)
        ok = abs(lhs_f - rhs_f) <= rel_tol * abs(lhs_f)
    return dataclasses.replace(cert, verified=bool(ok))


# ---------------------------------------------------------------------------
# bipartite transform

def _bipartition(graph: FieldedGraph, left: Optional[Sequence[str]] = None
                 ) -> tuple[list, list]:
    ids = [v for v, _ in graph.vertices]
    for u, v in graph.edges:
        if u == v:
            raise DomainError(f"self-loop on {u!r}: graph is not bipartite")
    if left is not None:
        lset = set(left)
        unknown = lset - set(ids)
        if unknown:
            raise DomainError(f"left part names unknown vertices {sorted(unknown)}")
        for u, v in graph.edges:
            if (u in lset) == (v in lset):
                raise DomainError(f"edge ({u!r}, {v!r}) does not cross the given parts")
        return [v for v in ids if v in lset], [v for v in ids if v not in lset]

    adj: dict = {v: [] for v in ids}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    color: dict = {}
    for root in ids:
        if root in color:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in color:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    raise DomainError("graph contains an odd cycle; not bipartite")
    return [v for v in ids if color[v] == 0], [v for v in ids if color[v] == 1]


def bipartite_transform(graph: FieldedGraph, mu_prime, target: SpinParams,
                        left: Optional[Sequence[str]] = None) -> ReductionCertificate:
    """Ferromagnetic instance equivalent to anti-Ising (1/sqrt(bg), 1/sqrt(bg), mu').

    Same graph; u in L gets field mu' * (gamma/beta)**(deg/2), v in R gets
    (1/mu') * (gamma/beta)**(deg/2).  Z_ferro = gamma**|E| mu'**(-|R|) Z_anti.
    Exact (Fraction/Quad) instances are built when beta, gamma and mu' are all
    rational.
    """
    beta, gamma = target.beta, target.gamma
    if not beta * gamma > 1:
        raise DomainError("target system must be ferromagnetic (beta*gamma > 1)")
    if not beta < gamma:
        raise DomainError("requires beta < gamma")
    if not mu_prime > 1:
        raise DomainError("mu' must exceed 1")
    part_l, part_r = _bipartition(graph, left)

    exact = _all_exact(beta, gamma, mu_prime)
    deg = graph.degrees()
    if exact:
        q = 1 / sqrt_fraction(Fraction(beta) * Fraction(gamma))
        ratio = Fraction(gamma) / Fraction(beta)
        fields = {v: mu_prime * half_power(ratio, deg[v]) for v in part_l}
        fields.update({v: half_power(ratio, deg[v]) / mu_prime for v in part_r})
        scale = Fraction(gamma) ** len(graph.edges) / Fraction(mu_prime) ** len(part_r)
    else:
        q = 1 / math.sqrt(float(beta) * float(gamma))
        ratio = float(gamma) / float(beta)
        fields = {v: float(mu_prime) * ratio ** (deg[v] / 2) for v in part_l}
        fields.update({v: ratio ** (deg[v] / 2) / float(mu_prime) for v in part_r})
        scale = float(gamma) ** len(graph.edges) / float(mu_prime) ** len(part_r)

    anti = Instance(graph.with_fields({v: mu_prime for v, _ in graph.vertices}),
                    SpinParams(q, q, mu_prime))
    ferro = Instance(graph.with_fields(fields), SpinParams(beta, gamma, 1))
    return ReductionCertificate(kind="bipartite", input=anti, output=ferro,
                                scale=scale, relation=OUTPUT_FROM_INPUT)


# ---------------------------------------------------------------------------
# self-loop / bristle field realisation (gamma > beta > 1)

class SelfloopRealization(NamedTuple):
    x: int
    y: int
    gadget: FieldedGraph
    achieved: float


def _convergents(theta: float, max_terms: int = 64):
    """Continued-fraction convergents (p, q) of theta > 0."""
    out = []
    h_prev, k_prev = 1, 0
    a0 = math.floor(theta)
    h, k = a0, 1
    out.append((h, k))
    x = theta - a0
    for _ in range(max_terms):
        if x < 1e-18:
            break
        x = 1 / x
        a = math.floor(x)
        x -= a
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        out.append((h, k))
        if k > 10 ** 15:
            break
    return out


def _cf_candidate_y(a: float, b: float, shift: float, eps: float) -> Optional[int]:
    """Greedy descent over convergent steps of b/a towards |y*b - x*a - shift| <= eps."""
    theta = b / a
    steps = [(q, q * theta - p) for p, q in _convergents(theta) if q > 0]
    # start where y*b - shift >= 0 so the implicit x stays non-negative
    y = max(0, math.ceil(shift / b))
    r = (y * b - shift) / a  # residual in units of a, x the nearest integer
    r -= round(r)
    for _ in range(100_000):
        if abs(r) * a <= eps:
            return y
        best = None
        for q, e in steps:
            cand = r + e
            cand -= round(cand)
            if abs(cand) < abs(r) - 1e-18:
                if best is None or abs(cand) < abs(best[1]):
                    best = (q, cand)
        if best is None:
            return None
        y += best[0]
        r = best[1]
    return None


def _scan_min_y(a: float, b: float, shift: float, eps: float, y_hi: int
                ) -> tuple[Optional[tuple[int, int]], tuple[float, int, int]]:
    """Smallest y in [0, y_hi] meeting the tolerance, plus the best attempt."""
    best = (math.inf, 0, 0)
    chunk = 100_000
    for lo in range(0, y_hi + 1, chunk):
        ys = np.arange(lo, min(lo + chunk, y_hi + 1), dtype=np.int64)
        v = ys * b - shift
        xs = np.maximum(0, np.rint(v / a)).astype(np.int64)
        err = np.abs(v - xs * a)
        i = int(err.argmin())
        if err[i] < best[0]:
            best = (float(err[i]), int(xs[i]), int(ys[i]))
        hits = np.nonzero(err <= eps)[0]
        if hits.size:
            j = int(hits[0])
            return (int(xs[j]), int(ys[j])), best
    return None, best


_FALLBACK_Y = 10 ** 6


def realize_field_selfloops(target, m: int, p: SpinParams) -> SelfloopRealization:
    """Loop/bristle gadget realising target within a log-error of 1/m.

    Requires gamma > beta > 1 and mu > (gamma-1)/(beta-1), which makes both
    the per-loop decrement a = ln(gamma/beta) and the per-bristle increment
    b = ln((mu*beta+1)/(mu+gamma)) positive.  Integers (x, y) with
    |y*b - x*a - ln(target/mu)| <= 1/m are found from continued-fraction
    candidates for y, refined to the smallest feasible y by a bounded scan.
    """
    beta, gamma, mu = float(p.beta), float(p.gamma), float(p.mu)
    if not gamma > beta > 1:
        raise DomainError("requires gamma > beta > 1")
    if not mu > (gamma - 1) / (beta - 1):
        raise DomainError("requires mu > (gamma-1)/(beta-1)")
    if not target > 0:
        raise DomainError("target field must be positive")
    if m < 1:
        raise DomainError("precision parameter m must be a positive integer")

    a = math.log(gamma / beta)
    b = math.log((mu * beta + 1) / (mu + gamma))
    shift = math.log(float(target) / mu)
    eps = 1.0 / m

    y_cap = _cf_candidate_y(a, b, shift, eps)
    hit, best = _scan_min_y(a, b, shift, eps, y_cap if y_cap is not None else _FALLBACK_Y)
    if hit is None:
        raise NumericError(
            f"no (x, y) within 1/m = {eps}; best residual {best[0]} at "
            f"(x, y) = ({best[1]}, {best[2]})")
    x, y = hit

    vertices = [("v0", p.mu)] + [(f"b{i}", p.mu) for i in range(y)]
    edges = [("v0", "v0")] * x + [("v0", f"b{i}") for i in range(y)]
    gadget = FieldedGraph(tuple(vertices), tuple(edges), output="v0")
    achieved = mu * (beta / gamma) ** x * ((mu * beta + 1) / (mu + gamma)) ** y
    return SelfloopRealization(x=x, y=y, gadget=gadget, achieved=achieved)


# ---------------------------------------------------------------------------
# degree-one contraction and the Ising transform

def contract_degree_one(graph: FieldedGraph, p: SpinParams
                        ) -> tuple[FieldedGraph, object]:
    """Peel pendant vertices until none remain; Z(graph) = scale * Z(result).

    Removing pendant u with neighbour v multiplies the scale by mu_u + gamma
    and the neighbour's field by edge_ratio(mu_u).  Peeling runs in rounds of
    the currently pendant vertices in id order, so results are reproducible:
    a round's pendants are the neighbours whose degree fell to 1 in the round
    before, and one whose degree fell to 0 earlier in its own round (the far
    end of a K2) is skipped.  The surviving edges keep their input order.

    Cost: O(|V| + |E| + sum of k log k over the rounds' k pendants), from
    per-vertex incidence lists and degrees built once.
    """
    fields = dict(graph.field_map)
    edges = graph.edges
    incident: dict = {v: [] for v in fields}
    for i, (a, b) in enumerate(edges):
        incident[a].append(i)
        incident[b].append(i)
    deg = {v: len(inc) for v, inc in incident.items()}
    alive = [True] * len(edges)
    scale = 1

    pendants = sorted(v for v, d in deg.items() if d == 1)
    while pendants:
        touched = []
        for u in pendants:
            if deg[u] != 1:
                continue  # degree changed earlier in this round
            i = next(i for i in incident[u] if alive[i])
            a, b = edges[i]
            v = b if a == u else a
            scale = scale * (fields[u] + p.gamma)
            fields[v] = fields[v] * edge_ratio(fields[u], p)
            del fields[u]
            alive[i] = False
            deg[u] -= 1
            deg[v] -= 1
            touched.append(v)
        pendants = sorted({v for v in touched if deg[v] == 1})

    remaining = tuple((v, fields[v]) for v, _ in graph.vertices if v in fields)
    kept = tuple(e for e, ok in zip(edges, alive) if ok)
    out = graph.output if graph.output in fields else None
    return FieldedGraph(remaining, kept, out), scale


def contract_certificate(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """Certificate wrapper for `contract_degree_one` (Z_in = scale * Z_out)."""
    core, scale = contract_degree_one(graph, p)
    return ReductionCertificate(kind="contract", input=Instance(graph, p),
                                output=Instance(core, p), scale=scale,
                                relation=INPUT_FROM_OUTPUT)


def _field_cap_ok(field, mu, exact: bool) -> bool:
    if exact:
        return field <= mu
    return float(field) <= float(mu) * (1 + 1e-12)


def to_ising(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """Uniform Ising instance with a = sqrt(beta*gamma) on the same graph.

    Needs every field <= mu <= gamma/beta and minimum degree 2 (self-loops
    count twice), or a single edgeless vertex, which is certified in closed
    form.  Transformed fields mu_v * (beta/gamma)**(deg/2) are checked to be
    at most 1.  Z_in = sqrt(gamma/beta)**|E| * Z_ising.
    """
    beta, gamma, mu = p.beta, p.gamma, p.mu
    exact = _all_exact(beta, gamma, mu) and all(
        isinstance(f, (int, Fraction)) for _, f in graph.vertices)
    if not mu * beta <= gamma:
        raise DomainError("requires mu <= gamma/beta")
    for v, f in graph.vertices:
        if not _field_cap_ok(f, mu, exact):
            raise DomainError(f"field of vertex {v!r} exceeds mu={mu}")

    if exact:
        a = sqrt_fraction(Fraction(beta) * Fraction(gamma))
        down = Fraction(beta) / Fraction(gamma)
        scale = half_power(Fraction(gamma) / Fraction(beta), len(graph.edges))
    else:
        a = math.sqrt(float(beta) * float(gamma))
        down = float(beta) / float(gamma)
        scale = (float(gamma) / float(beta)) ** (len(graph.edges) / 2)

    if graph.n == 1 and not graph.edges:
        # edgeless singleton: Z = field + 1 on both sides, scale is 1
        ising = Instance(graph, SpinParams(a, a, 1))
        return ReductionCertificate(kind="ising", input=Instance(graph, p),
                                    output=ising, scale=scale,
                                    relation=INPUT_FROM_OUTPUT)

    deg = graph.degrees()
    for v, _ in graph.vertices:
        if deg[v] < 2:
            raise DomainError(
                f"vertex {v!r} has degree {deg[v]} < 2; contract pendants and strip "
                "isolated vertices first")

    new_fields = {}
    for v, f in graph.vertices:
        nf = f * half_power(down, deg[v]) if exact else float(f) * down ** (deg[v] / 2)
        cap_ok = nf <= 1 if exact else nf <= 1 + 1e-12
        if not cap_ok:
            raise DomainError(f"transformed field of {v!r} is {nf} > 1")
        new_fields[v] = nf
    ising = Instance(graph.with_fields(new_fields), SpinParams(a, a, 1))
    return ReductionCertificate(kind="ising", input=Instance(graph, p),
                                output=ising, scale=scale, relation=INPUT_FROM_OUTPUT)


def ising_pipeline(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """contract pendants, strip isolated vertices, then `to_ising` the core.

    Composes the three exact scale factors into one certificate relating the
    original instance to the final uniform Ising instance.
    """
    core, scale = contract_degree_one(graph, p)

    deg = core.degrees()
    isolated = [v for v, _ in core.vertices if deg[v] == 0]
    for v in isolated:
        scale = scale * (core.field_map[v] + 1)
    dropped = set(isolated)
    kept = tuple((v, f) for v, f in core.vertices if v not in dropped)
    out = core.output if core.output not in dropped else None
    core = FieldedGraph(kept, core.edges, out)

    ising_cert = to_ising(core, p) if core.n else None
    if ising_cert is not None:
        scale = scale * ising_cert.scale
        final = ising_cert.output
    else:
        exact = _all_exact(p.beta, p.gamma, p.mu)
        a = (sqrt_fraction(Fraction(p.beta) * Fraction(p.gamma)) if exact
             else math.sqrt(float(p.beta) * float(p.gamma)))
        final = Instance(core, SpinParams(a, a, 1))
    return ReductionCertificate(kind="pipeline", input=Instance(graph, p),
                                output=final, scale=scale, relation=INPUT_FROM_OUTPUT)
