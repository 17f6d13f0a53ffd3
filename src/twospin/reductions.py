"""Partition-function-preserving transformations with verifiable certificates.

Three families:

* `bipartite_transform`: an antiferromagnetic Ising instance on a bipartite
  graph becomes a ferromagnetic (beta, gamma) instance on the same graph with
  degree-dependent fields; Z_ferro = gamma**|E| * mu'**(-|R|) * Z_anti.
* `realize_field_selfloops` (gamma > beta > 1): self-loops and bristles on a
  single output vertex realise any positive target field within exp(+-1/m);
  the loop and bristle counts come from an exact integer first-hit search.
* `contract_degree_one` + `to_ising`: peel pendant vertices (each removal
  contributes mu_u + gamma to the scale), then rebalance edge weights into a
  uniform Ising instance with a = sqrt(beta*gamma) and per-vertex fields
  mu_v * (beta/gamma)**(deg/2); Z = sqrt(gamma/beta)**|E'| * Z_ising.

Every operation returns a `ReductionCertificate` holding both instances, the
relating scalar, and the direction the scalar applies in; `verify_reduction`
re-evaluates both partition functions and stamps the certificate.  Each
formula is written once, over the number type `lift` picks: when every input
is exact (`exact.is_exact`: int, Fraction or Quad) it runs in Fraction/Quad
arithmetic and the certificate is checked with ``==``; when any input is a
float it runs in floats and is checked to a relative tolerance.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from fractions import Fraction
from itertools import chain, compress, repeat
from typing import NamedTuple, Optional, Sequence

from .core import (ENUM_LIMIT, FieldedGraph, SpinParams, partition_function)
from .errors import CapacityError, DomainError, NumericError, in_float_range
from .exact import half_power, is_exact, sqrt_fraction
from .gadgets import MATERIALIZE_LIMIT

OUTPUT_FROM_INPUT = "output = scale * input"
INPUT_FROM_OUTPUT = "input = scale * output"


class Instance(NamedTuple):
    graph: FieldedGraph
    params: SpinParams


class ReductionCertificate(NamedTuple):
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


def lift(*values) -> tuple:
    """The values in one number type: ints become Fractions when every value
    is exact, and every value becomes a float otherwise."""
    if is_exact(*values):
        return tuple(Fraction(v) if isinstance(v, int) else v for v in values)
    return tuple(map(float, values))


def _root(beta, gamma):
    """sqrt(beta*gamma), exact for exact inputs: the one square root that the
    bipartite and Ising transforms take."""
    bg = beta * gamma
    if not bg:  # sqrt_fraction takes positive values only
        return bg
    return in_float_range("sqrt(beta*gamma)", sqrt_fraction if is_exact(bg) else math.sqrt, bg)


def _half_power(x, k: int, what: str, root):
    """x**(k/2); exact (Fraction/Quad) for an exact x, where ``root`` is
    sqrt(x), so that no further square root is taken."""
    return half_power(x, k, root) if is_exact(x) else in_float_range(what, pow, x, k / 2)


def verify_reduction(cert: ReductionCertificate, *, limit: int = ENUM_LIMIT
                     ) -> ReductionCertificate:
    """Re-evaluate both sides and stamp ``verified``.

    Exact sides (`exact.is_exact`) are required to agree exactly; otherwise
    they must agree to a relative error of 1e-9.
    """
    z_in = partition_function(cert.input.graph, cert.input.params, limit=limit)
    z_out = partition_function(cert.output.graph, cert.output.params, limit=limit)
    if cert.relation == OUTPUT_FROM_INPUT:
        lhs, rhs = z_out, cert.scale * z_in
    elif cert.relation == INPUT_FROM_OUTPUT:
        lhs, rhs = z_in, cert.scale * z_out
    else:
        raise DomainError(f"unknown certificate relation {cert.relation!r}")
    if is_exact(lhs, rhs):
        ok = lhs == rhs
    else:
        lhs_f, rhs_f = float(lhs), float(rhs)
        ok = abs(lhs_f - rhs_f) <= 1e-9 * abs(lhs_f)
    return cert._replace(verified=bool(ok))


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
    The instances are exact (Fraction/Quad) when beta, gamma and mu' all are.
    """
    beta, gamma, mu_prime = lift(target.beta, target.gamma, mu_prime)
    if not beta * gamma > 1:
        raise DomainError("target system must be ferromagnetic (beta*gamma > 1)")
    if not beta < gamma:
        raise DomainError("requires beta < gamma")
    if not mu_prime > 1:
        raise DomainError("mu' must exceed 1")
    part_l, part_r = _bipartition(graph, left)

    deg = graph.degrees()
    root = _root(beta, gamma)  # sqrt(gamma/beta) = root/beta
    q, ratio, root_ratio = 1 / root, gamma / beta, root / beta
    up = {d: _half_power(ratio, d, f"(gamma/beta)**({d}/2)", root_ratio)
          for d in set(deg.values())}
    fields = {v: mu_prime * up[deg[v]] for v in part_l}
    if not is_exact(mu_prime):  # R's fields, up[deg] / mu', stay below a finite up[deg]
        for v in part_l:
            in_float_range(f"transformed field of {v!r}", fields.get, v)
    fields.update({v: up[deg[v]] / mu_prime for v in part_r})
    scale = (in_float_range("gamma**|E|", pow, gamma, len(graph.edges))
             / in_float_range("mu'**|R|", pow, mu_prime, len(part_r)))

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


def _first_hit(step: int, modulus: int, offset: int, width: int) -> Optional[int]:
    """Least k >= 0 with (k*step + offset) mod modulus <= width; None if none.

    If no k hits before k*step + offset first passes a multiple of modulus,
    the passes that can still hit solve the same problem for (modulus mod
    step, step), so the loop follows Euclid's algorithm on (step, modulus):
    O(log modulus) steps, all on integers.
    """
    offset %= modulus
    if offset <= width:
        return 0
    # least k with lo <= (k*step) mod modulus <= hi, where 0 < lo <= hi < modulus
    step, lo, hi = step % modulus, modulus - offset, modulus - offset + width
    frames = []
    while True:
        if step == 0:
            return None
        k = -(-lo // step)
        if k * step <= hi:
            break
        frames.append((step, modulus, lo))
        step, modulus, lo, hi = modulus % step, step, step - hi % step, step - lo % step
    for step, modulus, lo in reversed(frames):
        k = -(-(lo + modulus * k) // step)  # first k in the pass found one level down
    return k


def _least_loops_and_bristles(target, m: int, beta: float, gamma: float, mu: float
                              ) -> tuple[int, int]:
    """Least y, and the nearest x >= 0, with |y*b - x*a - ln(target/mu)| <= 1/m.

    a, b, ln(target/mu) and 1/m are the floats of `realize_field_selfloops`,
    written as integers over their common power-of-two denominator, so the
    search is exact: from the least y with y*b - ln(target/mu) >= -1/m,
    `_first_hit` finds the first y that comes within 1/m of a multiple of a.
    A y beyond `MATERIALIZE_LIMIT` raises CapacityError.
    """
    if float(target) / mu == 0.0:
        raise NumericError(f"target/mu = {float(target)!r}/{mu!r} underflows a float")
    floats = (math.log(gamma / beta), math.log((mu * beta + 1) / (mu + gamma)),
              math.log(float(target) / mu), 1.0 / m)
    if not floats[0] > 0 < floats[1]:
        raise NumericError("ln(gamma/beta) or the bristle increment rounds to 0")
    den = max(f.as_integer_ratio()[1] for f in floats)
    a, b, shift, eps = (n * (den // d) for n, d in (f.as_integer_ratio() for f in floats))
    y0 = max(0, -((eps - shift) // b))  # least y with y*b - shift >= -eps
    k = _first_hit(b, a, y0 * b - shift + eps, 2 * eps)
    if k is None:
        raise NumericError(f"no integers (x, y) reach the target within 1/m = {1.0 / m}")
    y = y0 + k
    if y + 1 > MATERIALIZE_LIMIT:
        raise CapacityError(f"self-loop gadget needs y = {y} bristles, "
                            f"{y + 1} vertices; limit {MATERIALIZE_LIMIT}")
    return max(0, round(Fraction(y * b - shift, a))), y


def realize_field_selfloops(target, m: int, p: SpinParams) -> SelfloopRealization:
    """Loop/bristle gadget realising target within a log-error of 1/m.

    Requires gamma > beta > 1 and mu > (gamma-1)/(beta-1), which makes both
    the per-loop decrement a = ln(gamma/beta) and the per-bristle increment
    b = ln((mu*beta+1)/(mu+gamma)) positive.  The smallest y for which some
    integer x >= 0 has |y*b - x*a - ln(target/mu)| <= 1/m is found by an
    exact integer search.  Every scalar step comes before anything that grows
    with y: the search (a gadget of more than `MATERIALIZE_LIMIT` vertices
    raises CapacityError), then the achieved field (0.0 raises NumericError;
    a float overflow still escapes as OverflowError, a known defect).  Only a
    realisation that is returned builds its bristles and its graph.
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

    x, y = _least_loops_and_bristles(target, m, beta, gamma, mu)
    achieved = mu * (beta / gamma) ** x * ((mu * beta + 1) / (mu + gamma)) ** y
    if achieved == 0.0:
        raise NumericError(f"the achieved field of x = {x} loops and y = {y} bristles "
                           "underflows a float")
    bristles = [f"b{i}" for i in range(y)]
    vertices = (("v0", p.mu), *zip(bristles, repeat(p.mu)))
    edges = (("v0", "v0"),) * x + tuple(zip(repeat("v0"), bristles))
    gadget = FieldedGraph(vertices, edges, output="v0")
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
    beta, gamma and the fields are first lifted to one number type (`lift`).

    Cost: O(|V| + |E| + sum of k log k over the rounds' k pendants).  Each
    vertex keeps its degree and the XOR of the ids of its live edges, so at
    degree 1 that XOR is the id of its one edge, found without a scan.
    """
    beta, gamma, *values = lift(p.beta, p.gamma, *graph.field_map.values())
    fields = dict(zip(graph.field_map, values))
    edges = graph.edges
    deg = dict(Counter(chain.from_iterable(edges)))
    link = dict.fromkeys(deg, 0)  # XOR of the ids of the live edges; a loop cancels
    for i, (a, b) in enumerate(edges):
        link[a] ^= i
        link[b] ^= i
    alive = [True] * len(edges)
    scale = 1

    pendants = sorted(v for v, d in deg.items() if d == 1)
    while pendants:
        touched = []
        for u in pendants:
            if deg[u] != 1:
                continue  # degree changed earlier in this round
            i = link[u]
            a, b = edges[i]
            v = b if a == u else a
            x = fields.pop(u)
            scale = scale * (x + gamma)
            fields[v] = fields[v] * ((beta * x + 1) / (x + gamma))  # edge_ratio(x)
            alive[i] = False
            deg[u] = 0
            deg[v] -= 1
            link[v] ^= i
            touched.append(v)
        pendants = sorted({v for v in touched if deg[v] == 1})

    remaining = tuple(fields.items())  # a dict keeps its keys in input order
    kept = tuple(compress(edges, alive))
    out = graph.output if graph.output in fields else None
    return FieldedGraph(remaining, kept, out), scale


def contract_certificate(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """Certificate wrapper for `contract_degree_one` (Z_in = scale * Z_out);
    a float peel that divides by zero, or leaves a field beyond the float
    range, is a NumericError."""
    core, scale = in_float_range("the pendant peel", contract_degree_one, graph, p)
    for v, _ in core.vertices:  # the peel's float products are checked here, once
        in_float_range(f"the field of {v!r} after the peel", core.field_map.get, v)
    return ReductionCertificate(kind="contract", input=Instance(graph, p),
                                output=Instance(core, p), scale=scale,
                                relation=INPUT_FROM_OUTPUT)


def to_ising(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """Uniform Ising instance with a = sqrt(beta*gamma) on the same graph.

    Needs beta > 0, every field <= mu <= gamma/beta and minimum degree 2
    (self-loops count twice), or a single edgeless vertex, which is certified
    in closed form.  Transformed fields mu_v * (beta/gamma)**(deg/2) are
    checked to be at most 1; in floats both caps allow a relative 1e-12 of
    rounding.  Z_in = sqrt(gamma/beta)**|E| * Z_ising.
    """
    beta, gamma, mu, *fields = lift(p.beta, p.gamma, p.mu, *(f for _, f in graph.vertices))
    slack = 1 if is_exact(mu) else 1 + 1e-12
    if not mu * beta <= gamma:
        raise DomainError("requires mu <= gamma/beta")
    for (v, _), f in zip(graph.vertices, fields):
        if not f <= mu * slack:
            raise DomainError(f"field of vertex {v!r} exceeds mu={p.mu}")
    if not beta > 0:
        raise DomainError("requires beta > 0")

    a = _root(beta, gamma)  # sqrt(gamma/beta) = a/beta and sqrt(beta/gamma) = a/gamma
    if graph.n == 1 and not graph.edges:
        # edgeless singleton: Z = field + 1 on both sides, scale is 1
        ising = Instance(graph, SpinParams(a, a, 1))
    else:
        deg = graph.degrees()
        for v, _ in graph.vertices:
            if deg[v] < 2:
                raise DomainError(
                    f"vertex {v!r} has degree {deg[v]} < 2; contract pendants and strip "
                    "isolated vertices first")

        down, root_down = beta / gamma, a / gamma
        shrink = {d: _half_power(down, d, f"(beta/gamma)**({d}/2)", root_down)
                  for d in set(deg.values())}
        new_fields = {}
        for (v, _), f in zip(graph.vertices, fields):
            nf = f * shrink[deg[v]]
            if not nf <= slack:
                raise DomainError(f"transformed field of {v!r} is {nf} > 1")
            if nf == 0:
                raise NumericError(f"transformed field of {v!r} underflows a float")
            new_fields[v] = nf
        ising = Instance(graph.with_fields(new_fields), SpinParams(a, a, 1))
    # after the fields, so that a field's underflow is named before the scale
    scale = _half_power(gamma / beta, len(graph.edges), "sqrt(gamma/beta)**|E|", a / beta)
    return ReductionCertificate(kind="ising", input=Instance(graph, p),
                                output=ising, scale=scale, relation=INPUT_FROM_OUTPUT)


def ising_pipeline(graph: FieldedGraph, p: SpinParams) -> ReductionCertificate:
    """contract pendants, strip isolated vertices, then `to_ising` the core.

    Composes the three exact scale factors into one certificate relating the
    original instance to the final uniform Ising instance.
    """
    core, scale = in_float_range("the pendant peel", contract_degree_one, graph, p)

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
        # empty core: the Ising instance has no edges, so a is all there is to set
        beta, gamma, _ = lift(p.beta, p.gamma, p.mu)
        a = _root(beta, gamma)
        final = Instance(core, SpinParams(a, a, 1))
    return ReductionCertificate(kind="pipeline", input=Instance(graph, p),
                                output=final, scale=scale, relation=INPUT_FROM_OUTPUT)
