"""Graph model and exact partition-function evaluation for two-spin systems.

Every vertex takes a spin in {0, 1}.  An edge (u, v) contributes
``A[s_u][s_v]`` with ``A = [[beta, 1], [1, gamma]]``; a vertex v contributes
its field when ``s_v = 0`` and 1 otherwise.  The partition function is the
sum over all 2^n configurations of the product of these factors.  Graphs are
multigraphs: parallel edges multiply, and a self-loop on v contributes beta
(spin 0) or gamma (spin 1) per loop.

Evaluation is exact, so it is the ground truth that the recursive gadget
evaluation and every reduction certificate are checked against.  One
variable-elimination engine serves every number type: float inputs run on
log tables (the float range never limits log Z), Fraction/Quad inputs on
tables of the input numbers, so identities can be verified with no rounding
at all.  A graph of induced width w (under the min-degree order) costs
O(n * 2^(w+1)) time and 2^(w+1) table entries; graphs of more than the
enumeration limit (default 24) vertices are refused whatever their width.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

import numpy as np

from .errors import CapacityError, DomainError, NumericError
from .exact import Quad

ENUM_LIMIT = 24

#: Partial spin assignment: vertex id -> spin in {0, 1}.
PinAssignment = Mapping[str, int]


def _positive(x) -> bool:
    return x > 0


@dataclass(frozen=True)
class SpinParams:
    """Edge interaction pair (beta, gamma) and uniform external field mu.

    beta weighs (0,0) edges, gamma weighs (1,1) edges, mixed edges weigh 1.
    mu is the a-priori weight of spin 0 on a free vertex.  The regime is
    ferromagnetic for beta*gamma > 1 and antiferromagnetic below 1.
    """

    beta: object
    gamma: object
    mu: object

    def __post_init__(self):
        if self.beta < 0 or self.gamma < 0:
            raise DomainError("beta and gamma must be non-negative")
        if not _positive(self.mu):
            raise DomainError("mu must be positive")

    @property
    def regime(self) -> str:
        bg = self.beta * self.gamma
        if bg > 1:
            return "ferromagnetic"
        if bg < 1:
            return "antiferromagnetic"
        return "degenerate"


@dataclass(frozen=True)
class FieldedGraph:
    """Multigraph with per-vertex external fields and an optional output vertex.

    ``vertices`` is a tuple of (id, field) pairs; ``edges`` a tuple of
    unordered id pairs, with u == v allowed (self-loop) and repeats allowed
    (parallel edges).  Construction accepts a mapping or iterable of pairs
    for vertices and any iterable of pairs for edges.
    """

    vertices: tuple
    edges: tuple
    output: Optional[str] = None

    def __post_init__(self):
        verts = self.vertices
        if isinstance(verts, Mapping):
            verts = tuple(verts.items())
        else:
            verts = tuple((v, f) for v, f in verts)
        edges = tuple((u, v) for u, v in self.edges)
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", edges)

        seen = set()
        for v, f in verts:
            if v in seen:
                raise DomainError(f"duplicate vertex id {v!r}")
            seen.add(v)
            if not _positive(f):
                raise DomainError(f"field of vertex {v!r} must be strictly positive")
        for u, v in edges:
            if u not in seen or v not in seen:
                raise DomainError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
        if self.output is not None and self.output not in seen:
            raise DomainError(f"output vertex {self.output!r} is not declared")

    @cached_property
    def field_map(self) -> dict:
        return dict(self.vertices)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def degrees(self) -> dict:
        """Degree of every vertex; a self-loop counts twice."""
        d = {v: 0 for v, _ in self.vertices}
        for a, b in self.edges:
            d[a] += 1
            d[b] += 1
        return d

    def with_fields(self, fields: Mapping) -> "FieldedGraph":
        """Copy with the given vertex fields replaced."""
        new = tuple((v, fields.get(v, f)) for v, f in self.vertices)
        return FieldedGraph(new, self.edges, self.output)


def _pick_path(graph: FieldedGraph, params: SpinParams, pins: PinAssignment,
               limit: int, exact: Optional[bool]) -> bool:
    """Validate the inputs; True when the exact path is to run.

    ``exact=None`` picks the exact path when any field or edge weight is a
    Fraction/Quad and the float path otherwise; True/False force a path.
    """
    if graph.n > limit:
        raise CapacityError(
            f"graph has {graph.n} vertices, enumeration limit is {limit}")
    for v, s in pins.items():
        if v not in graph.field_map:
            raise DomainError(f"pinned vertex {v!r} is not in the graph")
        if s not in (0, 1):
            raise DomainError(f"pin for {v!r} must be 0 or 1, got {s!r}")
    if exact is None:
        values = [params.beta, params.gamma] + [f for _, f in graph.vertices]
        return any(isinstance(x, (Fraction, Quad)) for x in values)
    return exact


def _eliminate(graph: FieldedGraph, params: SpinParams, pins: PinAssignment,
               exact: bool):
    """Z by variable elimination: exactly, or as log Z on the float path.

    Each vertex carries one unary factor (field, self-loops, pin) and each
    adjacent pair one factor ``[[beta^k, 1], [1, gamma^k]]`` for its k
    parallel edges.  Vertices go by least current degree, ties by position;
    eliminating v multiplies the factors on v, restricted to v = 0 and to
    v = 1, into one table each over v's neighbours and adds the two, so no
    new table spans v itself.  Exact tables are object arrays of the input
    numbers.  Float tables hold logs, so the product is a sum and the sum a
    log-sum-exp, and no entry leaves the float range.
    """
    if exact:
        unit, zero, mul, add = Fraction(1), Fraction(0), np.multiply, np.add
    else:
        unit, zero, mul, add = 0.0, -math.inf, np.add, np.logaddexp

    def weight(x, k):
        """x**k, or its log on the float path."""
        if exact:
            return x ** k
        return k * math.log(x) if x > 0 else (zero if k else unit)

    def product(parts, s, shape):
        """Product of a bucket's tables at spin s of the eliminated vertex."""
        out = np.broadcast_to(parts[0][s, ...], shape).copy()
        for t in parts[1:]:
            mul(out, t[s, ...], out=out)
        return out

    pos = {v: i for i, (v, _) in enumerate(graph.vertices)}
    beta, gamma = params.beta, params.gamma
    loops = [0] * len(pos)
    mult = Counter()
    for u, v in graph.edges:
        i, j = sorted((pos[u], pos[v]))
        if i == j:
            loops[i] += 1
        else:
            mult[i, j] += 1
    dtype = object if exact else float
    factors = []
    for i, (v, f) in enumerate(graph.vertices):
        row = [mul(weight(f, 1), weight(beta, loops[i])), weight(gamma, loops[i])]
        if v in pins:
            row[1 - pins[v]] = zero
        factors.append(((i,), np.array(row, dtype=dtype)))
    for (i, j), k in mult.items():
        table = [[weight(beta, k), unit], [unit, weight(gamma, k)]]
        factors.append(((i, j), np.array(table, dtype=dtype)))

    adj = [set() for _ in pos]
    for i, j in mult:
        adj[i].add(j)
        adj[j].add(i)
    z = unit
    remaining = set(range(len(pos)))
    while remaining:
        v = min(remaining, key=lambda i: (len(adj[i]), i))
        remaining.remove(v)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        rest = sorted(adj[v])
        shape = (2,) * len(rest)
        parts = [np.moveaxis(t, scope.index(v), 0).reshape(
            [2] + [2 if x in scope else 1 for x in rest]) for scope, t in bucket]
        msg = product(parts, 0, shape)
        add(msg, product(parts, 1, shape), out=msg)
        if rest:
            factors.append((tuple(rest), msg))
        else:
            z = mul(z, msg[()])
        for a in adj[v]:
            adj[a] |= adj[v]
            adj[a] -= {a, v}
    return z


def _log_partition_float(graph: FieldedGraph, params: SpinParams,
                         pins: PinAssignment) -> float:
    """log Z on the float path; -inf when Z == 0."""
    return float(_eliminate(graph, params, pins, exact=False))


def _partition_exact(graph: FieldedGraph, params: SpinParams,
                     pins: PinAssignment):
    """Z in the input number type, with no rounding."""
    return _eliminate(graph, params, pins, exact=True)


def _exp(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericError(
            f"{what} = exp({log_value!r}) overflows a float") from None


def partition_function(graph: FieldedGraph, params: SpinParams, *,
                       limit: int = ENUM_LIMIT, exact: Optional[bool] = None):
    """Partition function Z by variable elimination.

    ``exact=None`` picks the exact path when any field or edge weight is a
    Fraction/Quad and the float path otherwise; pass True/False to force.
    A float Z beyond the float range raises NumericError.
    """
    return pinned_partition(graph, params, {}, limit=limit, exact=exact)


def pinned_partition(graph: FieldedGraph, params: SpinParams,
                     pins: PinAssignment, *, limit: int = ENUM_LIMIT,
                     exact: Optional[bool] = None):
    """Partition function restricted to configurations agreeing with pins."""
    if _pick_path(graph, params, pins, limit, exact):
        return _partition_exact(graph, params, pins)
    return _exp(_log_partition_float(graph, params, pins), "Z")


def effective_field(graph: FieldedGraph, params: SpinParams, *,
                    limit: int = ENUM_LIMIT, exact: Optional[bool] = None):
    """Ratio Z(output=0)/Z(output=1) realised by the graph's output vertex."""
    if graph.output is None:
        raise DomainError("graph has no output vertex")
    pins = {graph.output: 0}, {graph.output: 1}
    if _pick_path(graph, params, pins[0], limit, exact):
        z0, z1 = (_partition_exact(graph, params, p) for p in pins)
        if z1 != 0:
            return z0 / z1
    else:
        l0, l1 = (_log_partition_float(graph, params, p) for p in pins)
        if l1 != -math.inf:
            return _exp(l0 - l1, "Z(output=0)/Z(output=1)")
    raise DomainError("conditioned partition function Z(output=1) is zero")


# ---------------------------------------------------------------------------
# Graph JSON: {"beta": r, "gamma": r, "vertices": [{"id": s, "field": r}],
#              "edges": [[u, v], ...], "output": s|null}

def graph_to_json(graph: FieldedGraph, params: SpinParams) -> dict:
    return {
        "beta": params.beta,
        "gamma": params.gamma,
        "vertices": [{"id": v, "field": f} for v, f in graph.vertices],
        "edges": [[u, v] for u, v in graph.edges],
        "output": graph.output,
    }


def graph_from_json(doc: Mapping) -> tuple[FieldedGraph, SpinParams]:
    """Parse graph JSON; number types in the document are preserved.

    The document carries no uniform field, so the returned params use mu = 1;
    evaluation only reads the per-vertex fields.
    """
    try:
        verts = tuple((item["id"], item["field"]) for item in doc["vertices"])
        edges = tuple((u, v) for u, v in doc["edges"])
        graph = FieldedGraph(verts, edges, doc.get("output"))
        params = SpinParams(doc["beta"], doc["gamma"], 1)
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed graph document: {exc}") from exc
    return graph, params
