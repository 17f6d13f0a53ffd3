"""Graph model and exact partition-function evaluation for two-spin systems.

Every vertex takes a spin in {0, 1}.  An edge (u, v) contributes
``A[s_u][s_v]`` with ``A = [[beta, 1], [1, gamma]]``; a vertex v contributes
its field when ``s_v = 0`` and 1 otherwise.  The partition function is the
sum over all 2^n configurations of the product of these factors.  Graphs are
multigraphs: parallel edges multiply, and a self-loop on v contributes beta
(spin 0) or gamma (spin 1) per loop.

Evaluation is exact, so it is the ground truth that the recursive gadget
evaluation and every reduction certificate are checked against.  One
variable-elimination engine serves every number type, and `exact.is_exact`
alone picks the tables: when beta, gamma and every field are ints, Fractions
or Quads, the tables hold Python integers over one common denominator (a
number of Q(sqrt(m)) as a 2x2 integer block), and Z is that one integer
over the denominator, reduced once, so identities can be verified with no
rounding and with no Fraction or Quad arithmetic inside the engine; when
any of them is a float, every weight goes to a log table (the float range
never limits log Z).  The min-degree order is planned on the graph alone,
and eliminating v spans v and its neighbours rest: O(n log n + sum of
2^(|rest|+1)) on either path.  A graph whose buckets span more than the
limit (default 24) vertices, w + 1 > limit at width w, is refused before any
table is built.  The effective field is one elimination that keeps the
output (never eliminates it, so it counts in its neighbours' buckets) and
ends with its table (Z(output=0), Z(output=1)).  The tables are numpy
arrays; the engine imports numpy.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional

from .errors import CapacityError, DomainError, NumericError
from .exact import Quad, is_exact

ENUM_LIMIT = 24


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


def _multiplicities(graph: FieldedGraph):
    """Self-loops per vertex position, and parallel edges per position pair i < j."""
    pos = {v: i for i, (v, _) in enumerate(graph.vertices)}
    loops = [0] * len(pos)
    mult = Counter()
    for u, v in graph.edges:
        i, j = sorted((pos[u], pos[v]))
        if i == j:
            loops[i] += 1
        else:
            mult[i, j] += 1
    return loops, mult


def _plan(factors: list, n: int, keep: tuple, limit: int) -> list:
    """Min-degree order from the factor scopes alone: one (v, rest) per step.

    Least current degree goes first, ties by position (a lazy heap of
    (degree, position) entries; stale ones are skipped).  The positions in
    ``keep`` count as done from the start, so they are never eliminated but
    stay in the ``rest`` of their neighbours.  v's bucket spans v and its
    sorted neighbours ``rest``, so a width w = max |rest| with w + 1 > limit
    raises CapacityError before any table is built.
    """
    import heapq

    adj = [set() for _ in range(n)]
    for scope, _ in factors:
        if len(scope) == 2:
            i, j = scope
            adj[i].add(j)
            adj[j].add(i)
    heap = sorted((len(a), i) for i, a in enumerate(adj))
    steps, done = [], [i in keep for i in range(n)]
    while heap:
        degree, v = heapq.heappop(heap)
        if done[v] or degree != len(adj[v]):
            continue
        done[v] = True
        steps.append((v, sorted(adj[v])))
        for a in adj[v]:
            adj[a] |= adj[v]
            adj[a] -= {a, v}
            heapq.heappush(heap, (len(adj[a]), a))
    span = max((len(rest) + 1 for _, rest in steps), default=0)
    if span > limit:
        raise CapacityError(f"elimination width {span - 1} needs buckets of {span} "
                            f"vertices, enumeration limit is {limit}")
    return steps


def _eliminate(factors: list, n: int, keep: tuple, unit, mul, add, limit: int):
    """Contract the factor tables over every vertex position not in ``keep``.

    A factor is (scope, table): one table axis of size 2 per vertex of the
    sorted scope, then the block axes that ``unit`` has (none on the float
    path).  Eliminating v folds its live factors, in creation order and
    reshaped onto the sorted {v} | rest, left to right with ``mul``, and
    adds the v = 0 and v = 1 halves.  The factors left at the end lie on
    kept positions and fold the same way into the result: Z when ``keep``
    is empty, else one table axis per kept position, in sorted order.  numpy
    is imported here, on the first evaluation, so that importing the
    package stays cheap.
    """
    import numpy as np

    block = list(np.shape(unit))
    index = [[] for _ in range(n)]  # ids of the factors on each vertex
    for k, (scope, _) in enumerate(factors):
        for x in scope:
            index[x].append(k)

    def fold(ids, axes):
        out = None
        for k in ids:
            if factors[k] is not None:
                (scope, t), factors[k] = factors[k], None
                t = t.reshape([2 if x in scope else 1 for x in axes] + block)
                out = t if out is None else mul(out, t)
        return out

    z = unit
    for v, rest in _plan(factors, n, keep, limit):
        axes = sorted([v, *rest])
        out = fold(index[v], axes)
        at = (slice(None),) * axes.index(v)
        msg = add(out[at + (0,)], out[at + (1,)])
        del out  # the next bucket's fold must not run beside this table
        if rest:
            for x in rest:
                index[x].append(len(factors))
            factors.append((tuple(rest), msg))
        else:
            z = mul(z, msg[()])
    return mul(z, fold(range(len(factors)), sorted(keep))) if keep else z


def _log_partition_float(graph: FieldedGraph, params: SpinParams,
                         keep: tuple, *, limit: int = ENUM_LIMIT) -> list:
    """log Z(kept spins = s) for each s in binary order on the float path.

    One value, log Z, when ``keep`` is empty; -inf where that Z is 0.  Tables
    hold logs, so the product is a sum and the sum a log-sum-exp, and no
    entry leaves the float range.
    """
    import numpy as np

    def weight(x, k):
        """log(x**k)."""
        return k * math.log(x) if x > 0 else (-math.inf if k else 0.0)

    beta, gamma = params.beta, params.gamma
    loops, mult = _multiplicities(graph)
    factors = []
    for i, (v, f) in enumerate(graph.vertices):
        row = [weight(f, 1) + weight(beta, loops[i]), weight(gamma, loops[i])]
        factors.append(((i,), np.array(row, dtype=float)))
    for (i, j), k in mult.items():
        table = [[weight(beta, k), 0.0], [0.0, weight(gamma, k)]]
        factors.append(((i, j), np.array(table, dtype=float)))
    kept = tuple(i for i, (v, _) in enumerate(graph.vertices) if v in keep)
    z = _eliminate(factors, graph.n, kept, 0.0, np.add, np.logaddexp, limit)
    return [float(x) for x in np.ravel(z)]


def _radicand(values) -> int:
    """The one m of the Quads among values that have a sqrt part; 1 if none."""
    found = list(dict.fromkeys(x.m for x in values if isinstance(x, Quad) and x.b))
    if len(found) > 1:
        raise ValueError(f"incompatible radicands sqrt({found[0]}) vs sqrt({found[1]})")
    return found[0] if found else 1


def _lift(x, m: int):
    """x = (a + b*sqrt(m)) / d as (block, d) with integers a, b, d.

    The block is [[a, m*b], [b, a]], the matrix of multiplication by
    a + b*sqrt(m) on the basis (1, sqrt(m)), or [[a]] when m == 1: products
    of numbers are matrix products of their blocks, and sums are sums.
    """
    import numpy as np

    a, b = (x.a, x.b) if isinstance(x, Quad) else (Fraction(x), 0)
    d = math.lcm(a.denominator, b.denominator)
    a, b = a.numerator * d // a.denominator, b.numerator * d // b.denominator
    return np.array([[a, m * b], [b, a]] if m > 1 else [[a]], dtype=object), d


def _partition_exact(graph: FieldedGraph, params: SpinParams,
                     keep: tuple, *, limit: int = ENUM_LIMIT) -> list:
    """Z(kept spins = s) for each s in binary order, with no rounding.

    One value, Z, when ``keep`` is empty.  Fraction-free elimination: beta,
    gamma and every field are lifted once to an integer block over an
    integer denominator (`_lift`), each factor table is built from integer
    blocks with its denominator multiplied into one D, and each result is
    its block over D, reduced once.  With beta = B/db and gamma = G/dg,
    every edge table times db*dg has the integer entries B*dg, db*dg and
    G*db, and a vertex row [f, 1] times f's denominator df is [F, df]; so
    D = (prod of df) * (db*dg)**(number of edges).  The results are Quads
    when the graph has a vertex and beta, gamma or a field is a Quad (as
    with Quad arithmetic), else Fractions.
    """
    import numpy as np

    beta, gamma = params.beta, params.gamma
    fields = [f for _, f in graph.vertices]
    m = _radicand([beta, gamma] + fields)
    (B, db), (G, dg) = _lift(beta, m), _lift(gamma, m)
    unit = np.identity(len(B), dtype=object)
    loops, mult = _multiplicities(graph)
    # the edge weights beta, 1, gamma times db*dg, to the power of each
    # self-loop count and edge multiplicity
    weights = {k: [np.linalg.matrix_power(x, k) for x in (B * dg, unit * (db * dg), G * db)]
               for k in {*loops, *mult.values()}}
    factors = []
    denominator = (db * dg) ** len(graph.edges)
    for i, f in enumerate(fields):
        F, df = _lift(f, m)
        denominator *= df
        beta_k, _, gamma_k = weights[loops[i]]
        factors.append(((i,), np.array([F @ beta_k, df * gamma_k], dtype=object)))
    for (i, j), k in mult.items():
        beta_k, mixed_k, gamma_k = weights[k]
        table = [[beta_k, mixed_k], [mixed_k, gamma_k]]
        factors.append(((i, j), np.array(table, dtype=object)))
    kept = tuple(i for i, (v, _) in enumerate(graph.vertices) if v in keep)
    z = _eliminate(factors, graph.n, kept, unit, np.matmul, np.add, limit)

    quad = graph.n and any(isinstance(x, Quad) for x in [beta, gamma] + fields)
    values = []
    for b in np.reshape(z, (-1, *unit.shape)):
        a = Fraction(b[0, 0], denominator)
        values.append(Quad(a, Fraction(b[1, 0], denominator) if m > 1 else 0, m)
                      if quad else a)
    return values


def _exp(log_value: float, what: str) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericError(
            f"{what} = exp({log_value!r}) overflows a float") from None


def partition_function(graph: FieldedGraph, params: SpinParams, *,
                       limit: int = ENUM_LIMIT):
    """Partition function Z by variable elimination.

    Exact inputs (see `exact.is_exact`) give an exact Z; otherwise Z is a
    float, and one beyond the float range raises NumericError.
    """
    if is_exact(params.beta, params.gamma, *(f for _, f in graph.vertices)):
        (z,) = _partition_exact(graph, params, (), limit=limit)
        return z
    (log_z,) = _log_partition_float(graph, params, (), limit=limit)
    return _exp(log_z, "Z")


def effective_field(graph: FieldedGraph, params: SpinParams, *,
                    limit: int = ENUM_LIMIT):
    """Ratio Z(output=0)/Z(output=1) realised by the graph's output vertex.

    One elimination that never eliminates the output leaves its 2-entry
    table (Z(output=0), Z(output=1)).  The output counts in the buckets of
    its neighbours, so the capacity limit applies to them as usual.
    """
    if graph.output is None:
        raise DomainError("graph has no output vertex")
    keep = (graph.output,)
    if is_exact(params.beta, params.gamma, *(f for _, f in graph.vertices)):
        z0, z1 = _partition_exact(graph, params, keep, limit=limit)
        if z1 != 0:
            return z0 / z1
    else:
        l0, l1 = _log_partition_float(graph, params, keep, limit=limit)
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
