"""Graph model and exact partition-function evaluation for two-spin systems.

Every vertex takes a spin in {0, 1}.  An edge (u, v) contributes
``A[s_u][s_v]`` with ``A = [[beta, 1], [1, gamma]]``; a vertex v contributes
its field when ``s_v = 0`` and 1 otherwise.  The partition function is the
sum over all 2^n configurations of the product of these factors.  Graphs are
multigraphs: parallel edges multiply, and a self-loop on v contributes beta
(spin 0) or gamma (spin 1) per loop.

Evaluation is exact, so it is the ground truth that the recursive gadget
evaluation and every reduction certificate are checked against.  One table
builder and one variable-elimination engine serve two number systems, and
`exact.is_exact` alone picks the system: when beta, gamma and every field
are ints, Fractions or Quads, the entries are Python integers over one
common denominator (a bare integer per entry, or a 2x2 integer block for a
number of Q(sqrt(m))), and Z is that one integer over the denominator,
reduced once, so identities can be verified with no rounding and with no
Fraction or Quad arithmetic inside the engine; when any of them is a float,
the entries are logs (the float range never limits log Z).  In both, each
vertex's row is folded into one of its edge tables, and the tables are
built in one array pass over the edges.  On logs, a bucket's halves of 256
entries or more are summed as max(a, b) + log1p(exp(-|a - b|)) in vector
ufuncs, below that by ``np.logaddexp``.  The min-degree order
is planned on the graph alone, and eliminating v spans v and its neighbours
rest: O(n log n + sum of 2^(|rest|+1)).  A graph whose buckets span more
than the limit (default 24) vertices, w + 1 > limit at width w, is refused
before any table is built.  The effective field is one elimination that
keeps the output (never eliminates it, so it counts in its neighbours'
buckets) and ends with its table (Z(output=0), Z(output=1)), whose sum is
Z.  The tables are numpy arrays; the engine imports numpy.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from typing import Mapping, NamedTuple, Optional

from .errors import CapacityError, DomainError, in_float_range
from .exact import Quad, is_exact

ENUM_LIMIT = 24
_LOG_ADD_CROSSOVER = 256  # entries per half from which `_log_add` runs vector ufuncs


def _positive(x) -> bool:
    return x > 0


def _pairs(items) -> tuple:
    """``items`` as a tuple of 2-tuples; a non-pair raises as unpacking it does."""
    items = tuple(items)
    try:
        pairs = tuple(map(tuple, items))
        if set(map(len, pairs)) <= {2}:
            return pairs
    except TypeError:  # an item that is not iterable
        pairs = items
    return tuple((a, b) for a, b in pairs)


class _SpinParams(NamedTuple):
    beta: object
    gamma: object
    mu: object


class SpinParams(_SpinParams):
    """Edge interaction pair (beta, gamma) and uniform external field mu.

    beta weighs (0,0) edges, gamma weighs (1,1) edges, mixed edges weigh 1.
    mu is the a-priori weight of spin 0 on a free vertex.  The regime is
    ferromagnetic for beta*gamma > 1 and antiferromagnetic below 1.
    """

    __slots__ = ()

    def __new__(cls, beta, gamma, mu):
        if beta < 0 or gamma < 0:
            raise DomainError("beta and gamma must be non-negative")
        if not _positive(mu):
            raise DomainError("mu must be positive")
        return super().__new__(cls, beta, gamma, mu)


class _FieldedGraph(NamedTuple):
    vertices: tuple
    edges: tuple
    output: Optional[str] = None


class FieldedGraph(_FieldedGraph):
    """Multigraph with per-vertex external fields and an optional output vertex.

    ``vertices`` is a tuple of (id, field) pairs; ``edges`` a tuple of
    unordered id pairs, with u == v allowed (self-loop) and repeats allowed
    (parallel edges).  Construction accepts a mapping or iterable of pairs
    for vertices and any iterable of pairs for edges.  Unlike the other
    records it has an instance ``__dict__``, which holds ``field_map``.
    """

    def __new__(cls, vertices, edges, output=None):
        verts = (tuple(vertices.items()) if isinstance(vertices, Mapping)
                 else _pairs(vertices))
        edges = _pairs(edges)
        self = super().__new__(cls, verts, edges, output)

        # every check at C speed; only a failing graph runs the loop below,
        # which names the first offender
        try:
            fmap = dict(verts)
            if (len(fmap) == len(verts)
                    and all(map(operator.gt, fmap.values(), repeat(0)))
                    and all(map(fmap.__contains__, chain.from_iterable(edges)))
                    and (output is None or output in fmap)):
                self.__dict__["field_map"] = fmap
                return self
        except TypeError:  # an unhashable id or an unordered field
            pass
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
        if output is not None and output not in seen:
            raise DomainError(f"output vertex {output!r} is not declared")
        return self

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


def _evaluate(graph: FieldedGraph, params: SpinParams, keep: tuple, limit: int,
              lift, times, power, cell, unit, mul, add) -> tuple:
    """The one table builder: (numerators, denominator) in a number system,
    Z(kept spins = s) = numerators[s] / denominator for each s in binary
    order, with one numerator, not a table, when ``keep`` is empty.

    The system is ``lift(x)``, x as a (numerator, denominator) pair;
    ``times``; ``power(x, k)``, which is the one at k = 0 even for a zero x;
    ``cell(x)``, x as a table entry; and the engine's ``unit``, ``mul`` and
    ``add`` (`_eliminate`).  With beta = B/db and gamma = G/dg, every edge
    table times db*dg has the entries B*dg, db*dg and G*db, and a vertex row
    [f, 1] times f's denominator df is [F, df], so the denominator is
    D = (prod of df) * (db*dg)**(number of edges).  Each vertex row (with its
    self-loops) is multiplied into the first pair table that holds the
    vertex; only a vertex in no pair table has a table of its own.  The
    tables come from one array pass: each edge gathers its multiplicity's
    table from one cell array, and ``mul`` scales the tables that hold a row
    by it, rows before columns.
    """
    import numpy as np

    pos = {v: i for i, (v, _) in enumerate(graph.vertices)}
    loops, mult = [0] * graph.n, Counter()  # self-loops per position, edges per i < j
    for u, v in graph.edges:
        i, j = sorted((pos[u], pos[v]))
        if i == j:
            loops[i] += 1
        else:
            mult[i, j] += 1
    (B, db), (G, dg) = lift(params.beta), lift(params.gamma)
    scale = times(db, dg)
    # the edge weights beta, 1, gamma times db*dg, to the power of each
    # self-loop count and edge multiplicity
    weights = {k: (power(times(B, dg), k), power(scale, k), power(times(G, db), k))
               for k in {*loops, *mult.values()}}
    denominator = power(scale, len(graph.edges))
    rows = []
    for i, (_, f) in enumerate(graph.vertices):
        F, df = lift(f)
        denominator = times(denominator, df)
        beta_k, _, gamma_k = weights[loops[i]]
        rows.append((cell(times(F, beta_k)), cell(times(df, gamma_k))))
    # a vertex's row scales the rows (side 0) or the columns (side 1) of
    # the first pair table that holds it
    free, held = [True] * graph.n, ([], [])  # held[side]: (table, vertex) pairs
    for e, pair in enumerate(mult):
        for side, x in enumerate(pair):
            if free[x]:
                free[x] = False
                held[side].append((e, x))
    dtype, block = np.asarray(unit).dtype, np.shape(unit)
    slot = {k: s for s, k in enumerate(weights)}
    tables = np.array([[[cell(b), cell(x)], [cell(x), cell(g)]] for b, x, g in weights.values()],
                      dtype=dtype).reshape(-1, 2, 2, *block)[[slot[k] for k in mult.values()]]
    rows = np.array(rows, dtype=dtype).reshape(-1, 2, *block)
    for side, shape in enumerate(((2, 1), (1, 2))):
        if held[side]:
            es, xs = map(list, zip(*held[side]))
            tables[es] = mul(tables[es], rows[xs].reshape(-1, *shape, *block))
    factors = [*zip(mult, tables), *(((i,), rows[i]) for i in range(graph.n) if free[i])]
    kept = tuple(i for i, (v, _) in enumerate(graph.vertices) if v in keep)
    return _eliminate(factors, graph.n, kept, unit, mul, add, limit), denominator


def _log_add(a, b, out=None):
    """log(exp(a) + exp(b)) entrywise, the float engine's ``add``.

    Halves below `_LOG_ADD_CROSSOVER` entries go to ``np.logaddexp``; larger
    ones to max(a, b) + log1p(exp(min(a, b) - max(a, b))), the same function
    (the form ``np.logaddexp`` evaluates one entry at a time) in whole-array
    ufuncs, with one temporary beside the result.  A pair of -infs (a zero
    beta or gamma) gives -inf with no floating-point warning.
    """
    import numpy as np

    if np.size(a) < _LOG_ADD_CROSSOVER:
        return np.logaddexp(a, b, out=out)
    gap = np.minimum(a, b)
    out = np.maximum(a, b, out=out)  # ``out`` may be ``a``: read a, b before this
    with np.errstate(invalid="ignore"):  # -inf - -inf is nan
        np.subtract(gap, out, out=gap)
    np.fmin(gap, 0.0, out=gap)  # nan to 0: -inf + log(2) is -inf
    np.exp(gap, out=gap)
    np.log1p(gap, out=gap)
    return np.add(out, gap, out=out)


def _log_partition_float(graph: FieldedGraph, params: SpinParams,
                         keep: tuple, *, limit: int = ENUM_LIMIT) -> list:
    """log Z(kept spins = s) for each s in binary order on the float path.

    One value, log Z, when ``keep`` is empty; -inf where that Z is 0.  Tables
    hold logs, so the product is a sum, the sum a log-sum-exp and every
    denominator log 1 = 0, and no entry leaves the float range.
    """
    import numpy as np

    def lift(x):
        return (math.log(x) if x > 0 else -math.inf), 0.0

    def power(x, k):  # log(x**k); 0 at k = 0, also for log 0
        return k * x if k else 0.0

    z, _ = _evaluate(graph, params, keep, limit, lift, operator.add, power, float,
                     0.0, np.add, _log_add)
    return [float(x) for x in np.ravel(z)]


def _partition_exact(graph: FieldedGraph, params: SpinParams,
                     keep: tuple, *, limit: int = ENUM_LIMIT) -> list:
    """Z(kept spins = s) for each s in binary order, with no rounding.

    One value, Z, when ``keep`` is empty.  Fraction-free elimination: beta,
    gamma and every field are lifted once to integers a + b*sqrt(m) over an
    integer denominator, and the result is reduced once.  Entries are
    computed in Python integers and each table is made by one object-array
    call: an entry is an int on a trailing axis of size 1 when m == 1
    (elementwise products), else the block [[a, m*b], [b, a]] of
    multiplication by a + b*sqrt(m) (matrix products).  The results are
    Quads when the graph has a vertex and beta, gamma or a field is a Quad
    (as with Quad arithmetic), else Fractions.
    """
    import numpy as np

    values = [params.beta, params.gamma] + [f for _, f in graph.vertices]
    radicands = list(dict.fromkeys(x.m for x in values if isinstance(x, Quad) and x.b))
    if len(radicands) > 1:
        raise ValueError(f"incompatible radicands sqrt({radicands[0]}) vs sqrt({radicands[1]})")
    m = radicands[0] if radicands else 1

    if m > 1:  # a + b*sqrt(m) as the pair (a, b); an entry is its 2x2 block
        unit, mul = np.identity(2, dtype=object), np.matmul

        def number(a, b):
            return a, b

        def times(x, y):
            return x[0] * y[0] + m * x[1] * y[1], x[0] * y[1] + x[1] * y[0]

        def power(x, k):  # x**k by repeated squaring
            out = 1, 0
            while k:
                if k & 1:
                    out = times(out, x)
                k >>= 1
                if k:
                    x = times(x, x)
            return out

        def cell(x):
            return [[x[0], m * x[1]], [x[1], x[0]]]
    else:  # an int; the unit is an array, as a bare int reaching a ufunc becomes int64
        unit, mul, times, power = np.array([1], dtype=object), np.multiply, operator.mul, pow

        def number(a, b):
            return a

        def cell(x):
            return [x]

    def lift(x):  # x = (a + b*sqrt(m)) / d as (number(a, b), number(d, 0))
        if not isinstance(x, Quad):
            return number(x.numerator, 0), number(x.denominator, 0)
        a, b = x.a, x.b
        d = math.lcm(a.denominator, b.denominator)
        return (number(a.numerator * d // a.denominator, b.numerator * d // b.denominator),
                number(d, 0))

    z, denominator = _evaluate(graph, params, keep, limit, lift, times, power, cell,
                               unit, mul, np.add)
    denominator = denominator[0] if m > 1 else denominator
    quad = graph.n and any(isinstance(x, Quad) for x in values)
    out = []
    for b in np.reshape(z, (-1, unit.size)):  # b[2] is the sqrt part of a block
        a = Fraction(b[0], denominator)
        out.append(Quad(a, Fraction(b[2], denominator) if m > 1 else 0, m) if quad else a)
    return out


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
    return in_float_range(f"Z = exp({log_z!r})", math.exp, log_z)


def _kept_output(graph: FieldedGraph, params: SpinParams, limit: int) -> tuple:
    """(exact, Z(output=0), Z(output=1)), as logs on the float path, from one
    elimination that keeps the output (it counts in its neighbours' buckets).
    No output, or Z(output=1) = 0, raises DomainError."""
    if graph.output is None:
        raise DomainError("graph has no output vertex")
    exact = is_exact(params.beta, params.gamma, *(f for _, f in graph.vertices))
    evaluate = _partition_exact if exact else _log_partition_float
    z0, z1 = evaluate(graph, params, (graph.output,), limit=limit)
    if z1 == (0 if exact else -math.inf):
        raise DomainError("conditioned partition function Z(output=1) is zero")
    return exact, z0, z1


def _ratio(exact: bool, z0, z1):
    return z0 / z1 if exact else in_float_range(
        f"Z(output=0)/Z(output=1) = exp({z0 - z1!r})", math.exp, z0 - z1)


def effective_field(graph: FieldedGraph, params: SpinParams, *,
                    limit: int = ENUM_LIMIT):
    """Ratio Z(output=0)/Z(output=1) realised by the graph's output vertex."""
    return _ratio(*_kept_output(graph, params, limit))


def partition_and_field(graph: FieldedGraph, params: SpinParams, *,
                        limit: int = ENUM_LIMIT) -> tuple:
    """(Z, effective field) from the one elimination of `effective_field`:
    Z = Z(output=0) + Z(output=1), summed in log space on the float path,
    where a Z beyond the float range raises NumericError."""
    import numpy as np

    exact, z0, z1 = _kept_output(graph, params, limit)
    log_z = None if exact else float(np.logaddexp(z0, z1))
    z = z0 + z1 if exact else in_float_range(f"Z = exp({log_z!r})", math.exp, log_z)
    return z, _ratio(exact, z0, z1)


# ---------------------------------------------------------------------------
# Graph JSON: {"beta": r, "gamma": r, "vertices": [{"id": s, "field": r}],
#              "edges": [[u, v], ...], "output": s|null}

def _float(x, what: str) -> float:
    """x as a float; an exact x beyond the float range is a NumericError, and
    a float x is returned as it is."""
    return x if isinstance(x, float) else in_float_range(what, float, x)


def graph_to_json(graph: FieldedGraph, params: SpinParams) -> dict:
    """Graph JSON with every number a float, the one number type `dump_json` writes."""
    vertices = in_float_range("a vertex field", lambda: [{"id": v, "field": float(f)}
                                                        for v, f in graph.vertices])
    return {"beta": _float(params.beta, "beta"), "gamma": _float(params.gamma, "gamma"),
            "vertices": vertices, "edges": list(map(list, graph.edges)), "output": graph.output}


def graph_from_json(doc: Mapping, num) -> tuple[FieldedGraph, SpinParams]:
    """Parse graph JSON: ids as written; beta, gamma and every field a JSON
    number (an int, a float or a ``num``, never a bool or a string) read as a
    finite ``num``, float or Fraction.  The document has no uniform field: mu = 1."""
    def as_nums(raw: list) -> list | None:  # raw as nums, or None if one breaks the rule
        if not set(map(type, raw)) <= {int, float, num}:
            return None
        try:
            out = list(map(num, raw))
        except (OverflowError, ValueError):  # float(10**400), Fraction(inf), Fraction(nan)
            return None
        return out if num is not float or all(map(math.isfinite, out)) else None

    try:
        ids = list(map(operator.itemgetter("id"), doc["vertices"]))
        raw = [doc["beta"], doc["gamma"], *map(operator.itemgetter("field"), doc["vertices"])]
        if (nums := as_nums(raw)) is None:  # only now look for the offender
            names = chain(("beta", "gamma"), (f"field of vertex {v!r}" for v in ids))
            name, x = next((n, x) for n, x in zip(names, raw) if as_nums([x]) is None)
            raise DomainError(f"malformed graph document: {name} = {x!r} is not a finite number")
        graph = FieldedGraph(tuple(zip(ids, nums[2:])), doc["edges"], doc.get("output"))
        params = SpinParams(nums[0], nums[1], 1)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: an edge not a pair
        raise DomainError(f"malformed graph document: {exc}") from exc
    return graph, params
