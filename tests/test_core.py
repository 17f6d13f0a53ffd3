"""Exhaustive partition-function evaluation against hand and brute-force oracles."""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import mpmath
import pytest

from oracles import brute_effective_field, brute_z, cycle_z, graph_tuple
from twospin import (CapacityError, DomainError, FieldedGraph, NumericError, Quad,
                     SpinParams, core, effective_field, graph_from_json, graph_to_json,
                     partition_and_field, partition_function)

P12 = SpinParams(1.0, 2.0, 2.0)


def test_partition_k2():
    g = FieldedGraph({"u": 2.0, "v": 2.0}, [("u", "v")])
    # 2*2*1 + 2 + 2 + 2 over the four configurations
    assert partition_function(g, P12) == pytest.approx(10.0, rel=1e-12)


def test_partition_single_vertex():
    g = FieldedGraph({"v": 7.5}, [])
    assert partition_function(g, SpinParams(1.0, 2.0, 7.5)) == pytest.approx(8.5, rel=1e-12)


def test_partition_path():
    g = FieldedGraph({"u": 2.0, "v": 2.0, "w": 2.0}, [("u", "v"), ("v", "w")])
    assert partition_function(g, P12) == pytest.approx(34.0, rel=1e-12)


def test_partition_matches_brute_force_on_random_graphs():
    # multigraphs of up to 10 vertices with self-loops and parallel edges,
    # either drawn over a random prefix of the vertices (one large component
    # with cycles, untouched vertices isolated) or split into two components
    # plus an isolated vertex; an output vertex, whose effective field is
    # checked too, and Z and the field from the one pass of
    # partition_and_field; beta or gamma zero, so Z and Z(output=1) may be 0; float,
    # Fraction and Quad weights, and Fractions over large pairwise coprime
    # denominators (primes near 10^9) whose cleared integers are long, with
    # Quad beta and gamma (sqrt(2) parts) on every other such case
    rng = random.Random(1234)
    primes = [999999937, 999999929, 999999893, 999999883, 1000000007, 1000000009]
    numbers = {  # a number in [lo/10, hi/10], plus up to sqrt(2) for Quad
        "float": lambda lo, hi: rng.uniform(lo, hi) / 10,
        "fraction": lambda lo, hi: Fraction(rng.randint(lo, hi), 10),
        "quad": lambda lo, hi: Quad(Fraction(rng.randint(lo, hi), 10),
                                    Fraction(rng.randint(0, 10), 10), 2),
        "coprime": lambda lo, hi: Fraction(rng.randint(lo, hi) * rng.choice(primes) // 10,
                                           rng.choice(primes)),
    }
    for case in range(160):
        kind = ("float", "fraction", "quad", "coprime")[case % 4]
        num = numbers[kind]
        n = rng.randint(1, 10)
        ids = [f"v{i}" for i in range(n)]
        fields = {v: num(2, 40) for v in ids}
        if case % 2:
            parts = [ids[:n // 2], ids[n // 2:-1]]
        else:
            parts = [ids[:rng.randint((n + 1) // 2, n)]]
        edges = [(rng.choice(part), rng.choice(part))
                 for part in parts if part
                 for _ in range(rng.randint(len(part) // 2, 3 * len(part)))]
        edges += edges[:rng.randint(0, 3)]
        beta = num(1, 25) if case % 5 else 0 * num(1, 1)
        gamma = num(1, 30) if case % 7 else 0 * num(1, 1)
        if kind == "coprime" and case // 4 % 2:
            beta, gamma = (Quad(x, num(0, 10), 2) for x in (beta, gamma))
        output = rng.choice(ids)
        g = FieldedGraph(fields, edges, output)
        p = SpinParams(beta, gamma, 1)
        quad = any(isinstance(x, Quad) for x in (beta, gamma, *fields.values()))
        z = brute_z(fields, edges, beta, gamma)
        values = [(partition_function(g, p), z)]
        try:
            field = brute_effective_field(fields, edges, beta, gamma, output)
        except ZeroDivisionError:  # Z(output=1) == 0
            for fn in (effective_field, partition_and_field):
                with pytest.raises(DomainError, match=r"Z\(output=1\) is zero"):
                    fn(g, p)
        else:
            values += [(effective_field(g, p), field),
                       *zip(partition_and_field(g, p), (z, field))]
        for got, want in values:
            if kind == "float":
                assert got == pytest.approx(want, rel=1e-12)
            else:
                assert got == want
                assert type(got) is (Quad if quad else Fraction)


def test_float_path_keeps_log_range():
    # each Z lies outside the float range; log Z does not
    def log_z(vertices, edges, beta, gamma):
        (log_z,) = core._log_partition_float(FieldedGraph(vertices, edges),
                                             SpinParams(beta, gamma, 1.0), ())
        return log_z

    triple = log_z({"u": 1.0, "v": 1.0}, [("u", "v")] * 3, 1e200, 1.0)
    assert triple == pytest.approx(600 * math.log(10), rel=1e-12)
    # the three configurations with one spin 0 dominate at 1e-500 each, so
    # even a linear table divided by its max needs entries below any float
    tiny = {v: 1e-300 for v in "abc"}
    triangle = log_z(tiny, [("a", "b"), ("b", "c"), ("a", "c")], 1e-200, 1e-200)
    assert triangle == pytest.approx(math.log(3) - 500 * math.log(10), rel=1e-12)
    isolated = log_z({f"v{i}": 1e40 for i in range(20)}, [], 1.0, 1.0)
    assert isolated == pytest.approx(20 * math.log(1e40 + 1), rel=1e-12)
    assert log_z({"v": 1.0}, [("v", "v")], 0.0, 0.0) == -math.inf


def test_independent_set_count():
    # beta=0, gamma=1, unit fields: spin-0 sets must be independent
    g = FieldedGraph({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b"), ("b", "c")])
    assert partition_function(g, SpinParams(0.0, 1.0, 1.0)) == pytest.approx(5.0, rel=1e-12)


def test_parallel_edges_multiply():
    g = FieldedGraph({"u": 2.0, "v": 2.0}, [("u", "v"), ("u", "v")])
    # 00: 4*beta^2, 01/10: 2 each, 11: gamma^2
    assert partition_function(g, P12) == pytest.approx(4 + 2 + 2 + 4, rel=1e-12)


def test_self_loops_contribute_per_loop():
    g = FieldedGraph({"v": 3.0}, [("v", "v"), ("v", "v")])
    p = SpinParams(1.5, 2.0, 3.0)
    assert partition_function(g, p) == pytest.approx(3.0 * 1.5 ** 2 + 2.0 ** 2, rel=1e-12)


def test_exact_mode_returns_fractions():
    g = FieldedGraph({"u": Fraction(2), "v": Fraction(2)}, [("u", "v")])
    z = partition_function(g, SpinParams(Fraction(1), Fraction(2), Fraction(2)))
    assert z == Fraction(10)
    assert isinstance(z, Fraction)


BIG = 2 ** 64 + 13  # past int64, so a table entry that became an int64 would wrap or raise


def _int_parts(x) -> list:
    """Every numerator and denominator inside a Fraction or a Quad."""
    parts = (x.a, x.b) if isinstance(x, Quad) else (x,)
    return [n for f in parts for n in (f.numerator, f.denominator)]


@pytest.mark.parametrize("number", [
    lambda x: x,  # rational
    lambda x: Quad(x, Fraction(3, BIG), 2),  # in Q(sqrt(2))
], ids=["rational", "quad"])
@pytest.mark.parametrize("edges", [
    [],
    [("a", "a"), ("a", "a"), ("a", "a")],
    [("a", "a"), ("a", "b"), ("a", "b"), ("b", "c"), ("c", "a"), ("c", "c")],
], ids=["edgeless", "self-loops only", "loops beside edges"])
@pytest.mark.parametrize("ids", ["a", "abc"], ids=["single vertex", "three vertices"])
def test_exact_tables_stay_python_ints(number, edges, ids):
    # numerators and denominators past 2**63 in every weight: the exact
    # result is the oracle's number, of the oracle's type, with int parts,
    # for Z and for every kept output
    edges = [(u, v) for u, v in edges if {u, v} <= set(ids)]
    fields = {v: number(Fraction(BIG + k, 3 ** 41 + k)) for k, v in enumerate(ids)}
    beta, gamma = number(Fraction(BIG, 7 ** 23)), number(Fraction(5 ** 30, BIG - 2))
    p = SpinParams(beta, gamma, 1)
    kind = Quad if isinstance(beta, Quad) else Fraction
    z = partition_function(FieldedGraph(fields, edges), p)
    assert z == brute_z(fields, edges, beta, gamma)
    assert type(z) is kind and all(type(n) is int for n in _int_parts(z))
    for out in ids:
        z, field = partition_and_field(FieldedGraph(fields, edges, out), p)
        assert z == brute_z(fields, edges, beta, gamma)
        assert field == brute_effective_field(fields, edges, beta, gamma, out)
        for x in (z, field):
            assert type(x) is kind and all(type(n) is int for n in _int_parts(x))


def test_exact_z_of_the_empty_graph_is_the_fraction_one():
    for beta in (Fraction(BIG, 3), Quad(1, 1, 2)):
        z = partition_function(FieldedGraph({}, []), SpinParams(beta, beta, 1))
        assert z == 1 and type(z) is Fraction


def test_mixed_radicands_are_rejected():
    # sqrt(2) and sqrt(3) share no field Q(sqrt(m)): no exact Z to return
    sqrt2, sqrt3 = Quad(0, 1, 2), Quad(0, 1, 3)
    rational = SpinParams(Fraction(2), Fraction(3), 1)
    for g, p in [(FieldedGraph({"u": sqrt2, "v": sqrt3}, [("u", "v")]), rational),
                 (FieldedGraph({"u": sqrt3}, [("u", "u")]), SpinParams(sqrt2, Fraction(3), 1))]:
        with pytest.raises(ValueError, match="incompatible radicands"):
            partition_function(g, p)


def test_relabeling_and_edge_order_invariance():
    rng = random.Random(7)
    fields = {f"v{i}": rng.uniform(0.5, 3.0) for i in range(6)}
    edges = [("v0", "v1"), ("v1", "v2"), ("v2", "v3"), ("v3", "v0"), ("v4", "v5")]
    g = FieldedGraph(fields, edges)
    p = SpinParams(0.8, 2.0, 1.0)
    z = partition_function(g, p)
    mapping = {f"v{i}": f"w{(i * 5 + 2) % 6}" for i in range(6)}
    relabeled = FieldedGraph({mapping[v]: f for v, f in fields.items()},
                             [(mapping[u], mapping[v]) for u, v in edges])
    assert partition_function(relabeled, p) == pytest.approx(z, rel=1e-12)
    shuffled = list(edges)
    rng.shuffle(shuffled)
    assert partition_function(FieldedGraph(fields, shuffled), p) == pytest.approx(z, rel=1e-12)


def test_isolated_vertex_multiplies_z():
    g = FieldedGraph({"u": 2.0, "v": 2.0}, [("u", "v")])
    z = partition_function(g, P12)
    g_plus = FieldedGraph({"u": 2.0, "v": 2.0, "iso": 3.5}, [("u", "v")])
    assert partition_function(g_plus, P12) == pytest.approx(z * 4.5, rel=1e-12)


def test_effective_field_examples():
    p = SpinParams(1.0, 2.0, 20.0)
    g = FieldedGraph({"v": 20.0}, [], output="v")
    assert effective_field(g, p) == pytest.approx(20.0, rel=1e-12)
    loop = FieldedGraph({"v": 20.0}, [("v", "v")], output="v")
    assert effective_field(loop, p) == pytest.approx(20.0 * 1.0 / 2.0, rel=1e-12)
    star1 = FieldedGraph({"c": 20.0, "l": 20.0}, [("c", "l")], output="c")
    assert effective_field(star1, p) == pytest.approx(210 / 11, rel=1e-12)


def test_effective_field_requires_output():
    g = FieldedGraph({"v": 2.0}, [])
    for fn in (effective_field, partition_and_field):
        with pytest.raises(DomainError, match="no output vertex"):
            fn(g, P12)


def test_capacity_limit(monkeypatch):
    # K12 has width 11: its first bucket spans all 12 vertices.  The plan
    # must refuse it at limit 8 before any bucket table is built; here a plan
    # that returns fails the test, so the numeric pass never starts.  K8
    # (buckets of 8 vertices) still runs at limit 8.
    plan = core._plan

    def plan_only(*args):
        plan(*args)
        raise AssertionError("the plan passed; a bucket table would be built")

    k12 = FieldedGraph({f"v{i}": 2.0 for i in range(12)},
                       [(f"v{i}", f"v{j}") for i in range(12) for j in range(i)], output="v0")
    with monkeypatch.context() as m:
        m.setattr(core, "_plan", plan_only)
        for graph, params in ((k12, P12), (k12.with_fields({v: Fraction(2) for v in k12.field_map}),
                                            SpinParams(Fraction(1), Fraction(2), 1))):
            for evaluate in (partition_function, effective_field):
                with pytest.raises(CapacityError, match=r"width 11 .* limit is 8$"):
                    evaluate(graph, params, limit=8)
    k8 = FieldedGraph({f"v{i}": 2.0 for i in range(8)},
                      [(f"v{i}", f"v{j}") for i in range(8) for j in range(i)])
    assert partition_function(k8, P12, limit=8) == pytest.approx(
        brute_z(*graph_tuple(k8), 1.0, 2.0), rel=1e-12)
    with pytest.raises(CapacityError):
        partition_function(k8, P12, limit=7)
    # isolated vertices have width 0, so any number of them evaluates; the
    # empty graph has no bucket at all
    isolated = FieldedGraph({f"v{i}": 1.0 for i in range(25)}, [])
    assert partition_function(isolated, P12) == pytest.approx(2.0 ** 25, rel=1e-11)
    assert partition_function(isolated, P12, limit=1) == pytest.approx(2.0 ** 25, rel=1e-11)
    assert partition_function(FieldedGraph({}, []), P12, limit=0) == 1.0


def test_kept_output_counts_in_capacity():
    # K6 minus (0,2), (1,3), (1,4), (3,4), (2,5) has width 3, but keeping
    # vertex 1 forces a bucket of 5 vertices; the field is still exact
    # against the oracle once the limit admits that bucket
    edges = [(0, 1), (0, 3), (0, 4), (0, 5), (1, 2), (1, 5), (2, 3), (2, 4), (3, 5), (4, 5)]
    g = FieldedGraph({f"v{i}": Fraction(2) for i in range(6)},
                     [(f"v{a}", f"v{b}") for a, b in edges], output="v1")
    p = SpinParams(Fraction(1), Fraction(2), 1)
    assert partition_function(g, p, limit=4) == brute_z(*graph_tuple(g), 1, 2)
    with pytest.raises(CapacityError, match=r"width 4 needs buckets of 5 vertices"):
        effective_field(g, p, limit=4)
    assert effective_field(g, p, limit=5) == brute_effective_field(*graph_tuple(g), 1, 2, "v1")


def test_effective_field_is_one_elimination(monkeypatch):
    calls = []
    eliminate = core._eliminate

    def spy(*args):
        calls.append(args[2])
        return eliminate(*args)

    monkeypatch.setattr(core, "_eliminate", spy)
    g = FieldedGraph({"u": Fraction(2), "v": Fraction(3), "w": Fraction(1, 2)},
                     [("u", "v"), ("v", "w"), ("w", "u"), ("v", "v")], output="v")
    floats = g.with_fields({x: float(f) for x, f in g.field_map.items()})
    for graph, params in ((g, SpinParams(Fraction(3, 2), Fraction(2), 1)),
                          (floats, SpinParams(1.5, 2.0, 1.0))):
        calls.clear()
        field = effective_field(graph, params)
        assert calls == [(1,)]
        want = brute_effective_field(*graph_tuple(g), Fraction(3, 2), Fraction(2), "v")
        assert field == pytest.approx(want, rel=1e-12)


def _reference_eliminate(factors: list, n: int, keep: tuple, unit, mul, add, limit: int):
    """The elimination engine as first written, kept as a bit-for-bit reference.

    A min() scan picks each vertex (least degree, then position), the bucket
    is every factor on it in list order, and both halves of the product are
    broadcast to the full table over the neighbours before multiplying.
    It eliminates every vertex, so ``keep`` must be empty; ``limit`` is not
    checked.
    """
    import numpy as np

    assert keep == ()
    block = np.shape(unit)

    def product(parts, s, shape):
        out = np.broadcast_to(parts[0][s, ...], shape).copy()
        for t in parts[1:]:
            mul(out, t[s, ...], out=out)
        return out

    adj = [set() for _ in range(n)]
    for scope, _ in factors:
        if len(scope) == 2:
            i, j = scope
            adj[i].add(j)
            adj[j].add(i)
    z = unit
    remaining = set(range(n))
    while remaining:
        v = min(remaining, key=lambda i: (len(adj[i]), i))
        remaining.remove(v)
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        rest = sorted(adj[v])
        shape = (2,) * len(rest) + block
        parts = [np.moveaxis(t, scope.index(v), 0).reshape(
            [2] + [2 if x in scope else 1 for x in rest] + list(block))
            for scope, t in bucket]
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


def test_bucket_engine_matches_reference_bit_for_bit(monkeypatch):
    # seeded multigraphs of up to 13 vertices with self-loops, parallel
    # edges and zero weights; float log Z must be the same float and exact Z
    # the same number as with the reference engine
    rng = random.Random(31)
    numbers = {
        "float": lambda lo, hi: rng.uniform(lo, hi) / 10,
        "fraction": lambda lo, hi: Fraction(rng.randint(lo, hi), 10),
        "quad": lambda lo, hi: Quad(Fraction(rng.randint(lo, hi), 10),
                                    Fraction(rng.randint(0, 10), 10), 2),
    }
    cases = []
    for case in range(150):
        kind = ("float", "float", "fraction", "quad")[case % 4]
        num = numbers[kind]
        n = rng.randint(1, 13)
        ids = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3 * n))]
        edges += edges[:rng.randint(0, 3)]
        beta = num(1, 25) if case % 5 else 0 * num(1, 1)
        gamma = num(1, 30) if case % 7 else 0 * num(1, 1)
        cases.append((FieldedGraph({v: num(2, 40) for v in ids}, edges),
                      SpinParams(beta, gamma, 1), kind == "float"))

    def evaluate():
        return [core._log_partition_float(g, p, ())[0] if is_float
                else partition_function(g, p) for g, p, is_float in cases]

    got = evaluate()
    monkeypatch.setattr(core, "_eliminate", _reference_eliminate)
    want = evaluate()
    assert [type(x) for x in got] == [type(x) for x in want]
    assert got == want


def _reference_factors(graph, params, lift, times, power, cell, unit) -> list:
    """The factor list as the table builder first made it, kept as a
    bit-for-bit reference: a loop over the pair tables that scales each one's
    entries in Python and makes it with its own array call."""
    import numpy as np

    pos = {v: i for i, (v, _) in enumerate(graph.vertices)}
    loops, mult = [0] * graph.n, Counter()
    for u, v in graph.edges:
        i, j = sorted((pos[u], pos[v]))
        if i == j:
            loops[i] += 1
        else:
            mult[i, j] += 1
    (B, db), (G, dg) = lift(params.beta), lift(params.gamma)
    scale = times(db, dg)
    weights = {k: (power(times(B, dg), k), power(scale, k), power(times(G, db), k))
               for k in {*loops, *mult.values()}}
    rows = []
    for i, (_, f) in enumerate(graph.vertices):
        F, df = lift(f)
        beta_k, _, gamma_k = weights[loops[i]]
        rows.append((times(F, beta_k), times(df, gamma_k)))
    dtype = np.asarray(unit).dtype
    factors = []
    for (i, j), k in mult.items():
        beta_k, mixed_k, gamma_k = weights[k]
        table = [[beta_k, mixed_k], [mixed_k, gamma_k]]
        if rows[i]:  # vertex i's row scales the rows of the table
            table = [[times(x, r) for x in row] for row, r in zip(table, rows[i])]
            rows[i] = None
        if rows[j]:  # vertex j's row scales its columns
            table = [[times(x, r) for x, r in zip(row, rows[j])] for row in table]
            rows[j] = None
        factors.append(((i, j), np.array([list(map(cell, row)) for row in table],
                                         dtype=dtype)))
    factors += [((i,), np.array(list(map(cell, row)), dtype=dtype))
                for i, row in enumerate(rows) if row]
    return factors


def _multigraph_cases() -> list:
    """The 150 seeded (graph, params, is_float) cases of
    test_bucket_engine_matches_reference_bit_for_bit, drawn the same way."""
    rng = random.Random(31)
    numbers = {
        "float": lambda lo, hi: rng.uniform(lo, hi) / 10,
        "fraction": lambda lo, hi: Fraction(rng.randint(lo, hi), 10),
        "quad": lambda lo, hi: Quad(Fraction(rng.randint(lo, hi), 10),
                                    Fraction(rng.randint(0, 10), 10), 2),
    }
    cases = []
    for case in range(150):
        kind = ("float", "float", "fraction", "quad")[case % 4]
        num = numbers[kind]
        n = rng.randint(1, 13)
        ids = [f"v{i}" for i in range(n)]
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3 * n))]
        edges += edges[:rng.randint(0, 3)]
        beta = num(1, 25) if case % 5 else 0 * num(1, 1)
        gamma = num(1, 30) if case % 7 else 0 * num(1, 1)
        cases.append((FieldedGraph({v: num(2, 40) for v in ids}, edges),
                      SpinParams(beta, gamma, 1), kind == "float"))
    return cases


def test_table_builder_matches_reference_bit_for_bit(monkeypatch):
    # the engine gets the reference builder's factor list: the same scopes in
    # the same order, and tables of the same dtype and shape with the same
    # entries (float bits, or Python ints), for Z and for a kept vertex
    handed, want = [], []
    evaluate, eliminate = core._evaluate, core._eliminate

    def spy_evaluate(graph, params, keep, limit, lift, times, power, cell, unit, mul, add):
        want.append(_reference_factors(graph, params, lift, times, power, cell, unit))
        return evaluate(graph, params, keep, limit, lift, times, power, cell, unit, mul, add)

    def spy_eliminate(factors, *rest):
        handed.append(list(factors))  # the engine appends to the list as it runs
        return eliminate(factors, *rest)

    monkeypatch.setattr(core, "_evaluate", spy_evaluate)
    monkeypatch.setattr(core, "_eliminate", spy_eliminate)
    cases = _multigraph_cases()
    for g, p, is_float in cases:
        evaluate_in = core._log_partition_float if is_float else core._partition_exact
        evaluate_in(g, p, ())
        evaluate_in(g, p, (g.vertices[-1][0],))
    assert len(handed) == len(want) == 2 * len(cases)
    kinds = set()
    for got_factors, want_factors in zip(handed, want):
        assert [s for s, _ in got_factors] == [s for s, _ in want_factors]
        for (_, got), (_, ref) in zip(got_factors, want_factors):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            if got.dtype == object:
                assert [type(x) for x in got.flat] == [int] * ref.size
                assert list(got.flat) == list(ref.flat)
            else:
                assert got.tobytes() == ref.tobytes()
            kinds.add((got.dtype.kind, got.shape))
    # floats, ints and Q(sqrt(2)) blocks, as pair and as unary tables
    assert kinds == {("f", (2, 2)), ("f", (2,)), ("O", (2, 2, 1)), ("O", (2, 1)),
                     ("O", (2, 2, 2, 2)), ("O", (2, 2, 2))}


@pytest.mark.parametrize("size", [255, 256, 4096])
@pytest.mark.parametrize("use_out", [False, True], ids=["return", "out="])
def test_log_add_matches_logaddexp(size, use_out):
    # halves below and from the crossover, as the engine hands them (strided
    # views of one table), with -inf pairs, one-sided -infs, equal entries
    # and gaps past 745, where exp of the gap underflows to 0; ulps are
    # counted at the larger of |result| and |max(a, b)|, since the result is
    # max(a, b) plus a term in [0, log 2]
    import warnings

    import numpy as np

    rng = np.random.default_rng(size)
    table = rng.normal(0, 300, size=(size, 2))
    table[:size // 8] = -np.inf  # both halves -inf
    table[size // 8:size // 4, rng.integers(2)] = -np.inf
    table[size // 4:size // 3, 1] = table[size // 4:size // 3, 0]
    table[size // 3:size // 2, 1] = table[size // 3:size // 2, 0] - rng.uniform(745, 2000)
    a, b = table[:, 0], table[:, 1]
    want, peak = np.logaddexp(a, b), np.maximum(a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if use_out:  # as the reference engine calls it: the result over a
            a = a.copy()
            got = core._log_add(a, b, out=a)
            assert got is a
        else:
            got = core._log_add(a, b)
    finite = np.isfinite(want)
    assert (got[~finite] == -np.inf).all() and (want[~finite] == -np.inf).all()
    scale = np.maximum(np.abs(want), np.abs(peak))[finite]
    assert (np.abs(got[finite] - want[finite]) <= 4 * np.spacing(scale)).all()
    assert finite.sum() == size - size // 8


@pytest.mark.parametrize("beta, gamma", [(1.3, 2), (0, 2), (2, 0)])
def test_float_k12_matches_rational_mode(monkeypatch, beta, gamma):
    # K12's first bucket spans all 12 vertices, so its halves of 2,048
    # entries take the vector log-sum-exp, and a zero beta or gamma puts
    # -inf pairs in them; the graph text is read as `eval` reads it in
    # float and in rational mode
    ids = [f"v{i}" for i in range(12)]
    text = json.dumps({"beta": beta, "gamma": gamma,
                       "vertices": [{"id": v, "field": 0.25 * (i + 2)} for i, v in enumerate(ids)],
                       "edges": [[u, v] for i, u in enumerate(ids) for v in ids[:i]],
                       "output": "v5"})
    halves = []
    log_add = core._log_add

    def spy(a, b, *rest, **kwargs):
        halves.append(a.size)
        return log_add(a, b, *rest, **kwargs)

    monkeypatch.setattr(core, "_log_add", spy)
    got = partition_and_field(*graph_from_json(json.loads(text), float))
    assert max(halves) >= core._LOG_ADD_CROSSOVER
    want = partition_and_field(*graph_from_json(json.loads(text, parse_float=Fraction), Fraction))
    assert type(want[0]) is Fraction
    assert got == pytest.approx([float(x) for x in want], rel=1e-12)


def test_validation_errors():
    # the message names the first offender in input order: vertices (each
    # one's id before its field), then edges, then the output
    positive = "field of vertex {!r} must be strictly positive"
    cases = [
        ([("x", 1), ("y", 1), ("y", 2), ("x", 2)], [], None, "duplicate vertex id 'y'"),
        ([("a", 0.0), ("a", 1.0)], [], None, positive.format("a")),
        ([("a", 1.0), ("b", 0.0), ("c", 0.0)], [], None, positive.format("b")),
        ([("a", 1.0), ("b", -2.0), ("b", 1.0)], [], None, positive.format("b")),
        ([("a", 1.0), ("b", math.nan), ("c", 0.0)], [], None, positive.format("b")),
        ([("a", Fraction(0)), ("b", Fraction(-1))], [], None, positive.format("a")),
        ([("a", Quad(0)), ("b", 1)], [], None, positive.format("a")),
        ([("a", 1), ("b", Quad(1, -1, 2))], [], None, positive.format("b")),
        ([("v", 1.0)], [("v", "v"), ("v", "w"), ("z", "v")], None,
         "edge ('v', 'w') uses an undeclared vertex"),
        ([("v", 1.0)], [("v", "w")], "zz", "edge ('v', 'w') uses an undeclared vertex"),
        ([("v", 1.0)], [("v", "v")], "zz", "output vertex 'zz' is not declared"),
    ]
    for vertices, edges, output, message in cases:
        with pytest.raises(DomainError) as exc:
            FieldedGraph(vertices, edges, output)
        assert str(exc.value) == message
    g = FieldedGraph([("b", 2.0), ("a", Fraction(1, 3))], [["a", "b"]], output="a")
    assert g.field_map == dict(g.vertices) == {"b": 2.0, "a": Fraction(1, 3)}
    assert g.edges == (("a", "b"),)
    with pytest.raises(DomainError):
        SpinParams(-0.1, 2.0, 1.0)
    with pytest.raises(DomainError):
        SpinParams(1.0, 2.0, 0.0)


def test_graph_json_round_trip():
    g = FieldedGraph({"a": 1.5, "b": 2.0}, [("a", "b"), ("b", "b")], output="a")
    p = SpinParams(0.8, 2.0, 1.0)
    doc = graph_to_json(g, p)
    g2, p2 = graph_from_json(doc, float)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert g2.output == "a"
    assert (p2.beta, p2.gamma) == (0.8, 2.0)


@pytest.mark.parametrize("num", [float, Fraction])
def test_graph_json_reads_numbers_as_num_and_keeps_ids(num):
    text = ('{"beta": 1, "gamma": 2.5, "vertices": [{"id": 7, "field": 3}, '
            '{"id": "v", "field": 0.5}], "edges": [[7, "v"]], "output": 7}')
    g, p = graph_from_json(json.loads(text, parse_float=num), num)
    assert [type(x) for x in (p.beta, p.gamma, *g.field_map.values())] == [num] * 4
    assert (p.beta, p.gamma, g.field_map) == (1, 2.5, {7: 3, "v": 0.5})
    assert [type(v) for v, _ in g.vertices] == [int, str]
    assert (g.edges, g.output) == (((7, "v"),), 7)
    doc = graph_to_json(g, p)
    assert doc == json.loads(text)
    assert [type(x) for x in (doc["beta"], doc["gamma"],
                              *(v["field"] for v in doc["vertices"]))] == [float] * 4
    assert graph_from_json(doc, num) == (g, p)


def test_graph_to_json_writes_exact_numbers_as_floats():
    g = FieldedGraph({"a": Fraction(1, 4), "b": Quad(1, 1, 2)}, [("a", "b")])
    doc = graph_to_json(g, SpinParams(Quad(0, 1, 2), Fraction(3, 2), 1))
    assert (doc["beta"], doc["gamma"]) == (math.sqrt(2), 1.5)
    assert [v["field"] for v in doc["vertices"]] == [0.25, 1 + math.sqrt(2)]
    assert {type(x) for x in (doc["beta"], doc["gamma"],
                              *(v["field"] for v in doc["vertices"]))} == {float}
    huge = Fraction(10 ** 400)
    with pytest.raises(NumericError, match="^a vertex field overflows a float$"):
        graph_to_json(g.with_fields({"a": huge}), SpinParams(1, 1, 1))
    with pytest.raises(NumericError, match="^gamma overflows a float$"):
        graph_to_json(g, SpinParams(1, huge, 1))


def test_float_and_exact_paths_agree():
    # Fraction and Quad weights, beta or gamma zero on some cases, self-loops
    # and parallel edges; Z and, with an output, the effective field
    rng = random.Random(5)
    for case in range(40):
        n = rng.randint(1, 6)
        ids = [f"v{i}" for i in range(n)]
        fields = {v: Fraction(rng.randint(1, 40), 10) for v in ids}
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))]
        edges += edges[:rng.randint(0, 2)]
        g = FieldedGraph(fields, edges, output=rng.choice(ids))
        beta = Fraction(rng.randint(0, 20), 10) if case % 5 else Fraction(0)
        gamma = Fraction(rng.randint(1, 30), 10) if case % 7 else Fraction(0)
        if case % 3 == 0:
            beta, gamma = (Quad(x, Fraction(rng.randint(0, 10), 10), 2) for x in (beta, gamma))
        p = SpinParams(beta, gamma, 1)
        floats = (g.with_fields({v: float(f) for v, f in fields.items()}),
                  SpinParams(float(beta), float(gamma), 1.0))
        assert partition_function(*floats) == pytest.approx(float(partition_function(g, p)),
                                                            rel=1e-11)
        try:
            field = effective_field(g, p)
        except DomainError:  # Z(output=1) == 0 on both paths
            with pytest.raises(DomainError, match=r"Z\(output=1\) is zero"):
                effective_field(*floats)
        else:
            assert effective_field(*floats) == pytest.approx(float(field), rel=1e-11)


def test_float_and_exact_paths_share_the_table_builder(monkeypatch):
    # the two number systems hand the engine the same factor scopes: each
    # vertex row is folded into its first pair table, so only a vertex with
    # no edge to another vertex has a unary table
    scopes = []
    eliminate = core._eliminate

    def spy(factors, *rest):
        scopes.append([scope for scope, _ in factors])
        return eliminate(factors, *rest)

    monkeypatch.setattr(core, "_eliminate", spy)
    fields = {"a": Fraction(2), "b": Fraction(3), "c": Fraction(1, 2), "d": Fraction(5)}
    edges = [("a", "b"), ("b", "c"), ("a", "b"), ("c", "c"), ("d", "d")]
    g = FieldedGraph(fields, edges, output="b")
    floats = g.with_fields({v: float(f) for v, f in fields.items()})
    for graph, params in ((g, SpinParams(Fraction(3, 2), Fraction(2), 1)),
                          (floats, SpinParams(1.5, 2.0, 1.0))):
        partition_function(graph, params)
        effective_field(graph, params)
    assert scopes == [[(0, 1), (1, 2), (3,)]] * 4


def test_brute_oracle_agrees_with_exact_mode():
    fields = {"u": Fraction(2), "v": Fraction(3), "w": Fraction(1, 2)}
    edges = [("u", "v"), ("v", "w"), ("u", "v")]
    z = brute_z(fields, edges, Fraction(3, 2), Fraction(2), )
    g = FieldedGraph(fields, edges)
    assert partition_function(g, SpinParams(Fraction(3, 2), Fraction(2), 1)) == z


def test_cycle_oracle_agrees_with_brute_force():
    rng = random.Random(5)
    for n in range(1, 9):  # n = 1 is a self-loop, n = 2 a double edge
        fields = {f"c{i}": Fraction(rng.randint(1, 64), 16) for i in range(n)}
        edges = [(f"c{i}", f"c{(i + 1) % n}") for i in range(n)]
        assert cycle_z(Fraction(3, 4), Fraction(5, 2), list(fields.values())) == \
            brute_z(fields, edges, Fraction(3, 4), Fraction(5, 2))


def test_cycles_match_the_transfer_matrix_oracle():
    # seeded cycles of 3-60 vertices; dyadic numbers, so the float run gets
    # the same inputs.  Rational mode is ==.  Float log Z is within
    # 2e-15 * max(1, |log Z|) of the oracle's, taken at 50 digits; the worst
    # error seen on these cases is 8.6e-16 relative and 5.1e-14 absolute.
    rng = random.Random(2718)
    for _ in range(60):
        n = rng.randint(3, 60)
        beta, gamma = Fraction(rng.randint(0, 16), 8), Fraction(rng.randint(1, 32), 8)
        fields = [Fraction(rng.randint(1, 64), 16) for _ in range(n)]
        ids = [f"c{i}" for i in range(n)]
        edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
        z = cycle_z(beta, gamma, fields)
        exact = FieldedGraph(dict(zip(ids, fields)), edges)
        assert partition_function(exact, SpinParams(beta, gamma, 1)) == z
        (log_z,) = core._log_partition_float(
            FieldedGraph({v: float(f) for v, f in zip(ids, fields)}, edges),
            SpinParams(float(beta), float(gamma), 1.0), ())
        with mpmath.workdps(50):
            want = float(mpmath.log(mpmath.mpf(z.numerator) / z.denominator))
        assert abs(log_z - want) <= 2e-15 * max(1.0, abs(want))


def test_graph_helpers():
    g = FieldedGraph({"a": 1.0, "b": 2.0}, [("a", "b"), ("b", "b")])
    assert g.degrees() == {"a": 1, "b": 3}  # loop counts twice
    assert math.isclose(g.with_fields({"a": 9.0}).field_map["a"], 9.0)
