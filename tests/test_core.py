"""Exhaustive partition-function evaluation against hand and brute-force oracles."""

import math
import random
from fractions import Fraction

import pytest

from oracles import brute_z, graph_tuple
from twospin import (CapacityError, DomainError, FieldedGraph, Quad, SpinParams,
                     core, effective_field, graph_from_json, graph_to_json,
                     partition_function, pinned_partition)

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
    # plus an isolated vertex; pins; beta or gamma zero, so Z may be 0;
    # float, Fraction and Quad weights
    rng = random.Random(1234)
    numbers = {  # a number in [lo/10, hi/10], plus up to sqrt(2) for Quad
        "float": lambda lo, hi: rng.uniform(lo, hi) / 10,
        "fraction": lambda lo, hi: Fraction(rng.randint(lo, hi), 10),
        "quad": lambda lo, hi: Quad(Fraction(rng.randint(lo, hi), 10),
                                    Fraction(rng.randint(0, 10), 10), 2),
    }
    for case in range(120):
        kind = ("float", "fraction", "quad")[case % 3]
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
        pins = {v: rng.randint(0, 1) for v in rng.sample(ids, rng.randint(0, min(2, n)))}
        g = FieldedGraph(fields, edges)
        p = SpinParams(beta, gamma, 1)
        z = pinned_partition(g, p, pins) if pins else partition_function(g, p)
        want = brute_z(fields, edges, beta, gamma, pins)
        if kind == "float":
            assert z == pytest.approx(want, rel=1e-12)
        else:
            assert z == want
            assert kind == "quad" or isinstance(z, Fraction)


def test_float_path_keeps_log_range():
    # each Z lies outside the float range; log Z does not
    def log_z(vertices, edges, beta, gamma):
        return core._log_partition_float(FieldedGraph(vertices, edges),
                                         SpinParams(beta, gamma, 1.0), {})

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


def test_pinned_partition_examples():
    g1 = FieldedGraph({"v": 20.0}, [])
    p = SpinParams(1.0, 2.0, 20.0)
    assert pinned_partition(g1, p, {"v": 0}) == pytest.approx(20.0, rel=1e-12)
    assert pinned_partition(g1, p, {"v": 1}) == pytest.approx(1.0, rel=1e-12)
    g2 = FieldedGraph({"u": 2.0, "v": 2.0}, [("u", "v")])
    assert pinned_partition(g2, P12, {"u": 1}) == pytest.approx(4.0, rel=1e-12)


def test_pin_sum_identity():
    rng = random.Random(99)
    for _ in range(20):
        n = rng.randint(1, 8)
        ids = [f"v{i}" for i in range(n)]
        fields = {v: rng.uniform(0.3, 5.0) for v in ids}
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 12))]
        g = FieldedGraph(fields, edges)
        p = SpinParams(rng.uniform(0.1, 2.0), rng.uniform(0.5, 3.0), 1.0)
        v = rng.choice(ids)
        z = partition_function(g, p)
        z0 = pinned_partition(g, p, {v: 0})
        z1 = pinned_partition(g, p, {v: 1})
        assert z == pytest.approx(z0 + z1, rel=1e-11)


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
    with pytest.raises(DomainError):
        effective_field(g, P12)


def test_capacity_limit():
    g = FieldedGraph({f"v{i}": 1.0 for i in range(25)}, [])
    with pytest.raises(CapacityError):
        partition_function(g, P12)
    # override works
    assert partition_function(g, P12, limit=25) == pytest.approx(2.0 ** 25, rel=1e-11)


def test_validation_errors():
    with pytest.raises(DomainError):
        FieldedGraph({"v": 0.0}, [])
    with pytest.raises(DomainError):
        FieldedGraph({"v": 1.0}, [("v", "w")])
    with pytest.raises(DomainError):
        FieldedGraph({"v": 1.0}, [], output="zz")
    with pytest.raises(DomainError):
        SpinParams(-0.1, 2.0, 1.0)
    with pytest.raises(DomainError):
        SpinParams(1.0, 2.0, 0.0)
    g = FieldedGraph({"v": 1.0}, [])
    with pytest.raises(DomainError):
        pinned_partition(g, P12, {"w": 0})
    with pytest.raises(DomainError):
        pinned_partition(g, P12, {"v": 2})


def test_regime_classification_total():
    assert SpinParams(2.0, 3.0, 1.0).regime == "ferromagnetic"
    assert SpinParams(0.5, 1.0, 1.0).regime == "antiferromagnetic"
    assert SpinParams(0.5, 2.0, 1.0).regime == "degenerate"


def test_graph_json_round_trip():
    g = FieldedGraph({"a": 1.5, "b": 2.0}, [("a", "b"), ("b", "b")], output="a")
    p = SpinParams(0.8, 2.0, 1.0)
    doc = graph_to_json(g, p)
    g2, p2 = graph_from_json(doc)
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges
    assert g2.output == "a"
    assert (p2.beta, p2.gamma) == (0.8, 2.0)


def test_float_and_exact_paths_agree():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 6)
        ids = [f"v{i}" for i in range(n)]
        fields = {v: Fraction(rng.randint(1, 40), 10) for v in ids}
        edges = [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 8))]
        g = FieldedGraph(fields, edges)
        p = SpinParams(Fraction(rng.randint(0, 20), 10), Fraction(rng.randint(1, 30), 10), 1)
        z_exact = partition_function(g, p)
        z_float = partition_function(
            g.with_fields({v: float(f) for v, f in fields.items()}),
            SpinParams(float(p.beta), float(p.gamma), 1.0))
        assert z_float == pytest.approx(float(z_exact), rel=1e-11)


def test_brute_oracle_agrees_with_exact_mode():
    fields = {"u": Fraction(2), "v": Fraction(3), "w": Fraction(1, 2)}
    edges = [("u", "v"), ("v", "w"), ("u", "v")]
    z = brute_z(fields, edges, Fraction(3, 2), Fraction(2), )
    g = FieldedGraph(fields, edges)
    assert partition_function(g, SpinParams(Fraction(3, 2), Fraction(2), 1)) == z


def test_graph_helpers():
    g = FieldedGraph({"a": 1.0, "b": 2.0}, [("a", "b"), ("b", "b")])
    assert g.degrees() == {"a": 1, "b": 3}  # loop counts twice
    assert math.isclose(g.with_fields({"a": 9.0}).field_map["a"], 9.0)
