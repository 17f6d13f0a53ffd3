"""Partition-preserving reductions: worked cases, oracles, exact certificates."""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from oracles import brute_effective_field, brute_z, graph_tuple
from twospin import (CapacityError, DaryTree, DomainError, FieldedGraph, NumericError,
                     Quad, SpinParams, bipartite_transform, contract_certificate,
                     contract_degree_one, effective_field, ising_pipeline, materialize,
                     partition_function, realize_field_selfloops, reductions, to_ising,
                     verify_reduction)
from twospin.instances import random_bipartite_graph, random_graph
from twospin.reductions import _least_loops_and_bristles

K2 = FieldedGraph({"u": 1.0, "v": 1.0}, [("u", "v")])


# ---------------------------------------------------------------------------
# bipartite transform

def test_bipartite_k2_worked_example():
    cert = bipartite_transform(K2, 1.1, SpinParams(1.0, 2.0, 1.0), left=["u"])
    fields = cert.output.graph.field_map
    assert fields["u"] == pytest.approx(1.555635, abs=1e-6)
    assert fields["v"] == pytest.approx(1.285649, abs=1e-6)
    assert cert.scale == pytest.approx(2 / 1.1, rel=1e-12)
    z_anti = partition_function(cert.input.graph, cert.input.params)
    z_ferro = partition_function(cert.output.graph, cert.output.params)
    assert z_anti == pytest.approx(3.762706, abs=1e-6)
    assert z_ferro == pytest.approx(6.841284, abs=1e-6)
    assert z_ferro == pytest.approx(cert.scale * z_anti, rel=1e-12)
    assert verify_reduction(cert).verified
    # against the test-local brute-force oracle
    w = 1 / math.sqrt(2)
    assert z_anti == pytest.approx(brute_z({"u": 1.1, "v": 1.1}, [("u", "v")], w, w),
                                   rel=1e-12)


def test_bipartite_k2_exact():
    cert = bipartite_transform(K2, Fraction(11, 10),
                               SpinParams(Fraction(1), Fraction(2), 1), left=["u"])
    assert cert.scale == Fraction(20, 11)
    cert = verify_reduction(cert)
    assert cert.verified
    # the exact sides live in Q(sqrt(2))
    z_anti = partition_function(cert.input.graph, cert.input.params)
    assert isinstance(z_anti, Quad)


def test_bipartite_edgeless_fields_and_scale():
    g = FieldedGraph({"u": 1.0, "v": 1.0}, [])
    cert = bipartite_transform(g, 1.5, SpinParams(1.0, 2.0, 1.0), left=["u"])
    fields = cert.output.graph.field_map
    assert fields["u"] == pytest.approx(1.5, rel=1e-12)
    assert fields["v"] == pytest.approx(1 / 1.5, rel=1e-12)
    assert cert.scale == pytest.approx(1 / 1.5, rel=1e-12)
    assert verify_reduction(cert).verified


def test_bipartite_field_ranges_stay_in_documented_interval():
    rng = random.Random(8)
    ratio = 2.0
    for _ in range(20):
        g, left = random_bipartite_graph(rng)
        if not g.edges:
            continue
        deg = g.degrees()
        if min(deg.values()) < 1:
            continue
        mu_p = 1.1
        cert = bipartite_transform(g, mu_p, SpinParams(1.0, 2.0, 1.0), left=left)
        delta_max = max(deg.values())
        lo = (1 / mu_p) * math.sqrt(ratio)
        hi = mu_p * ratio ** (delta_max / 2)
        for _, f in cert.output.graph.vertices:
            assert lo * (1 - 1e-12) <= f <= hi * (1 + 1e-12)


def test_bipartite_autodetects_parts():
    # path l0-r0-l1 is bipartite; omit the explicit parts
    g = FieldedGraph({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b"), ("b", "c")])
    cert = bipartite_transform(g, 1.2, SpinParams(1.0, 2.0, 1.0))
    assert verify_reduction(cert).verified


def test_bipartite_rejects_bad_input():
    tri = FieldedGraph({"a": 1.0, "b": 1.0, "c": 1.0},
                       [("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(DomainError):
        bipartite_transform(tri, 1.1, SpinParams(1.0, 2.0, 1.0))
    loop = FieldedGraph({"a": 1.0}, [("a", "a")])
    with pytest.raises(DomainError):
        bipartite_transform(loop, 1.1, SpinParams(1.0, 2.0, 1.0))
    with pytest.raises(DomainError):
        bipartite_transform(K2, 1.1, SpinParams(1.0, 2.0, 1.0), left=["u", "v"])
    with pytest.raises(DomainError):
        bipartite_transform(K2, 1.0, SpinParams(1.0, 2.0, 1.0), left=["u"])
    with pytest.raises(DomainError):
        bipartite_transform(K2, 1.1, SpinParams(2.0, 1.5, 1.0), left=["u"])  # beta > gamma


def test_bipartite_random_exact_sample():
    rng = random.Random(1001)
    for _ in range(25):
        g, left = random_bipartite_graph(rng)
        cert = bipartite_transform(g, Fraction(101, 100),
                                   SpinParams(Fraction(4, 5), Fraction(2), 1), left=left)
        assert verify_reduction(cert).verified


# ---------------------------------------------------------------------------
# self-loop / bristle realisation

P_SL = SpinParams(2.0, 3.0, 3.0)


def test_selfloop_worked_example():
    r = realize_field_selfloops(5.0, 100, P_SL)
    assert (r.x, r.y) == (1, 6)
    assert r.achieved == pytest.approx(5.043252743484224, rel=1e-12)
    assert abs(math.log(r.achieved / 5.0)) == pytest.approx(0.008613347, abs=1e-8)
    assert abs(math.log(r.achieved / 5.0)) <= 1 / 100
    # cross-check on the materialised loop/bristle graph (7 vertices)
    assert r.gadget.n == 7
    assert effective_field(r.gadget, P_SL) == pytest.approx(r.achieved, rel=1e-10)
    fields, edges = graph_tuple(r.gadget)
    assert brute_effective_field(fields, edges, 2.0, 3.0, "v0") == pytest.approx(
        r.achieved, rel=1e-10)


def test_selfloop_identity_target():
    r = realize_field_selfloops(3.0, 50, P_SL)
    assert (r.x, r.y) == (0, 0)
    assert r.achieved == 3.0
    assert r.gadget.n == 1 and not r.gadget.edges


def test_selfloop_tolerance_sweep():
    for m in (10, 100, 1000, 10000):
        for target in (0.5, 2.0, 5.0, 10.0):
            r = realize_field_selfloops(target, m, P_SL)
            assert math.exp(-1 / m) <= r.achieved / target <= math.exp(1 / m)
            # growth stays (sub)linear in m on this sweep
            assert r.x <= m + 20 and r.y <= m + 20


def test_selfloop_preconditions():
    with pytest.raises(DomainError):
        realize_field_selfloops(5.0, 10, SpinParams(1.0, 2.0, 20.0))  # beta <= 1
    with pytest.raises(DomainError):
        realize_field_selfloops(5.0, 10, SpinParams(2.0, 3.0, 1.5))  # mu too small
    with pytest.raises(DomainError):
        realize_field_selfloops(-1.0, 10, P_SL)
    with pytest.raises(DomainError):
        realize_field_selfloops(5.0, 0, P_SL)


def _selfloop_by_scan(target, m, beta, gamma, mu):
    """(x, y) with the least y, by scanning y = 0, 1, ... with Fraction residuals.

    The problem is posed on the same floats as the search: a = ln(gamma/beta),
    b = ln((mu*beta+1)/(mu+gamma)), ln(target/mu) and 1/m, each taken exactly.
    """
    a = Fraction(math.log(gamma / beta))
    b = Fraction(math.log((mu * beta + 1) / (mu + gamma)))
    v, eps = -Fraction(math.log(target / mu)), Fraction(1.0 / m)
    y = 0
    while True:
        x = max(0, round(v / a))  # the nearest x >= 0
        if abs(v - x * a) <= eps:
            return x, y
        v += b
        y += 1


def test_selfloop_search_matches_exact_scan():
    rng = random.Random(20261018)
    for _ in range(500):
        beta = rng.uniform(1.05, 5.0)
        gamma = beta * math.exp(rng.uniform(0.02, 2.0))
        mu = (gamma - 1) / (beta - 1) * math.exp(rng.uniform(0.01, 4.0))
        target = math.exp(rng.uniform(-4.0, 4.0))
        m = int(math.exp(rng.uniform(0.0, math.log(1000.0))))
        # the search alone: `achieved` can still overflow (a known defect)
        case = (target, m, beta, gamma, mu)
        assert _least_loops_and_bristles(*case) == _selfloop_by_scan(*case), case


@pytest.fixture
def built(monkeypatch):
    """The vertex count of every FieldedGraph that `reductions` makes."""
    sizes = []

    def spy(*args, **kwargs):
        graph = FieldedGraph(*args, **kwargs)
        sizes.append(graph.n)
        return graph

    monkeypatch.setattr(reductions, "FieldedGraph", spy)
    return sizes


def test_selfloop_near_rational_ratio_is_refused_before_building(built):
    # b/a = 1 - 5e-9: the first y within 1/m is about 1.1e8, above the limit
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match=r"y = 11\d{7} bristles"):
            realize_field_selfloops(5.0, 1000, SpinParams(2.0, 4.0, 1e9))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6  # no list of bristles was started
    assert built == []


@pytest.mark.parametrize("target, m, p, message", [
    # mu is 3 ulps above (gamma-1)/(beta-1) = 2: ln((mu*beta+1)/(mu+gamma)) == 0.0
    (5.0, 10, SpinParams(1.5, 2.0, 2.0000000000000013), "rounds to 0"),
    # a and b are multiples of one dyadic g > 2/m, and every y*b - x*a misses ln(target/mu)
    (2.0, 10 ** 40, SpinParams(3.0, 4.0, 8.0), "no integers"),
    # x = 1845 loops: (2/3)**1845 underflows, so the achieved field is 0.0
    (5.0, 1000, SpinParams(2.0, 3.0, 1e300), "underflows"),
], ids=["zero-bristle-increment", "no-solution", "achieved-underflow"])
def test_selfloop_numeric_errors(built, target, m, p, message):
    with pytest.raises(NumericError, match=message):
        realize_field_selfloops(target, m, p)
    assert built == []  # refused before any bristle was built


def test_selfloop_field_out_of_float_range_builds_nothing(built):
    # x, y = 5419, 14257: (7/6)**y is beyond a float, though the product is not
    try:
        r = realize_field_selfloops(5.0, 100_000, P_SL)
    except Exception:
        assert built == []
    else:
        assert built == [r.y + 1]


def test_selfloop_gadget_structure():
    r = realize_field_selfloops(10.0, 100, P_SL)
    loops = [e for e in r.gadget.edges if e[0] == e[1]]
    bristles = [e for e in r.gadget.edges if e[0] != e[1]]
    assert len(loops) == r.x and len(bristles) == r.y
    assert r.gadget.output == "v0"
    closed = 3.0 * (2 / 3) ** r.x * (7 / 6) ** r.y
    assert r.achieved == pytest.approx(closed, rel=1e-12)


# ---------------------------------------------------------------------------
# degree-one contraction

P_C = SpinParams(1.0, 2.0, 2.0)
PATH = FieldedGraph({"u": 2.0, "v": 2.0, "w": 2.0}, [("u", "v"), ("v", "w")])


def test_contract_path_worked_example():
    core, scale = contract_degree_one(PATH, P_C)
    assert scale == pytest.approx(16.0, rel=1e-12)
    assert core.n == 1 and core.vertices[0][0] == "v"
    assert core.field_map["v"] == pytest.approx(1.125, rel=1e-12)
    assert scale * (1.125 + 1) == pytest.approx(34.0, rel=1e-12)
    assert partition_function(PATH, P_C) == pytest.approx(34.0, rel=1e-12)


def test_contract_no_op_when_min_degree_two():
    tri = FieldedGraph({"a": 2.0, "b": 2.0, "c": 2.0},
                       [("a", "b"), ("b", "c"), ("c", "a")])
    core, scale = contract_degree_one(tri, P_C)
    assert scale == 1
    assert core.vertices == tri.vertices and core.edges == tri.edges
    loopy = FieldedGraph({"a": 2.0}, [("a", "a")])  # loop counts twice
    core, scale = contract_degree_one(loopy, P_C)
    assert scale == 1 and core.n == 1 and core.edges


def test_contract_star_collapses_to_centre():
    mu = 2.0
    star = FieldedGraph({"c": mu, "l0": mu, "l1": mu, "l2": mu},
                        [("c", "l0"), ("c", "l1"), ("c", "l2")])
    core, scale = contract_degree_one(star, P_C)
    h_mu = (mu + 1) / (mu + 2)
    assert scale == pytest.approx((mu + 2) ** 3, rel=1e-12)
    assert core.field_map["c"] == pytest.approx(mu * h_mu ** 3, rel=1e-12)


def test_contract_preserves_z_on_random_graphs():
    rng = random.Random(77)
    for _ in range(25):
        g = random_graph(rng, field=2.0)
        core, scale = contract_degree_one(g, P_C)
        assert partition_function(g, P_C) == pytest.approx(
            scale * partition_function(core, P_C), rel=1e-10)
        # with mu <= gamma/beta no surviving field exceeds mu
        assert all(f <= 2.0 * (1 + 1e-12) for _, f in core.vertices)


def test_contract_exact_certificate():
    pe = SpinParams(Fraction(1), Fraction(2), Fraction(2))
    g = FieldedGraph({"u": Fraction(2), "v": Fraction(2), "w": Fraction(2)},
                     [("u", "v"), ("v", "w")])
    cert = verify_reduction(contract_certificate(g, pe))
    assert cert.verified
    assert cert.scale == Fraction(16)


def test_contract_all_int_input_is_exact():
    # ints lift to Fractions as in every other reduction: b keeps
    # 3 * (3/4)**2 exactly, and the certificate is checked with ==, so a scale
    # off by 10**-30 fails where a float compare would pass it
    p = SpinParams(1, 2, 3)
    g = FieldedGraph({"a": 2, "b": 3, "c": 2}, [("a", "b"), ("b", "c")])
    core, scale = contract_degree_one(g, p)
    assert core.field_map == {"b": Fraction(27, 16)}
    assert type(core.field_map["b"]) is Fraction and type(scale) is Fraction
    assert scale == 16
    assert partition_function(g, p) == scale * partition_function(core, p) == Fraction(43)
    cert = contract_certificate(g, p)
    assert verify_reduction(cert).verified
    off = cert._replace(scale=cert.scale + Fraction(1, 10 ** 30))
    assert verify_reduction(off).verified is False


def _round_peel(graph, p):
    """Reference peel: degrees recounted every round, and each pendant's edge
    found by scanning the whole edge list (quadratic, but plainly correct)."""
    fields = dict(graph.vertices)
    edges = list(graph.edges)
    scale = 1
    while True:
        deg = {v: 0 for v in fields}
        for a, b in edges:
            deg[a] += 1
            deg[b] += 1
        pendants = sorted(v for v in fields if deg[v] == 1)
        if not pendants:
            break
        for u in pendants:
            incident = [i for i, e in enumerate(edges) if u in e]
            if len(incident) != 1:
                continue
            a, b = edges.pop(incident[0])
            v = b if a == u else a
            x = fields.pop(u)
            scale = scale * (x + p.gamma)
            fields[v] = fields[v] * ((p.beta * x + 1) / (x + p.gamma))
    vertices = tuple((v, fields[v]) for v, _ in graph.vertices if v in fields)
    output = graph.output if graph.output in fields else None
    return vertices, tuple(edges), output, scale


def _random_peel_case(rng, exact):
    """Forest plus extra edges (cycles, parallels, loops), K2s and isolated
    vertices, with ids whose sorted order differs from insertion order."""
    n = rng.randint(1, 14)
    ids = [f"v{i}" for i in rng.sample(range(100), n)]
    edges = [(ids[rng.randrange(i)], ids[i]) for i in range(1, n) if rng.random() < 0.8]
    edges += [(rng.choice(ids), rng.choice(ids)) for _ in range(rng.randint(0, 3))]
    for j in range(rng.randint(0, 2)):
        ids += [f"k{j}a", f"k{j}b"]
        edges.append((f"k{j}a", f"k{j}b"))
    ids += [f"i{j}" for j in range(rng.randint(0, 2))]
    rng.shuffle(ids)
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    if exact:
        fields = {v: Fraction(rng.randint(1, 40), rng.randint(1, 8)) for v in ids}
        p = SpinParams(Fraction(rng.randint(1, 9), 10), Fraction(rng.randint(11, 40), 10),
                       Fraction(3))
    else:
        fields = {v: rng.uniform(0.2, 6.0) for v in ids}
        p = SpinParams(rng.uniform(0.1, 1.0), rng.uniform(1.1, 4.0), 3.0)
    return FieldedGraph(fields, edges, rng.choice(ids)), p


def test_contract_matches_round_based_reference_peel():
    rng = random.Random(4091)
    seen = {"output_peeled": 0, "output_kept": 0, "loop": 0, "parallel": 0}
    for t in range(400):
        g, p = _random_peel_case(rng, exact=t % 2 == 1)
        core, scale = contract_degree_one(g, p)
        got = (core.vertices, core.edges, core.output, scale)
        want = _round_peel(g, p)
        assert got == want and repr(got) == repr(want), g
        seen["output_peeled" if core.output is None else "output_kept"] += 1
        seen["loop"] += any(a == b for a, b in g.edges)
        seen["parallel"] += len({frozenset(e) for e in g.edges}) < len(g.edges)
    assert min(seen.values()) >= 20, seen


def _long_path(n, field):
    """Path on n vertices whose ids sort in a different order than they lie."""
    ids = [f"p{(i * 7919) % n}" for i in range(n)]
    return FieldedGraph([(v, field) for v in ids], list(zip(ids, ids[1:])), ids[n // 3])


@pytest.mark.parametrize("graph, p", [
    (materialize(DaryTree(2, 10), SpinParams(0.8, 1.7, 1.3)), SpinParams(0.8, 1.7, 1.3)),
    (_long_path(601, 1.3), SpinParams(0.7, 2.2, 1.3)),
    (_long_path(300, Fraction(13, 10)), SpinParams(Fraction(7, 10), Fraction(11, 5), 1)),
], ids=["dary-tree-2-10", "path-601", "path-300-exact"])
def test_contract_matches_reference_peel_on_deep_rounds(graph, p):
    core, scale = contract_degree_one(graph, p)
    got = (core.vertices, core.edges, core.output, scale)
    want = _round_peel(graph, p)
    assert got == want and repr(got) == repr(want)
    assert len(core.vertices) == 1 and core.edges == ()


# ---------------------------------------------------------------------------
# Ising transform

TRI = FieldedGraph({"a": 2.0, "b": 2.0, "c": 2.0},
                   [("a", "b"), ("b", "c"), ("c", "a")])


def test_to_ising_triangle_worked_example():
    cert = to_ising(TRI, P_C)
    assert all(f == pytest.approx(1.0, rel=1e-12) for _, f in cert.output.graph.vertices)
    a = cert.output.params.beta
    assert a == pytest.approx(math.sqrt(2), rel=1e-14)
    assert cert.scale == pytest.approx(2 * math.sqrt(2), rel=1e-14)
    z_ferro = partition_function(TRI, P_C)
    z_ising = partition_function(cert.output.graph, cert.output.params)
    assert z_ferro == pytest.approx(40.0, rel=1e-12)
    assert z_ising == pytest.approx(10 * math.sqrt(2), rel=1e-12)
    assert z_ferro == pytest.approx(cert.scale * z_ising, rel=1e-12)
    assert verify_reduction(cert).verified


def test_to_ising_single_vertex_closed_form():
    g = FieldedGraph({"a": 1.7}, [])
    cert = to_ising(g, P_C)
    assert cert.scale == 1
    assert verify_reduction(cert).verified


def test_to_ising_preconditions():
    with pytest.raises(DomainError):
        to_ising(PATH, P_C)  # degree-one vertices
    with pytest.raises(DomainError):
        to_ising(TRI, SpinParams(1.0, 2.0, 2.5))  # mu > gamma/beta
    big = TRI.with_fields({"a": 3.0})
    with pytest.raises(DomainError):
        to_ising(big, P_C)  # field above mu


def test_to_ising_exact_quad_certificate():
    pe = SpinParams(Fraction(1), Fraction(2), Fraction(2))
    tri = FieldedGraph({v: Fraction(2) for v in "abc"},
                       [("a", "b"), ("b", "c"), ("c", "a")])
    cert = to_ising(tri, pe)
    assert isinstance(cert.scale, Quad)
    assert float(cert.scale) == pytest.approx(2 * math.sqrt(2), rel=1e-14)
    assert verify_reduction(cert).verified
    # exact equality: Z_in == scale * Z_out in Q(sqrt(2))
    z_in = partition_function(cert.input.graph, cert.input.params)
    z_out = partition_function(cert.output.graph, cert.output.params)
    assert z_in == cert.scale * z_out


def test_one_square_root_split_per_certificate(monkeypatch):
    # beta*gamma is no square, there are five edges and degrees 1, 2 and 3:
    # sqrt(gamma/beta) and sqrt(beta/gamma) come from the one sqrt(beta*gamma),
    # with the values (and strings) of their own square roots
    from twospin import exact

    beta, gamma = Fraction(2, 3), Fraction(3)
    up, down = gamma / beta, beta / gamma
    tree = FieldedGraph({v: 1 for v in "abcde"},
                        [("a", "b"), ("a", "c"), ("a", "d"), ("e", "b"), ("e", "c")])
    core = FieldedGraph({v: 1 for v in "abcd"},
                        [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("c", "d")])
    mu_prime, ising = Fraction(2), SpinParams(beta, gamma, Fraction(3, 2))
    want_fields = {"bipartite": {v: mu_prime * exact.half_power(up, d) if v in "ae"
                                 else exact.half_power(up, d) / mu_prime
                                 for v, d in tree.degrees().items()},
                   "ising": {v: exact.half_power(down, d) for v, d in core.degrees().items()}}
    want_scale = {"bipartite": gamma ** 5 / mu_prime ** 3, "ising": exact.half_power(up, 5)}

    calls = []
    split = exact._squarefree_split
    monkeypatch.setattr(exact, "_squarefree_split", lambda n: calls.append(n) or split(n))
    certs = {"bipartite": bipartite_transform(tree, mu_prime, ising, left=["a", "e"]),
             "ising": to_ising(core, ising)}
    assert len(calls) == 2  # one each
    for kind, cert in certs.items():
        fields = cert.output.graph.field_map
        assert fields == want_fields[kind] and cert.scale == want_scale[kind]
        assert {v: str(f) for v, f in fields.items()} == {
            v: str(f) for v, f in want_fields[kind].items()}
        assert str(cert.scale) == str(want_scale[kind])
    assert isinstance(certs["ising"].scale, Quad)
    calls.clear()  # the pipeline peels e, then rebalances core
    pendant = FieldedGraph({v: 1 for v in "abcde"}, core.edges + (("d", "e"),))
    assert verify_reduction(ising_pipeline(pendant, ising)).verified
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# composite pipeline and verification plumbing

def test_pipeline_on_random_graphs_exact():
    rng = random.Random(501)
    for _ in range(20):
        beta, gamma = Fraction(4, 5), Fraction(2)
        mu = gamma / beta
        g = random_graph(rng, field=mu)
        cert = ising_pipeline(g, SpinParams(beta, gamma, mu))
        assert verify_reduction(cert).verified
        assert all(f <= 1 for _, f in cert.output.graph.vertices)


def test_pipeline_handles_fully_contracted_graph():
    pe = SpinParams(Fraction(1), Fraction(2), Fraction(2))
    g = FieldedGraph({v: Fraction(2) for v in "uvw"}, [("u", "v"), ("v", "w")])
    cert = ising_pipeline(g, pe)
    assert cert.output.graph.n == 0
    assert cert.scale == Fraction(34)
    assert verify_reduction(cert).verified


def test_pipeline_exact_with_quad_edge_weights():
    # the anti-Ising side of the K2 bipartite transform: beta = gamma = sqrt(2)/2
    anti = bipartite_transform(FieldedGraph({"u": 1, "v": 1}, [("u", "v")]), Fraction(3),
                               SpinParams(Fraction(1), Fraction(2), 1)).input
    assert isinstance(anti.params.beta, Quad)
    cert = ising_pipeline(anti.graph, anti.params)
    assert cert.output.graph.n == 0
    assert cert.scale == Quad(6, 5, 2)  # (3 + s) * (3*(3s + 1)/(3 + s) + 1), s = sqrt(2)/2
    assert verify_reduction(cert).verified


def test_pipeline_isolated_vertices_are_scaled_out():
    pe = SpinParams(1.0, 2.0, 2.0)
    g = FieldedGraph({"a": 2.0, "b": 2.0, "c": 2.0, "d": 2.0, "iso": 2.0},
                     [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")])
    cert = ising_pipeline(g, pe)
    assert "iso" not in cert.output.graph.field_map
    assert verify_reduction(cert).verified


def test_corrupted_scale_fails_verification():
    cert = to_ising(TRI, P_C)
    bad = cert._replace(scale=cert.scale * 1.0001)
    assert verify_reduction(bad).verified is False
    cert_exact = contract_certificate(
        FieldedGraph({v: Fraction(2) for v in "uv"}, [("u", "v")]),
        SpinParams(Fraction(1), Fraction(2), Fraction(2)))
    bad_exact = cert_exact._replace(scale=cert_exact.scale + 1)
    assert verify_reduction(bad_exact).verified is False


def test_verify_respects_enum_limit():
    # K12 (width 11) peels to itself and is refused at limit 8; 30 isolated
    # vertices have width 0 and verify at the default limit
    k12 = FieldedGraph({f"v{i}": 1.0 for i in range(12)},
                       [(f"v{i}", f"v{j}") for i in range(12) for j in range(i)])
    cert = contract_certificate(k12, P_C)
    with pytest.raises(CapacityError, match="width 11"):
        verify_reduction(cert, limit=8)
    assert verify_reduction(cert, limit=12).verified
    isolated = FieldedGraph({f"v{i}": 1.0 for i in range(30)}, [])
    assert verify_reduction(contract_certificate(isolated, P_C)).verified
