"""Gadget algebra: recursive field evaluation vs the exhaustive oracle."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from gadget_helpers import gadget_from_json, random_gadget_tree
from oracles import brute_effective_field, graph_tuple
from twospin import (CapacityError, Comb, DaryTree, DomainError, FieldedGraph,
                     NumericError, RecursionParams, SpinParams, Star, certify,
                     construction_field_bound, contract_degree_one, decay_constants,
                     edge_ratio, effective_field, gadget_field, gadget_to_json,
                     materialize, solve_mu_star, star_convergence, tree_convergence,
                     tree_size)
from twospin import gadgets

P = SpinParams(1.0, 2.0, 20.0)


def test_star_fields():
    assert gadget_field(Star(0), P) == pytest.approx(20.0, rel=1e-15)
    assert gadget_field(Star(14), P) == pytest.approx(10.427557430412, rel=1e-11)
    # closed form mu * edge_ratio(mu)**w, exactly in rational arithmetic
    pe = SpinParams(Fraction(1), Fraction(2), Fraction(20))
    assert gadget_field(Star(3), pe) == Fraction(20) * Fraction(21, 22) ** 3


def test_dary_tree_fields():
    assert gadget_field(DaryTree(1, 0), P) == pytest.approx(20.0, rel=1e-15)
    assert gadget_field(DaryTree(1, 2), P) == pytest.approx(19.051724137931036, rel=1e-13)
    pe = SpinParams(Fraction(1), Fraction(2), Fraction(20))
    assert gadget_field(DaryTree(1, 2), pe) == Fraction(1105, 58)


def test_tree_recursion_is_level_map():
    from twospin import level_map
    rp = RecursionParams(SpinParams(0.8, 2.0, 40.0), 2)
    for t in range(1, 6):
        prev = gadget_field(DaryTree(2, t - 1), rp.params)
        assert gadget_field(DaryTree(2, t), rp.params) == pytest.approx(
            level_map(prev, rp), rel=1e-14)


def test_comb_of_singleton_equals_star_one():
    assert gadget_field(Comb([Star(0)]), P) == pytest.approx(210 / 11, rel=1e-14)
    assert gadget_field(Comb([Star(0)]), P) == pytest.approx(
        gadget_field(Star(1), P), rel=1e-14)


def test_comb_product_law():
    rng = random.Random(17)
    for _ in range(20):
        a = [random_gadget_tree(rng, 5) for _ in range(rng.randint(1, 3))]
        b = [random_gadget_tree(rng, 5) for _ in range(rng.randint(1, 3))]
        lhs = gadget_field(Comb(a + b), P)
        rhs = gadget_field(Comb(a), P) * gadget_field(Comb(b), P) / P.mu
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_comb_requires_children():
    with pytest.raises(DomainError):
        Comb([])


def test_comb_of_stars_matches_hand_formula():
    # a w-star's field is mu * h(mu)**w; the comb multiplies mu by h(child field)
    tree = Comb([Star(2), Star(0)])
    h = lambda x: (P.beta * x + 1) / (x + P.gamma)
    field_1, field_2 = P.mu * h(P.mu) ** 2, P.mu
    assert gadget_field(tree, P) == pytest.approx(P.mu * h(field_1) * h(field_2), rel=1e-14)


def test_materialize_shapes():
    g = materialize(Star(3), P)
    assert g.n == 4 and len(g.edges) == 3 and g.output is not None
    assert g.degrees()[g.output] == 3
    assert materialize(DaryTree(2, 2), P).n == 7
    fig = materialize(Comb([Star(5), Star(5)]), P)
    assert fig.n == 13  # root + 2 centres + 10 leaves
    assert tree_size(Comb([Star(5), Star(5)])) == 13
    assert all(f == P.mu for _, f in fig.vertices)


def test_tree_size_closed_forms():
    assert tree_size(Star(7)) == 8
    assert tree_size(DaryTree(1, 9)) == 10
    assert tree_size(DaryTree(3, 4)) == (3 ** 5 - 1) // 2
    assert tree_size(Comb([Star(2), DaryTree(2, 1)])) == 1 + 3 + 3


def test_materialize_capacity():
    with pytest.raises(CapacityError):
        materialize(DaryTree(2, 25), P)


def test_oracle_equivalence_sample():
    # acceptance criterion 5 runs 500 trees; a quick independent slice here,
    # checked against the test-local brute-force oracle as well
    rng = random.Random(2026)
    for i in range(40):
        tree = random_gadget_tree(rng, 12)
        graph = materialize(tree, P)
        recursive = gadget_field(tree, P)
        exhaustive = effective_field(graph, P)
        assert recursive == pytest.approx(exhaustive, rel=1e-10)
        if i < 8:
            fields, edges = graph_tuple(graph)
            assert recursive == pytest.approx(
                brute_effective_field(fields, edges, 1.0, 2.0, graph.output), rel=1e-10)


def test_peeling_large_materialised_trees_gives_gadget_field():
    # ~3*10^4 vertices: beyond enumeration, and slow unless peeling is linear
    for tree, size in ((DaryTree(2, 14), 32_767), (DaryTree(3, 9), 29_524)):
        graph = materialize(tree, P)
        assert graph.n == size
        core, _ = contract_degree_one(graph, P)
        assert core.output == graph.output and core.n == 1 and not core.edges
        assert core.field_map[core.output] == pytest.approx(gadget_field(tree, P),
                                                            rel=1e-12)


def test_float_elimination_on_a_large_materialised_tree():
    # width 1, so 32,767 vertices run at the default limit; log Z(output=1)
    # is about 10^5, and its ulp (1.5e-11) bounds how closely a log table
    # resolves the ratio
    tree = DaryTree(2, 14)
    graph = materialize(tree, P)
    assert effective_field(graph, P) == pytest.approx(gadget_field(tree, P), rel=1e-10)


def test_exact_elimination_on_a_large_materialised_gadget():
    pe = SpinParams(Fraction(4, 5), Fraction(2), Fraction(40))
    gadget = Comb([DaryTree(2, 8), DaryTree(3, 5), Star(7)])
    graph = materialize(gadget, pe)
    assert graph.n == 1 + 511 + 364 + 8
    assert effective_field(graph, pe) == gadget_field(gadget, pe)


def test_star_convergence_decreasing_and_bounded():
    p = SpinParams(0.8, 2.0, 20.0)
    rows = star_convergence(p, 20)
    fields = [f for _, f, _ in rows]
    assert rows[0] == (0, 20.0, 20.0)
    assert fields[1] == pytest.approx(20 * 17 / 22, rel=1e-14)  # 15.4545 < 16
    assert all(fields[i + 1] < fields[i] for i in range(20))
    for w, field, bound in rows[1:]:
        assert field < bound  # mu * beta**w, strict for beta < 1


def test_star_convergence_beta_one_decreases_to_zero():
    rows = star_convergence(P, 80)
    fields = [f for _, f, _ in rows]
    assert all(fields[i + 1] < fields[i] for i in range(80))
    assert fields[-1] < 0.5  # 20*(21/22)**80 ~ 0.484


def test_star_convergence_refuses_a_subnormal_field():
    # at (1, 2, 20) the product field * ratio leaves the normal range at
    # w = 15293 and would then stick at 11 * 2**-1074 for every later w
    rows = star_convergence(P, 15292)
    assert rows[-1][1] >= sys.float_info.min
    with pytest.raises(NumericError, match="^the star sweep's field underflows a float "
                                           "at w = 15293$"):
        star_convergence(P, 15293)


def test_tree_convergence_bounds():
    rp = RecursionParams(SpinParams(1.0, 2.0, 20.0), 1)
    C = decay_constants(rp, solve_mu_star(rp))
    rows = tree_convergence(rp, 20, C)
    fields = [f for _, f, _ in rows]
    assert fields[0] == 20.0
    assert fields[1] == pytest.approx(210 / 11, rel=1e-13)
    assert fields[2] == pytest.approx(19.051724137931036, rel=1e-13)
    # strictly decreasing until the iteration hits float resolution
    assert all(fields[i + 1] < fields[i] for i in range(6))
    assert all(fields[i + 1] <= fields[i] for i in range(20))
    for t, field, bound in rows:
        ratio = field / C.mu_star
        assert ratio >= 1 - 1e-13  # float resolution; strictness via mpmath in acceptance
        assert ratio <= bound * (1 + 1e-12)


def test_memoised_evaluation_is_linear_in_depth():
    start = time.perf_counter()
    val = gadget_field(DaryTree(1, 5000), P)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5
    assert val == pytest.approx(solve_mu_star(RecursionParams(P, 1)), rel=1e-9)
    # shared subtrees evaluate once: a comb of deep trees stays fast
    start = time.perf_counter()
    gadget_field(Comb([DaryTree(2, 40)] * 30), P)
    assert time.perf_counter() - start < 0.5


def test_shared_children_are_visited_once():
    # c[k+1] = Comb((c[k], c[k])) has 3 * 2**k - 1 vertices but k + 1 distinct nodes
    node, x = Star(1), P.mu * edge_ratio(P.mu, P) ** 1
    for _ in range(40):
        node, x = Comb((node, node)), P.mu * edge_ratio(x, P) * edge_ratio(x, P)
    assert tree_size(node) == 3 * 2 ** 40 - 1
    assert gadget_field(node, P) == x
    with pytest.raises(CapacityError):
        materialize(node, P)


def test_gadget_json_round_trip():
    tree = Comb([Star(4), DaryTree(2, 3), Comb([Star(0), DaryTree(1, 5)])])
    doc = gadget_to_json(tree)
    assert doc["kind"] == "comb"
    assert gadget_from_json(doc) == tree
    with pytest.raises(DomainError):
        gadget_from_json({"kind": "mystery"})


def test_fields_stay_in_zero_mu_for_beta_at_most_one():
    rng = random.Random(31)
    for _ in range(50):
        tree = random_gadget_tree(rng, 14)
        f = gadget_field(tree, P)
        assert 0 < f <= P.mu


# A construct grid like the field-gadgets benchmark's: beta = 1, beta < 1, mu
# just above the construction's bound, and d = 2; depths 0..12, three targets.
CONSTRUCT_GRID = [(1.0, 2.0, 20.0, 1), (0.8, 2.0, 30.0, 1),
                  (1.0, 2.0, 1.005 * construction_field_bound(SpinParams(1.0, 2.0, 1), 1), 1),
                  (0.9, 1.5, 12.0, 2)]


def _plain_field(node, p):
    """The product recursion, one visit per copy and no memo."""
    if isinstance(node, Star):
        return p.mu * edge_ratio(p.mu, p) ** node.w
    if isinstance(node, DaryTree):
        val = p.mu
        for _ in range(node.t):
            val = p.mu * edge_ratio(val, p) ** node.d
        return val
    val = p.mu
    for child in node.children:
        val = val * edge_ratio(_plain_field(child, p), p)
    return val


def _plain_size(node):
    if isinstance(node, Star):
        return node.w + 1
    if isinstance(node, DaryTree):
        return sum(node.d ** i for i in range(node.t + 1))
    return 1 + sum(_plain_size(child) for child in node.children)


def _plain_json(node):
    if isinstance(node, Star):
        return {"kind": "star", "w": node.w}
    if isinstance(node, DaryTree):
        return {"kind": "tree", "d": node.d, "t": node.t}
    return {"kind": "comb", "children": [_plain_json(child) for child in node.children]}


@pytest.mark.parametrize("beta, gamma, mu, d", CONSTRUCT_GRID)
def test_walkers_equal_the_plain_recursion_on_the_construct_grid(beta, gamma, mu, d):
    rp = RecursionParams(SpinParams(beta, gamma, mu), d)
    C = decay_constants(rp, solve_mu_star(rp))
    for ell in range(13):
        for share in (0.1, 0.5, 0.9):
            tree = certify(ell, C.mu_star * share, rp).gadget
            assert gadget_field(tree, rp.params) == _plain_field(tree, rp.params)
            assert tree_size(tree) == _plain_size(tree)
            assert gadget_to_json(tree) == _plain_json(tree)


def _shared_gadgets():
    """Gadgets that share a node in non-adjacent positions, which no run covers."""
    a, b = Comb((Star(2), DaryTree(2, 3))), Star(1)
    yield Comb((a, b, a))
    yield Comb((a, Comb((b, a, b)), a, a, DaryTree(2, 3), DaryTree(2, 3)))
    node = Star(3)
    for _ in range(10):  # c[k+1] = Comb((c[k], Star(0), c[k])): 2**10 copies of Star(3)
        node = Comb((node, Star(0), node))
    yield node


@pytest.mark.parametrize("p", [P, SpinParams(0.9, 1.5, 12.0),
                               SpinParams(Fraction(4, 5), Fraction(2), Fraction(40))])
def test_walkers_equal_the_plain_recursion_on_random_and_shared_gadgets(p):
    rng = random.Random(19)
    trees = [random_gadget_tree(rng, rng.randint(1, 60)) for _ in range(60)]
    for tree in trees + list(_shared_gadgets()):
        assert gadget_field(tree, p) == _plain_field(tree, p)
        assert tree_size(tree) == _plain_size(tree)
        assert gadget_to_json(tree) == _plain_json(tree)


@pytest.mark.parametrize("bad", ["leaf", None])
def test_every_walker_refuses_an_unknown_node(bad):
    tree = Comb((Star(1), Comb((bad, DaryTree(2, 1)))))
    for walk in (lambda t: gadget_field(t, P), tree_size, gadget_to_json,
                 lambda t: materialize(t, P)):
        with pytest.raises(DomainError, match=f"not a gadget tree node: {bad!r}"):
            walk(tree)


def test_a_run_of_one_child_costs_one_edge_ratio(monkeypatch):
    calls = []

    def counted(x, p):
        calls.append(x)
        return edge_ratio(x, p)

    monkeypatch.setattr(gadgets, "edge_ratio", counted)
    singleton = Star(0)
    costs = []
    for k in (1, 50):
        calls.clear()
        field = gadget_field(Comb([singleton] * k + [Star(3)]), P)
        costs.append(len(calls))
        assert field == _plain_field(Comb([Star(0) for _ in range(k)] + [Star(3)]), P)
    assert costs[0] == costs[1]
