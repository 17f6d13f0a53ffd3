"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is fixed here, not tuned at runtime; expected values
marked as frozen were computed up front by independent oracles (explicit
configuration sums, closed forms, dense fixed-point scans).
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp, mpf

from gadget_helpers import random_gadget_tree
from instances import random_bipartite_graph, random_graph
from oracles import brute_effective_field, brute_z, graph_tuple
from twospin import (RecursionParams, SpinParams, certify,
                     construction_field_bound, contraction_bound,
                     bipartite_transform, decay_constants, effective_field,
                     gadget_field, ising_pipeline, level_map, materialize,
                     partition_function, realize_field_selfloops,
                     hardness_thresholds, solve_mu_star, star_convergence,
                     verify_reduction)

SEED = 20260810


def test_criterion_1_bipartite_identity():
    """Z_ferro = gamma^|E| * mu'^-|R| * Z_anti on 200 random bipartite graphs."""
    combos = [(Fraction(1), Fraction(2)), (Fraction(4, 5), Fraction(2)),
              (Fraction(2), Fraction(3))]
    mu_primes = [Fraction("1.01"), Fraction("1.1"), Fraction(2)]
    rng = random.Random(SEED)
    for i in range(200):
        graph, left = random_bipartite_graph(rng)
        beta, gamma = combos[i % 3]
        mu_p = mu_primes[(i // 3) % 3]

        # rational mode: exact equality in Q(sqrt(gamma*beta))
        cert = bipartite_transform(graph, mu_p, SpinParams(beta, gamma, 1), left=left)
        cert = verify_reduction(cert)
        assert cert.verified, f"exact identity failed on instance {i}"

        # float mode: relative error at most 1e-9
        fcert = bipartite_transform(graph, float(mu_p),
                                    SpinParams(float(beta), float(gamma), 1.0),
                                    left=left)
        fcert = verify_reduction(fcert)
        assert fcert.verified, f"float identity failed on instance {i}"

        if i % 25 == 0:  # independent brute-force spot check
            z_anti = partition_function(fcert.input.graph, fcert.input.params)
            fields, edges = graph_tuple(fcert.input.graph)
            q = 1 / math.sqrt(float(beta * gamma))
            assert z_anti == pytest.approx(brute_z(fields, edges, q, q), rel=1e-10)
    print("ACCEPTANCE 1 (bipartite transform identity): PASS")


def test_criterion_2_contraction_ising_pipeline():
    """Pendant contraction + Ising transform reproduce Z exactly; fields <= 1."""
    combos = [(Fraction(1), Fraction(2)), (Fraction(4, 5), Fraction(2)),
              (Fraction(2), Fraction(3))]
    rng = random.Random(SEED + 1)
    for i in range(200):
        beta, gamma = combos[i % 3]
        mu = gamma / beta
        graph = random_graph(rng, field=mu)
        cert = ising_pipeline(graph, SpinParams(beta, gamma, mu))
        cert = verify_reduction(cert)
        assert cert.verified, f"pipeline identity failed on instance {i}"
        assert all(f <= 1 for _, f in cert.output.graph.vertices), \
            f"transformed field above 1 on instance {i}"

    # worked triangle: Z = 40 = 2*sqrt(2) * 10*sqrt(2)
    from twospin import FieldedGraph, to_ising
    tri = FieldedGraph({v: 2.0 for v in "abc"}, [("a", "b"), ("b", "c"), ("c", "a")])
    p = SpinParams(1.0, 2.0, 2.0)
    cert = to_ising(tri, p)
    z_ferro = partition_function(tri, p)
    z_ising = partition_function(cert.output.graph, cert.output.params)
    assert z_ferro == pytest.approx(40.0, rel=1e-12)
    assert z_ising == pytest.approx(10 * math.sqrt(2), rel=1e-12)
    assert cert.scale * z_ising == pytest.approx(40.0, rel=1e-12)
    print("ACCEPTANCE 2 (contraction + Ising pipeline): PASS")


def _parameter_grid():
    pairs = [(1.0, 2.0), (0.8, 2.0), (0.9, 3.0), (1.0, 1.5), (0.7, 2.0),
             (0.6, 2.5), (1.0, 3.0), (0.95, 1.5)]
    grid = []
    for beta, gamma in pairs:
        for d in (1, 2, 3):
            if not beta * (beta * gamma) ** d > 1:
                continue
            bound = construction_field_bound(SpinParams(beta, gamma, 1.0), d)
            for mult in (1.05, 2.0, 5.0):
                grid.append((beta, gamma, bound * mult, d))
    return grid


def test_criterion_3_fixed_point_and_convergence_bounds():
    """Bracket, star decay and tree-ratio bounds on a >= 50 point grid."""
    grid = _parameter_grid()
    assert len(grid) >= 50
    mp.dps = 80
    for beta, gamma, mu, d in grid:
        rp = RecursionParams(SpinParams(beta, gamma, mu), d)
        C = decay_constants(rp, solve_mu_star(rp))
        assert mu / gamma ** d < C.mu_star < beta ** d * mu

        rows = star_convergence(rp.params, 20)
        fields = [f for _, f, _ in rows]
        assert all(fields[w + 1] < fields[w] for w in range(20))
        if beta < 1:
            assert all(f < b for (_, f, b) in rows[1:])  # mu*beta^w strict

        # tree ratios: evaluated in 80-digit arithmetic so 1 < ratio is strict
        rpm = RecursionParams(SpinParams(mpf(beta), mpf(gamma), mpf(mu)), d)
        mu_star_hp = solve_mu_star(rpm, rel_tol=1e-70)
        x = mpf(mu)
        for t in range(21):
            ratio = x / mu_star_hp
            assert 1 < ratio, (beta, gamma, mu, d, t)
            assert ratio <= math.exp(C.c ** t * C.iota), (beta, gamma, mu, d, t)
            x = level_map(x, rpm)
    print(f"ACCEPTANCE 3 (fixed-point bracket + convergence bounds, "
          f"{len(grid)} points): PASS")


def test_criterion_4_construction_error_certificates():
    """|ln(achieved/target)| <= (ln gamma + ell) alpha^ell across full sweeps."""
    sets = [(1.0, 2.0, 20.0, 1), (0.8, 2.0, 40.0, 2), (0.9, 3.0, 30.0, 1)]
    for beta, gamma, mu, d in sets:
        rp = RecursionParams(SpinParams(beta, gamma, mu), d)
        C = decay_constants(rp, solve_mu_star(rp))
        max_size = {}
        for ell in range(9):
            sizes = []
            for j in range(1, 101):
                rep = certify(ell, C.mu_star * j / 100, rp)
                assert abs(rep.log_error) <= rep.bound, (beta, gamma, mu, d, ell, j)
                sizes.append(rep.size)
            max_size[ell] = max(sizes)
        # structural size grows at most exponentially: log-size vs ell fits a
        # line with positive slope and bounded residuals
        ells = np.arange(2, 9, dtype=float)
        logs = np.array([math.log(max_size[e]) for e in range(2, 9)])
        design = np.vstack([ells, np.ones_like(ells)]).T
        (slope, intercept), *_ = np.linalg.lstsq(design, logs, rcond=None)
        assert slope >= 0
        assert np.abs(logs - design @ np.array([slope, intercept])).max() <= 2.0
    print("ACCEPTANCE 4 (depth-ell error certification, 2700 reports): PASS")


def test_criterion_5_gadget_field_oracle_equivalence():
    """Recursive field evaluation equals exhaustive enumeration, 500 gadgets."""
    rng = random.Random(SEED + 5)
    p = SpinParams(1.0, 2.0, 20.0)
    worst = 0.0
    for _ in range(500):
        tree = random_gadget_tree(rng, 14)
        recursive = gadget_field(tree, p)
        exhaustive = effective_field(materialize(tree, p), p)
        worst = max(worst, abs(recursive - exhaustive) / exhaustive)
    assert worst <= 1e-10
    print(f"ACCEPTANCE 5 (gadget vs enumeration, worst rel err {worst:.2e}): PASS")


def test_criterion_6_selfloop_realization():
    """Loop/bristle realisation meets exp(+-1/m) and the frozen (1, 6) case."""
    p = SpinParams(2.0, 3.0, 3.0)
    for m in (10, 100, 1000):
        for target in (0.5, 2.0, 5.0, 10.0):
            r = realize_field_selfloops(target, m, p)
            assert math.exp(-1 / m) <= r.achieved / target <= math.exp(1 / m)

    r = realize_field_selfloops(5.0, 100, p)
    assert (r.x, r.y) == (1, 6)
    assert r.achieved == pytest.approx(5.043252, abs=1e-6)
    assert effective_field(r.gadget, p) == pytest.approx(r.achieved, rel=1e-10)
    fields, edges = graph_tuple(r.gadget)
    assert brute_effective_field(fields, edges, 2.0, 3.0, "v0") == pytest.approx(
        r.achieved, rel=1e-10)
    print("ACCEPTANCE 6 (self-loop/bristle field realisation): PASS")


def test_criterion_7_threshold_formulas():
    """(1,2) gives Delta=6, d=1; the uniform bound is 16 with the note on 12."""
    th = hardness_thresholds(SpinParams(1.0, 2.0, 1.0))
    assert th.Delta == 6
    assert th.d == 1
    assert th.mu_bound_uniform == pytest.approx(16.0, rel=1e-12)
    assert th.note is not None and "16" in th.note and "12" in th.note
    print("ACCEPTANCE 7 (threshold formulas + documented discrepancy): PASS")


def test_criterion_8_edge_contraction_bound():
    """(bg-1)x/((x+gamma)(beta x+1)) <= alpha on a 1e5-point grid, 5 pairs."""
    pairs = [(1.0, 2.0), (0.8, 2.0), (2.0, 3.0), (0.9, 3.0), (1.0, 1.5)]
    xs = np.logspace(-6.0, 6.0, 100000)
    for beta, gamma in pairs:
        alpha = contraction_bound(SpinParams(beta, gamma, 1.0))
        vals = (beta * gamma - 1) * xs / ((xs + gamma) * (beta * xs + 1))
        assert vals.max() <= alpha + 1e-12, (beta, gamma)
    print("ACCEPTANCE 8 (edge contraction bounded by alpha): PASS")
