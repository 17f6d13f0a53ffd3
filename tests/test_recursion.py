"""Scalar recursion: fixed point, decay constants, inverses, thresholds.

Frozen expected values were computed up front by independent oracles
(closed forms, finite differences, and a dense two-step fixed-point scan);
see the assertions for the analytic cross-checks.
"""

import math
import random

import numpy as np
import pytest

from twospin import (DecayConstants, DomainError, RecursionParams, SpinParams,
                     construction_field_bound, contraction_bound,
                     decay_constants, edge_contraction,
                     edge_ratio, hardness_thresholds,
                     invert_edge_ratio, level_map, min_arity, solve_mu_star,
                     uniqueness_threshold)
from twospin.recursion import contraction_rate, fixed_point_iterates

RP = RecursionParams(SpinParams(1.0, 2.0, 20.0), 1)
MU_STAR_CLOSED = 9 + math.sqrt(101)  # root of x^2 - 18x - 20


def test_edge_ratio_values():
    p = RP.params
    assert edge_ratio(0.0, p) == pytest.approx(0.5, rel=1e-15)
    assert edge_ratio(20.0, p) == pytest.approx(21 / 22, rel=1e-15)
    assert edge_ratio(18.0, p) == pytest.approx(0.95, rel=1e-15)


def test_edge_ratio_range_and_monotonicity():
    for beta, gamma in [(1.0, 2.0), (0.8, 2.0), (0.9, 3.0), (2.0, 3.0)]:
        p = SpinParams(beta, gamma, 1.0)
        xs = np.linspace(1e-9, 50.0, 4000)
        vals = (beta * xs + 1) / (xs + gamma)
        assert np.all(np.diff(vals) > 0)  # strictly increasing when beta*gamma > 1
        assert np.all(vals > 1 / gamma)
        if beta <= 1:
            assert np.all(vals < beta)


def test_level_map_values():
    assert level_map(20.0, RP) == pytest.approx(210 / 11, rel=1e-14)
    assert level_map(0.0, RP) == pytest.approx(10.0, rel=1e-15)


def test_fixed_point_closed_form_and_iterates():
    mu_star = solve_mu_star(RP)
    assert mu_star == pytest.approx(MU_STAR_CLOSED, rel=1e-12)
    assert level_map(mu_star, RP) == pytest.approx(mu_star, rel=1e-12)
    iterates = fixed_point_iterates(RP)
    assert iterates[0] == 20.0
    assert iterates[1] == pytest.approx(210 / 11, rel=1e-14)
    assert iterates[2] == pytest.approx(19.051724137931036, rel=1e-13)
    diffs = np.diff(iterates)
    assert np.all(diffs <= 0)
    assert np.all(diffs[:5] < 0)  # strict until float resolution
    assert all(x >= mu_star for x in iterates)


def test_fixed_point_bracket_on_random_valid_params():
    rng = random.Random(42)
    checked = 0
    while checked < 25:
        beta = rng.uniform(0.5, 1.0)
        gamma = rng.uniform(1.2, 3.5)
        if beta * gamma <= 1.05:
            continue
        d = rng.randint(1, 3)
        if beta * (beta * gamma) ** d <= 1.02:
            continue
        mu = rng.uniform(5.0, 300.0)
        rp = RecursionParams(SpinParams(beta, gamma, mu), d)
        mu_star = solve_mu_star(rp)
        assert mu / gamma ** d < mu_star < beta ** d * mu
        checked += 1


def test_recursion_params_validation():
    with pytest.raises(DomainError):
        RecursionParams(SpinParams(0.5, 1.5, 10.0), 1)  # beta*gamma < 1
    with pytest.raises(DomainError):
        RecursionParams(SpinParams(1.5, 2.0, 10.0), 1)  # beta > 1
    with pytest.raises(DomainError):
        RecursionParams(SpinParams(0.7, 2.0, 10.0), 1)  # beta*(beta*gamma)^d < 1


def test_invert_edge_ratio():
    p = RP.params
    assert invert_edge_ratio(0.95, p) == pytest.approx(18.0, rel=1e-12)
    mu_star = solve_mu_star(RP)
    t = edge_ratio(mu_star, p)
    assert invert_edge_ratio(t, p) == pytest.approx(mu_star, rel=1e-9)
    for bad in (1.0, 0.5, 0.49, 2.0):
        with pytest.raises(DomainError):
            invert_edge_ratio(bad, p)


def test_contraction_bound_value():
    # (sqrt(2)-1)/(sqrt(2)+1) = 3 - 2*sqrt(2)
    assert contraction_bound(RP.params) == pytest.approx(3 - 2 * math.sqrt(2), rel=1e-14)
    assert contraction_bound(RP.params) == pytest.approx(0.171572875253810, abs=1e-12)


def test_edge_contraction_bounded_by_alpha():
    # acceptance criterion 8 runs the full 1e5 grid; spot-check here
    for beta, gamma in [(1.0, 2.0), (0.8, 2.0), (2.0, 3.0)]:
        p = SpinParams(beta, gamma, 1.0)
        alpha = contraction_bound(p)
        xs = np.logspace(-6, 6, 20001)
        vals = (beta * gamma - 1) * xs / ((xs + gamma) * (beta * xs + 1))
        assert vals.max() <= alpha + 1e-12
        # the bound is attained near x = sqrt(gamma/beta)
        assert vals.max() == pytest.approx(alpha, rel=1e-6)


def test_contraction_rate_at_fixed_point():
    mu_star = solve_mu_star(RP)
    g_star = contraction_rate(mu_star, RP)
    # closed form 11.1 - 1.1*sqrt(101), cross-checked by finite differences
    assert g_star == pytest.approx(11.1 - 1.1 * math.sqrt(101), rel=1e-10)
    assert g_star == pytest.approx(0.045136816767020, abs=1e-12)
    h = 1e-6
    fd = mu_star * (level_map(mu_star + h, RP) - level_map(mu_star - h, RP)) \
        / (2 * h) / level_map(mu_star, RP)
    assert g_star == pytest.approx(fd, rel=1e-7)


def test_decay_constants_invariants():
    for rp in (RP,
               RecursionParams(SpinParams(0.8, 2.0, 40.0), 2),
               RecursionParams(SpinParams(0.9, 3.0, 30.0), 1)):
        C = decay_constants(rp)
        assert isinstance(C, DecayConstants)
        assert 0 < C.alpha < 1
        assert 0 < C.c < 1
        assert C.eta > 0
        assert C.mu_star - C.eta >= 0 or C.eta <= C.mu_star
        assert C.iota >= math.log(float(rp.params.mu)) - 1e-12
        assert C.iota >= C.eta * C.c ** (-C.t0) - 1e-9
        p = rp.params
        lo = p.mu / p.gamma ** rp.d
        hi = p.beta ** rp.d * p.mu
        assert lo < C.mu_star < hi
        # contraction certified on a dense sample of the window
        xs = np.linspace(max(C.mu_star - C.eta, 1e-12), C.mu_star + C.eta, 10000)
        rates = rp.d * (p.beta * p.gamma - 1) * xs / ((xs + p.gamma) * (p.beta * xs + 1))
        assert rates.max() <= C.c + 1e-12


def test_decay_window_is_the_widest_certified_halving():
    """eta = mu_star/2**k, and the window of 2*eta fails unless eta = mu_star/2.

    The rate's maximum over a window is taken at sqrt(gamma/beta) clamped into
    it; a dense sample of each window checks that claim point by point.
    """
    rng = random.Random(11)
    halved = 0
    for i in range(400):
        # odd i: anywhere; even i: d >= 3 and mu far below the construction
        # bound, where the first window is often too wide
        beta = rng.uniform(0.3, 1.0)
        gamma = rng.uniform(1 / beta + 0.2, 1 / beta + 6)
        d = rng.choice((1, 2, 3, 4) if i % 2 else (3, 4))
        if not beta * (beta * gamma) ** d > 1:
            continue
        mu = construction_field_bound(SpinParams(beta, gamma, 1.0), d) * math.exp(
            rng.uniform(-3.5, 1.0 if i % 2 else -2.0))
        rp = RecursionParams(SpinParams(beta, gamma, mu), d)
        C = decay_constants(rp)

        def window_max(eta):
            return contraction_rate(
                min(max(math.sqrt(gamma / beta), C.mu_star - eta), C.mu_star + eta), rp)

        assert math.frexp(C.mu_star / C.eta)[0] == 0.5  # a power of two
        assert window_max(C.eta) <= C.c
        if C.eta < C.mu_star / 2:
            halved += 1
            assert window_max(2 * C.eta) > C.c
        for eta in (C.eta, 2 * C.eta):
            xs = np.linspace(C.mu_star - eta, C.mu_star + eta, 2001)
            rates = d * (beta * gamma - 1) * xs / ((xs + gamma) * (beta * xs + 1))
            assert rates.max() <= window_max(eta) * (1 + 1e-12)
    assert halved >= 10


def test_decay_constants_iterate_once(monkeypatch):
    import twospin.recursion as recursion
    calls = []
    iterate = recursion.fixed_point_iterates

    def counted(*args, **kwargs):
        calls.append(args)
        return iterate(*args, **kwargs)

    monkeypatch.setattr(recursion, "fixed_point_iterates", counted)
    rp = RecursionParams(SpinParams(0.8, 2.0, 40.0), 2)
    C = decay_constants(rp)
    assert len(calls) == 1
    assert C.mu_star == solve_mu_star(rp)  # the same iterate, bit for bit


def test_iota_at_least_log_mu():
    C = decay_constants(RP)
    assert C.iota >= math.log(20.0)  # ~2.9957


def test_solvability_of_level_equation():
    # for mu_1 in (mu_star*h(mu), mu_star], mu*h(x)^d = mu_1 has a root in (0, mu_star]
    rng = random.Random(3)
    for rp in (RP, RecursionParams(SpinParams(0.8, 2.0, 40.0), 2)):
        p = rp.params
        mu_star = solve_mu_star(rp)
        low = mu_star * edge_ratio(p.mu, p)
        for _ in range(20):
            mu_1 = low + (mu_star - low) * rng.random()
            lo_val = level_map(1e-12, rp)
            hi_val = level_map(mu_star, rp)
            assert lo_val < mu_1 <= hi_val * (1 + 1e-12)
            # bisect for the root, confirm it lies in (0, mu_star]
            a, b = 1e-12, mu_star
            for _ in range(200):
                mid = 0.5 * (a + b)
                if level_map(mid, rp) < mu_1:
                    a = mid
                else:
                    b = mid
            root = 0.5 * (a + b)
            assert 0 < root <= mu_star * (1 + 1e-9)
            assert level_map(root, rp) == pytest.approx(mu_1, rel=1e-8)


def test_growth_inequalities():
    # edge_ratio(x+t) <= (1+t)*edge_ratio(x) and edge_ratio((1+t)x) <= (1+t)*edge_ratio(x)
    rng = random.Random(11)
    for _ in range(300):
        beta = rng.uniform(0.0, 2.0)
        gamma = rng.uniform(0.2, 4.0)
        p = SpinParams(beta, gamma, 1.0)
        x = rng.uniform(0.0, 50.0)
        t = rng.uniform(0.0, 10.0)
        base = edge_ratio(x, p)
        assert edge_ratio(x + t, p) <= (1 + t) * base * (1 + 1e-12)
        assert edge_ratio((1 + t) * x, p) <= (1 + t) * base * (1 + 1e-12)


def test_uniqueness_threshold_frozen_oracle_value():
    # oracle: dense scan of the two-step map + bisection gave 325.676929...;
    # tangency closed form (root of 0.2 x^2 - 1.84 x + 0.2) gives 325.676929472402
    mu_c = uniqueness_threshold(0.2, 4)
    assert mu_c == pytest.approx(325.676929472402, rel=1e-6)
    b, branching = 0.2, 3
    coeff = 1 + b * b - branching * (1 - b * b)
    xp = (-coeff + math.sqrt(coeff * coeff - 4 * b * b)) / (2 * b)
    closed = xp / ((b * xp + 1) / (xp + b)) ** branching
    assert mu_c == pytest.approx(closed, rel=1e-8)


def test_uniqueness_threshold_exceeds_one():
    for beta, degree in [(0.2, 4), (0.1, 3), (0.3, 5), (0.45, 6)]:
        assert (degree - 1) / (degree + 1) > beta
        assert beta < (degree - 2) / degree  # safe region for branching degree-1
        assert uniqueness_threshold(beta, degree) > 1


def test_uniqueness_threshold_preconditions():
    with pytest.raises(DomainError):
        uniqueness_threshold(0.7, 4)  # beta >= (Delta-1)/(Delta+1)
    with pytest.raises(DomainError):
        uniqueness_threshold(0.2, 2)  # degree too small
    # between (Delta-2)/Delta and (Delta-1)/(Delta+1) the branching-(Delta-1)
    # recursion is stable even at mu=1; no threshold above 1 exists
    with pytest.raises(DomainError):
        uniqueness_threshold(0.55, 4)


def test_hardness_thresholds_worked_values():
    th = hardness_thresholds(SpinParams(1.0, 2.0, 1.0))
    assert th.Delta == 6
    assert th.d == 1
    assert th.mu_bound_local_fields == pytest.approx(8.0, rel=1e-12)
    assert th.mu_bound_uniform == pytest.approx(16.0, rel=1e-12)
    assert th.mu_bound_uniform_large_beta is None
    assert "16" in th.note and "12" in th.note

    th23 = hardness_thresholds(SpinParams(2.0, 3.0, 1.0))
    assert th23.Delta == 3
    assert th23.d == 1
    assert th23.mu_bound_uniform is None
    assert th23.mu_bound_uniform_large_beta == pytest.approx(2.0, rel=1e-12)


def test_hardness_thresholds_preconditions():
    with pytest.raises(DomainError):
        hardness_thresholds(SpinParams(2.0, 2.0, 1.0))  # beta == gamma
    with pytest.raises(DomainError):
        hardness_thresholds(SpinParams(0.5, 1.5, 1.0))  # beta*gamma < 1


def test_min_arity_and_field_bound():
    assert min_arity(SpinParams(1.0, 2.0, 1.0)) == 1
    assert min_arity(SpinParams(0.7, 2.0, 1.0)) == 2
    bound = construction_field_bound(SpinParams(1.0, 2.0, 1.0), 1)
    assert bound == pytest.approx(2 + 4 / math.log(2), rel=1e-12)  # 7.77078...
    assert bound == pytest.approx(7.7707801635558534, rel=1e-12)
