"""The depth-ell gadget construction and its error certification."""

import json
import math
import random

import pytest

from twospin import (CapacityError, DecayConstants, DomainError, InvariantViolation,
                     RecursionParams, SpinParams, Star, certify, cli, construct,
                     decay_constants, edge_ratio, gadget_field, invert_edge_ratio,
                     solve_mu_star)
from twospin.construct import (_branch_star_w, _cutoff_delta, _cutoff_star_w,
                               _power_bracket, _residual_window)
from twospin.gadgets import DEPTH_LIMIT, MATERIALIZE_LIMIT

RP = RecursionParams(SpinParams(1.0, 2.0, 20.0), 1)
C = decay_constants(RP, solve_mu_star(RP))

RP_D2 = RecursionParams(SpinParams(0.8, 2.0, 40.0), 2)
C_D2 = decay_constants(RP_D2, solve_mu_star(RP_D2))

# near-critical set: exercises both branch kinds and the cutoff
RP_NC = RecursionParams(SpinParams(0.8, 1.4, 300.0), 2)
C_NC = decay_constants(RP_NC, solve_mu_star(RP_NC))


def test_base_case_star_bracket():
    rep = certify(0, 10.0, RP)
    assert rep.gadget == Star(14)
    # 20*(21/22)^15 ~ 9.9536 < 10 <= 20*(21/22)^14 ~ 10.4276
    assert 20 * (21 / 22) ** 15 < 10.0 <= 20 * (21 / 22) ** 14
    assert rep.achieved == pytest.approx(10.427557430412, rel=1e-11)
    assert abs(rep.log_error) == pytest.approx(0.041866961671, abs=1e-9)
    assert abs(rep.log_error) <= math.log(2.0)
    assert rep.size == 15  # k + 1 vertices
    assert rep.bound == pytest.approx(math.log(2.0), rel=1e-12)


def test_integer_searches_keep_their_strictness():
    # each search's comparison at exact float equality, and one ulp either side
    below, above = math.nextafter(2.0, 0), math.nextafter(2.0, 3)
    # largest k with target <= 8 * 0.5**k: equality counts
    assert _power_bracket(8.0, 0.5, 2.0) == 2
    assert _power_bracket(8.0, 0.5, above) == 1
    assert _power_bracket(8.0, 0.5, below) == 2
    assert _power_bracket(8.0, 0.5, 64.0) == -3
    # edge_ratio(3) = 4/8 = 1/2 at (1, 5, 3); least w with 3 * 0.5**w <= cap
    rp = RecursionParams(SpinParams(1.0, 5.0, 3.0), 1)
    for cap, w in ((0.75, 2), (math.nextafter(0.75, 1), 2), (math.nextafter(0.75, 0), 3)):
        consts = DecayConstants(alpha=cap, c=0.5, eta=1.0, iota=1.0, t0=0, mu_star=1.0)
        assert _branch_star_w(1, rp, consts) == w
    # largest w with 3 * 4**-w > delta: equality does not count
    rp = RecursionParams(SpinParams(1.0, 4.0, 3.0), 1)
    assert _cutoff_star_w(0.1875, rp) == 1
    assert _cutoff_star_w(math.nextafter(0.1875, 0), rp) == 2
    assert _cutoff_star_w(2.9, rp) == 0


def test_check_invariant_boundaries():
    # mu * edge_ratio(x)**d = mu_1 has a root x in (0, mu_star] exactly on
    # (lo, hi]: hi is the value at x = mu_star (closed top), lo the value at
    # x = 0 (open bottom)
    p = RP.params
    lo, hi = _residual_window(RP, C.mu_star, 1)
    assert hi == p.mu * edge_ratio(C.mu_star, p) ** RP.d
    assert lo == p.mu * edge_ratio(0.0, p) ** RP.d
    assert invert_edge_ratio(hi / p.mu, p) == pytest.approx(C.mu_star, rel=1e-12)
    assert 0 < invert_edge_ratio((lo + hi) / 2 / p.mu, p) < C.mu_star
    # branch i leaves d - i + 1 edge ratios to the residual
    q = RP_D2.params
    for i, k in ((1, 2), (2, 1)):
        assert _residual_window(RP_D2, C_D2.mu_star, i) == (
            q.mu * edge_ratio(0.0, q) ** k, q.mu * edge_ratio(C_D2.mu_star, q) ** k)


def test_target_mu_star_within_bound():
    for ell in range(7):
        rep = certify(ell, C.mu_star, RP)
        assert abs(rep.log_error) <= rep.bound


def test_bound_holds_on_small_sweep():
    # acceptance criterion 4 runs the full grid; a fast slice here
    for rp, consts in ((RP, C), (RP_D2, C_D2)):
        for ell in range(5):
            for j in range(1, 26):
                rep = certify(ell, consts.mu_star * j / 25, rp)
                assert abs(rep.log_error) <= rep.bound


def test_trace_invariant_holds_at_every_level():
    cases = [(RP, C, ell, frac) for ell in (1, 2, 3) for frac in (0.3, 0.6, 0.95)]
    cases += [(RP_D2, C_D2, 4, j / 25) for j in (7, 13, 25)]
    for rp, consts, ell, frac in cases:
        rep = certify(ell, consts.mu_star * frac, rp)
        for rec in rep.trace:
            if rec.terminal == "base-star":
                continue
            for i, mu_i in enumerate(rec.mu_values, start=1):
                lo, hi = _residual_window(rp, consts.mu_star, i)
                assert lo < mu_i <= hi


def test_trace_branch_condition_consistency():
    p = RP_D2.params
    h_star = edge_ratio(C_D2.mu_star, p)
    h_zero = edge_ratio(0.0, p)
    for j in (5, 12, 19, 25):
        rep = certify(5, C_D2.mu_star * j / 25, RP_D2)
        for rec in rep.trace:
            for b in rec.branches:
                took_star = b.y == 0.0
                condition = p.mu * h_star * h_zero ** (RP_D2.d - b.i) >= rec.mu_values[b.i - 1]
                assert took_star == condition


def test_per_step_substitution_slack():
    # each branch child perturbs the parent's log-field by at most alpha**ell/d
    for rp, consts in ((RP_D2, C_D2), (RP_NC, C_NC)):
        p = rp.params
        for j in (4, 11, 23):
            rep = certify(5, consts.mu_star * j / 25, rp)
            for rec in rep.trace:
                budget = consts.alpha ** rec.ell / rp.d
                for b in rec.branches:
                    ratio = edge_ratio(gadget_field(b.gadget, p), p) / edge_ratio(b.y, p)
                    assert 1 - 1e-12 <= ratio <= math.exp(budget) * (1 + 1e-12)


def test_both_branch_kinds_fire_near_criticality():
    from twospin import Comb, DaryTree
    seen = set()
    for j in range(1, 41):
        rep = certify(3, C_NC.mu_star * j / 40, RP_NC)
        for rec in rep.trace:
            for b in rec.branches:
                seen.add(type(b.gadget).__name__)
    assert seen == {"Star", "DaryTree"}


def test_cutoff_branch_frozen_case():
    # located by a dense scan: this target drives the residual below delta at ell=1
    target = 136.968125740
    rep = certify(1, target, RP_NC)
    rec = rep.trace[0]
    assert rec.terminal == "cutoff-star"
    delta = _cutoff_delta(1, RP_NC, C_NC)
    assert rec.delta == pytest.approx(delta, rel=1e-12)
    assert rec.mu_hat_prime <= delta
    p = RP_NC.params
    w = rec.terminal_w
    assert p.mu * (1 / p.gamma) ** w > delta
    assert p.mu * (1 / p.gamma) ** (w + 1) <= delta
    # the replacement star still fits the per-step budget
    assert gadget_field(Star(w), p) <= C_NC.alpha ** 1 / RP_NC.d
    assert abs(rep.log_error) <= rep.bound


def test_recursive_case_residual_stays_in_range():
    rep = certify(6, C.mu_star * 0.5, RP)
    for rec in rep.trace:
        if rec.mu_hat_prime is not None:
            assert 0 < rec.mu_hat_prime <= C.mu_star * (1 + 1e-12)
            # the residual target solves mu*edge_ratio(x) = mu_d
            expect = invert_edge_ratio(rec.mu_values[-1] / RP.params.mu, RP.params)
            assert rec.mu_hat_prime == pytest.approx(min(expect, C.mu_star), rel=1e-12)


def test_determinism():
    assert certify(5, 11.3, RP) == certify(5, 11.3, RP)


def test_construct_preconditions():
    with pytest.raises(DomainError):
        certify(-1, 5.0, RP)
    with pytest.raises(DomainError):
        certify(3, 0.0, RP)
    with pytest.raises(DomainError):
        certify(3, C.mu_star * 1.001, RP)
    # mu below the solvable-range bound: 7.77 needed for (1, 2, d=1)
    with pytest.raises(DomainError):
        certify(2, 1.0, RecursionParams(SpinParams(1.0, 2.0, 5.0), 1))


def test_depth_beyond_the_limit_is_refused_before_building(monkeypatch):
    built = []
    monkeypatch.setattr(construct, "_construct", lambda *args: built.append(args))
    with pytest.raises(CapacityError, match=f"limit {DEPTH_LIMIT}$"):
        certify(DEPTH_LIMIT + 1, 10.0, RP)
    assert built == []


def test_a_level_beyond_the_singleton_limit_is_refused():
    # beta = 1, mu = 1e10: edge_ratio(mu) = 1 - 1e-10, so a level reaches the
    # target 0.5 with about 2.4e11 singleton children, more than a list holds
    rp = RecursionParams(SpinParams(1.0, 2.0, 1e10), 1)
    with pytest.raises(CapacityError, match=f"singleton children, limit {MATERIALIZE_LIMIT}$"):
        certify(2, 0.5, rp)


def test_residual_escape_raises_invariant_violation(monkeypatch):
    # the construction checks each residual against its window: it keeps one
    # on the closed top, clamps one a hair above it (float drift) to the top,
    # and aborts, never continues, on one at the open bottom, below the
    # window or above it
    target = C.mu_star * 0.6
    r = certify(1, target, RP).trace[0].mu_values[0]

    def first_residual(window):
        monkeypatch.setattr(construct, "_residual_window", lambda rp, mu_star, i: window)
        return certify(1, target, RP).trace[0].mu_values[0]

    assert first_residual((r / 2, r)) == r
    assert first_residual((r / 2, r / (1 + 1e-13))) == r / (1 + 1e-13)
    for window in ((r, 2 * r), (2 * r, 4 * r), (r / 4, r / 1.01)):
        with pytest.raises(InvariantViolation, match="left the solvable window"):
            first_residual(window)


def test_a_deep_star_branch_compares_its_cap_in_logs(capsys):
    # alpha**ell / d underflows to 0.0 from about ell = 230 at (0.8, 1.5, d = 3);
    # the star branches of those levels still keep their field below the cap
    argv = ["construct", "--beta", "0.8", "--gamma", "1.5", "--mu", "35.69670256576945",
            "--d", "3", "--target", "6.9801525264153375", "--ell"]
    for ell in (200, 250, 400):
        assert cli.main([*argv, str(ell)]) == 0
        assert json.loads(capsys.readouterr().out)["within_bound"] is True
    rp = RecursionParams(SpinParams(0.8, 1.5, 35.69670256576945), 3)
    report = certify(400, 6.9801525264153375, rp)
    C = decay_constants(rp, solve_mu_star(rp))
    ln_hmu = math.log(edge_ratio(rp.params.mu, rp.params))
    deep = 0
    for rec in report.trace:
        for branch in rec.branches:
            if branch.y == 0.0 and C.alpha ** rec.ell / rp.d == 0.0:
                deep += 1
                ln_field = math.log(rp.params.mu) + branch.gadget.w * ln_hmu
                assert ln_field <= rec.ell * math.log(C.alpha) - math.log(rp.d)
    assert deep > 0


def test_log_error_envelope_decays_geometrically():
    # per-depth error ratios fluctuate (a depth can get lucky), so the decay
    # claim is pinned as a geometric-mean rate at most alpha plus margin
    for frac in (0.25, 0.5, 0.75):
        errs = [abs(certify(ell, C.mu_star * frac, RP).log_error)
                for ell in range(9)]
        assert all(e <= certify(0, C.mu_star * frac, RP).bound for e in errs[:1])
        rate = (errs[8] / errs[1]) ** (1 / 7)
        assert rate <= C.alpha + 0.05


def test_size_growth_at_most_exponential():
    # max structural size per depth; ratios bounded, log-size close to linear
    max_size = []
    for ell in range(9):
        max_size.append(max(certify(ell, C_D2.mu_star * j / 20, RP_D2).size
                            for j in range(1, 21)))
    for ell in range(2, 9):
        assert max_size[ell] / max_size[ell - 1] <= 20.0
    logs = [math.log(s) for s in max_size[2:]]
    n = len(logs)
    xs = list(range(2, 9))
    xbar, ybar = sum(xs) / n, sum(logs) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, logs)) \
        / sum((x - xbar) ** 2 for x in xs)
    intercept = ybar - slope * xbar
    assert slope > 0
    assert max(abs(y - (slope * x + intercept)) for x, y in zip(xs, logs)) <= 2.0


def test_report_fields_are_consistent():
    rep = certify(3, 12.0, RP)
    assert rep.depth == 3
    assert rep.target == 12.0
    assert rep.achieved == pytest.approx(gadget_field(rep.gadget, RP.params), rel=1e-15)
    assert rep.log_error == pytest.approx(math.log(rep.achieved / 12.0), abs=1e-15)
    assert rep.bound == pytest.approx((math.log(2.0) + 3) * C.alpha ** 3, rel=1e-12)
