"""The construction's shared schedule changes no value and lives for one command.

`construct._construct` is one loop over a `construct.Schedule` that every
level of a construction and every target of a sweep share.  These tests
keep a copy of the earlier recursive construction, which recomputed every
target-independent quantity at every level and gave `gadget_field` a fresh
level table per call, and assert that both give equal reports (gadget,
trace and every other field) and refuse the same inputs with the same
message.  A spy counts the per-level helpers inside one sweep command.
"""

import contextlib
import io
import math

import pytest

from twospin import (CapacityError, ConstructReport, DomainError, InvariantViolation,
                     NumericError, RecursionParams, SpinParams, certify, cli, construct,
                     construction_field_bound, decay_constants, edge_ratio, gadget_field,
                     gadgets, invert_edge_ratio, tree_size)
from twospin.construct import (_REL_SLACK, BranchChoice, LevelRecord, Schedule,
                               _branch_star_w, _branch_tree_t, _cutoff_delta,
                               _cutoff_star_w, _power_bracket, _prepare, _residual_window,
                               error_bound)
from twospin.gadgets import MATERIALIZE_LIMIT, Comb, DaryTree, Star


def _reference_construct(ell, target, rp, C):
    """The construction as one stack frame per level, every quantity
    computed where it is used."""
    p = rp.params
    mu = float(p.mu)
    hmu = edge_ratio(mu, p)

    if ell == 0:
        k = _power_bracket(mu, hmu, target)
        if k < 1:
            raise InvariantViolation(
                f"base case expects a positive star exponent, got k={k} for target {target}")
        rec = LevelRecord(ell=0, k=k, mu_values=(), branches=(), delta=None,
                          mu_hat_prime=None, terminal="base-star", terminal_w=k)
        return Star(k), [rec]

    k = max(0, _power_bracket(C.mu_star, hmu, target))
    if k > MATERIALIZE_LIMIT:
        raise CapacityError(f"level ell={ell} needs {k} singleton children, "
                            f"limit {MATERIALIZE_LIMIT}")
    singletons = [Star(0)] * k
    mu_i = target / hmu ** k

    mu_values = []
    branches = []
    h_star = edge_ratio(C.mu_star, p)
    h_zero = edge_ratio(0, p)
    for i in range(1, rp.d + 1):
        lo, hi = _residual_window(rp, C.mu_star, i)
        if hi < mu_i <= hi * (1 + _REL_SLACK):
            mu_i = hi
        if not lo < mu_i <= hi:
            raise InvariantViolation(f"level ell={ell} i={i}: residual {mu_i} "
                                     f"left the solvable window ({lo}, {hi}]")
        mu_values.append(mu_i)
        if i == rp.d:
            break
        if mu * h_star * h_zero ** (rp.d - i) >= mu_i:
            y = 0.0
            child = Star(_branch_star_w(ell, rp, C))
        else:
            y = C.mu_star
            child = DaryTree(rp.d, _branch_tree_t(ell, rp, C))
        branches.append(BranchChoice(i=i, y=y, gadget=child))
        mu_i = mu_i / (h_zero if y == 0.0 else h_star)

    mu_hat_prime = invert_edge_ratio(mu_i / mu, p)
    if mu_hat_prime > C.mu_star:
        if mu_hat_prime <= C.mu_star * (1 + _REL_SLACK):
            mu_hat_prime = C.mu_star
        else:
            raise InvariantViolation(
                f"residual target {mu_hat_prime} exceeds mu_star {C.mu_star}")

    delta = _cutoff_delta(ell, rp, C)
    if mu_hat_prime <= delta:
        terminal, w = "cutoff-star", _cutoff_star_w(delta, rp)
        tail, below = Star(w), []
    else:
        terminal, w = "recurse", None
        tail, below = _reference_construct(ell - 1, mu_hat_prime, rp, C)
    rec = LevelRecord(ell=ell, k=k, mu_values=tuple(mu_values),
                      branches=tuple(branches), delta=delta,
                      mu_hat_prime=mu_hat_prime, terminal=terminal, terminal_w=w)
    return Comb(tuple(singletons + [b.gadget for b in branches] + [tail])), [rec] + below


def _reference_certify(ell, target, rp, C=None):
    target, C = _prepare(ell, target, rp, C)
    tree, trace = _reference_construct(ell, target, rp, C)
    achieved = gadget_field(tree, rp.params)  # a fresh level table
    return ConstructReport(gadget=tree, target=target, achieved=achieved,
                           log_error=math.log(achieved / target),
                           bound=error_bound(ell, float(rp.params.gamma), C.alpha),
                           size=tree_size(tree), depth=ell, trace=tuple(trace))


def _outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by the caller, not swallowed
        return type(exc), str(exc)


_EDGE = 1.005 * construction_field_bound(SpinParams(1.0, 2.0, 1.0), 1)
# the four benchmark points (beta = 1, beta < 1, mu just above the bound,
# d = 2), then a wider d = 2 point and a d = 3 point
POINTS = [(1.0, 2.0, 20.5, 1), (0.8, 2.0, 31.0, 1), (1.0, 2.0, _EDGE, 1),
          (0.9, 1.5, 12.5, 2), (0.5, 4.0, 400.0, 2), (0.8, 2.0, 60.0, 3)]
SHARES = (0.13, 0.52, 0.91, 1.0)  # one per benchmark target bin, then mu_star


@pytest.mark.parametrize("beta, gamma, mu, d", POINTS)
def test_shared_schedule_equals_the_recursive_construction(beta, gamma, mu, d):
    rp = RecursionParams(SpinParams(beta, gamma, mu), d)
    C = decay_constants(rp)
    shared = Schedule(rp, C)
    ells = [*range(13), *((40, 100) if d == 1 else ())]
    built = 0
    for ell in ells:
        for share in SHARES:
            target = C.mu_star * share
            want = _outcome(_reference_certify, ell, target, rp, C)
            assert _outcome(certify, ell, target, rp, shared) == want, (ell, share)
            assert _outcome(certify, ell, target, rp, C) == want, (ell, share)
            built += isinstance(want, ConstructReport)
    assert built >= len(ells) * len(SHARES) - 2


def test_every_sweep_row_equals_a_fresh_certify(monkeypatch):
    rows = []

    def record(ell, target, rp, schedule):
        rows.append((ell, target, rp, schedule, certify(ell, target, rp, schedule)))
        return rows[-1][-1]

    monkeypatch.setattr(cli, "certify_construct", record)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["sweep", "--kind", "construct-error", "--beta", "0.9",
                         "--gamma", "1.5", "--mu", "12.5", "--d", "2",
                         "--ell-max", "6", "--targets", "20"]) == 0
    assert len(rows) == 7 * 20
    assert len({id(schedule) for *_, schedule, _ in rows}) == 1
    for ell, target, rp, _, report in rows:
        assert report == certify(ell, target, rp, decay_constants(rp))
        assert report == _reference_certify(ell, target, rp)


@pytest.mark.parametrize("beta, gamma, mu, d, ell, target, error", [
    # cancellation in invert_edge_ratio: the residual lands past mu_star
    (0.9, 1000.0, 1220873586480681.8, 2, 2, 988907605047354.5, InvariantViolation),
    # beta = 1 and mu = 1e17: edge_ratio(mu) rounds to 1.0
    (1.0, 2.0, 1e17, 1, 0, 1e10, NumericError),
    # mu = 40 is below the construction's field bound of about 170.5
    (0.5, 4.0, 40.0, 2, 3, 10.0, DomainError),
])
def test_refused_inputs_keep_their_error_and_message(beta, gamma, mu, d, ell, target, error):
    rp = RecursionParams(SpinParams(beta, gamma, mu), d)
    want = _outcome(_reference_certify, ell, target, rp)
    assert want[0] is error
    assert _outcome(certify, ell, target, rp) == want
    assert _outcome(certify, ell, target, rp, Schedule(rp, decay_constants(rp))) == want


def test_a_schedule_for_other_parameters_is_refused():
    rp = RecursionParams(SpinParams(1.0, 2.0, 20.0), 1)
    other = RecursionParams(SpinParams(1.0, 2.0, 21.0), 1)
    schedule = Schedule(other, decay_constants(other))
    with pytest.raises(DomainError, match="schedule was built for other parameters"):
        certify(2, 10.0, rp, schedule)


def test_per_level_helpers_run_once_per_level_and_command(monkeypatch):
    calls = {}
    for name in ("_cutoff_delta", "_branch_tree_t", "_branch_star_w"):
        def spy(ell, rp, C, name=name, helper=getattr(construct, name)):
            calls[name, ell] = calls.get((name, ell), 0) + 1
            return helper(ell, rp, C)
        monkeypatch.setattr(construct, name, spy)
    modules = {module: dict(vars(module)) for module in (construct, gadgets)}
    argv = ["sweep", "--kind", "construct-error", "--beta", "0.8", "--gamma", "1.4",
            "--mu", "300", "--d", "2", "--ell-max", "4", "--targets", "10"]
    outputs = []
    for _ in range(2):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        outputs.append(out.getvalue())
        assert calls and set(calls.values()) == {1}, calls
        # both branch kinds and the cutoff are reached at every level 1..4
        assert sorted(calls) == sorted((name, ell) for ell in range(1, 5) for name in
                                       ("_cutoff_delta", "_branch_tree_t", "_branch_star_w"))
        calls.clear()  # the next command builds its schedule afresh
    assert outputs[0] == outputs[1]
    for module, before in modules.items():
        assert vars(module) == before, module.__name__
