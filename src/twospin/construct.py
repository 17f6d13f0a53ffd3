"""Correlation-decay construction of a gadget realising a target field.

Given ferromagnetic (beta <= 1) parameters with a sufficiently large uniform
field, any target in (0, mu_star] can be approached by a tree gadget whose
log-field error shrinks geometrically in the recursion depth ell:

    |ln(achieved / target)| <= (ln gamma + ell) * alpha**ell.

Each level peels the target into k singleton children plus d-1 children that
realise either ~0 (a long star) or ~mu_star (a deep d-ary tree); the residual
target is pushed through the inverse edge ratio into the recursive child.
The per-level substitutions each perturb the parent's log-field by at most
alpha**ell / d, and the recursion contracts older errors by alpha, which is
what the depth-ell bound sums up.  A loop invariant (the residual equation
must stay solvable inside (0, mu_star]) is asserted at every level and the
construction aborts rather than continue past a violation.

At beta = 1 the published star/cutoff formulas divide by ln(beta) = 0; the
star length is then chosen directly from the exact decay rate edge_ratio(mu)
(which dominates beta**w in the proof), and the cutoff uses the same formula
with ln(edge_ratio(mu)) in place of ln(beta).  For beta < 1 both variants are
computed and the stricter one used.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .errors import CapacityError, DomainError, InvariantViolation, NumericError, in_float_range
from .gadgets import (DEPTH_LIMIT, MATERIALIZE_LIMIT, Comb, DaryTree, GadgetTree, Star,
                      gadget_field, tree_size)
from .recursion import (DecayConstants, RecursionParams, construction_field_bound,
                        decay_constants, edge_ratio, invert_edge_ratio, least_integer)

_REL_SLACK = 1e-9


def _residual_window(rp: RecursionParams, mu_star: float, i: int) -> tuple[float, float]:
    """(lo, hi): mu * edge_ratio(x)**(d-i+1) = mu_i has a root x in (0, mu_star]
    exactly when lo < mu_i <= hi (open below, closed above), where
    lo = mu*(1/gamma)**(d-i+1) and hi = mu*edge_ratio(mu_star)**(d-i+1).
    """
    p = rp.params
    k = rp.d - i + 1
    return p.mu * edge_ratio(0, p) ** k, p.mu * edge_ratio(mu_star, p) ** k


class BranchChoice(NamedTuple):
    """One of the d-1 intermediate children at a level: ideal value y and gadget."""
    i: int
    y: float
    gadget: GadgetTree


class LevelRecord(NamedTuple):
    """Per-level trace: bracket index k, residual targets, branches, cutoff data."""
    ell: int
    k: int
    mu_values: tuple
    branches: tuple
    delta: Optional[float]
    mu_hat_prime: Optional[float]
    terminal: str  # 'base-star' | 'cutoff-star' | 'recurse'
    terminal_w: Optional[int]


class ConstructReport(NamedTuple):
    """Certified result: the gadget, its exact field, and the depth-ell bound."""
    gadget: GadgetTree
    target: float
    achieved: float
    log_error: float
    bound: float
    size: int
    depth: int
    trace: tuple


def _power_bracket(base: float, ratio: float, target: float) -> int:
    """Largest integer k with target <= base * ratio**k, for 0 < ratio < 1; a ratio
    that rounds to 1 (no k exists) or a target / base that underflows is a NumericError."""
    if not ratio < 1:
        raise NumericError("the star's decay rate edge_ratio(mu) rounds to 1.0")
    if not target / base > 0:
        raise NumericError(f"target {target} / {base} underflows a float")
    return least_integer(lambda k: base * ratio ** k < target,
                         math.log(target / base) / math.log(ratio), -math.inf) - 1


def _branch_star_w(ell: int, rp: RecursionParams, C: DecayConstants) -> int:
    """Star length whose field is at most alpha**ell / d."""
    p = rp.params
    mu = float(p.mu)
    cap = C.alpha ** ell / rp.d
    hmu = edge_ratio(mu, p)
    w = least_integer(lambda w: mu * hmu ** w <= cap, math.log(cap / mu) / math.log(hmu), 0)
    if p.beta < 1:
        w_pub = math.floor((ell * math.log(C.alpha) - math.log(rp.d * mu))
                           / math.log(p.beta)) + 1
        w = max(w, w_pub)
    return w


def _branch_tree_t(ell: int, rp: RecursionParams, C: DecayConstants) -> int:
    """Tree depth whose field exceeds mu_star by a factor <= exp(alpha**ell / d)."""
    t = math.floor((ell * math.log(C.alpha) - math.log(rp.d) - math.log(C.iota))
                   / math.log(C.c)) + 1
    return max(0, t)


def _cutoff_delta(ell: int, rp: RecursionParams, C: DecayConstants) -> float:
    """Residual size below which a single star replaces the recursive child."""
    p = rp.params
    mu, gamma = float(p.mu), float(p.gamma)
    ln_gamma = math.log(gamma)
    ln_alpha = math.log(C.alpha)
    ln_dmu = math.log(rp.d * mu)
    rates = [math.log(edge_ratio(mu, p))]
    if p.beta < 1:
        rates.append(math.log(p.beta))
    return min(
        math.exp(-(ln_gamma * ln_alpha / L) * ell + ln_gamma * ln_dmu / L
                 + math.log(mu / gamma))
        for L in rates)


def _cutoff_star_w(delta: float, rp: RecursionParams) -> int:
    """Largest w with mu * (1/gamma)**w > delta."""
    p = rp.params
    mu, gamma = float(p.mu), float(p.gamma)
    if not mu > delta:
        raise InvariantViolation(f"cutoff {delta} is not below mu={mu}")
    return least_integer(lambda w: not mu * gamma ** -w > delta,
                         math.log(mu / delta) / math.log(gamma), 1) - 1


def _construct(ell: int, target: float, rp: RecursionParams,
               C: DecayConstants) -> tuple[GadgetTree, list]:
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
    if k > MATERIALIZE_LIMIT:  # the comb holds one child per singleton
        raise CapacityError(f"level ell={ell} needs {k} singleton children, "
                            f"limit {MATERIALIZE_LIMIT}")
    singletons = [Star(0)] * k
    mu_i = target / hmu ** k

    mu_values = []
    branches = []
    h_star = edge_ratio(C.mu_star, p)
    h_zero = edge_ratio(0, p)
    for i in range(1, rp.d + 1):
        # the loop invariant, absorbing float drift at the closed end
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

    ratio = mu_i / mu
    mu_hat_prime = invert_edge_ratio(ratio, p)
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
        tail, below = _construct(ell - 1, mu_hat_prime, rp, C)
    rec = LevelRecord(ell=ell, k=k, mu_values=tuple(mu_values),
                      branches=tuple(branches), delta=delta,
                      mu_hat_prime=mu_hat_prime, terminal=terminal, terminal_w=w)
    return Comb(tuple(singletons + [b.gadget for b in branches] + [tail])), [rec] + below


def _check_depth(ell: int) -> None:
    """Refuse a depth the construction does not build: ell < 0 or past DEPTH_LIMIT."""
    if ell < 0:
        raise DomainError("depth ell must be a non-negative integer")
    if ell > DEPTH_LIMIT:
        raise CapacityError(f"depth ell={ell} exceeds the limit {DEPTH_LIMIT}")


def _prepare(ell: int, target: float, rp: RecursionParams,
             constants: Optional[DecayConstants]) -> tuple[float, DecayConstants]:
    _check_depth(ell)
    bound = in_float_range("the construction's field bound", construction_field_bound,
                           rp.params, rp.d)
    if not rp.params.mu > bound:
        raise DomainError(
            f"uniform field mu={rp.params.mu} must exceed {bound} for the "
            "construction's solvability invariant")
    C = constants if constants is not None else decay_constants(rp)
    if not target > 0:
        raise DomainError("target field must be positive")
    if target > C.mu_star:
        if target <= C.mu_star * (1 + 1e-12):
            target = C.mu_star
        else:
            raise DomainError(
                f"target {target} exceeds the largest realisable field {C.mu_star}")
    return target, C


def error_bound(ell: int, p_gamma: float, alpha: float) -> float:
    """The certified log-field error budget (ln gamma + ell) * alpha**ell."""
    return (math.log(p_gamma) + ell) * alpha ** ell


def certify(ell: int, target: float, rp: RecursionParams,
            constants: Optional[DecayConstants] = None) -> ConstructReport:
    """Run the construction, evaluate the gadget exactly, report error vs bound."""
    target, C = _prepare(ell, target, rp, constants)
    tree, trace = _construct(ell, target, rp, C)
    achieved = gadget_field(tree, rp.params)
    return ConstructReport(
        gadget=tree,
        target=target,
        achieved=achieved,
        log_error=math.log(achieved / target),
        bound=error_bound(ell, float(rp.params.gamma), C.alpha),
        size=tree_size(tree),
        depth=ell,
        trace=tuple(trace),
    )
