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

The construction is one loop from ell down to 0 over a `Schedule`, which
holds what depends on (beta, gamma, mu, d) and the level but not on the
target: the edge ratios, the residual windows and branch thresholds, each
level's star length, tree depth and cutoff, and the d-ary field table that
`gadget_field` reads.  It also memoises each residual's level step (k, the
residuals mu_i and the branch kinds), keyed by the residual, which depends
on no level.  A schedule is built once per command, so every level of a
construction and every target of a sweep share it, and a sweep over T
targets and depths 0..ell_max takes about T * ell_max steps, not
T * ell_max**2 / 2: a target's rows share one residual chain.  The loop
also counts the gadget's vertices as it builds the combs bottom-up.

At beta = 1 the published star/cutoff formulas divide by ln(beta) = 0; the
star length is then chosen directly from the exact decay rate edge_ratio(mu)
(which dominates beta**w in the proof), and the cutoff uses the same formula
with ln(edge_ratio(mu)) in place of ln(beta).  For beta < 1 both variants are
computed and the stricter one used.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .errors import CapacityError, DomainError, InvariantViolation, NumericError, in_float_range
from .gadgets import (DEPTH_LIMIT, MATERIALIZE_LIMIT, Comb, DaryTree, GadgetTree, Star,
                      dary_size, gadget_field)
from .recursion import (DecayConstants, RecursionParams, construction_field_bound, decay_constants,
                        edge_ratio, invert_edge_ratio, least_integer, solve_mu_star)

_REL_SLACK = 1e-9
_SINGLETON = Star(0)


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
    """Certified result: the gadget, its field, and the depth-ell bound."""
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
    """Star length whose field is at most alpha**ell / d; a cap below the
    normal float range, which deep levels reach, is compared in logs."""
    p = rp.params
    mu = float(p.mu)
    cap = C.alpha ** ell / rp.d
    hmu = edge_ratio(mu, p)
    ln_hmu, ln_cap_mu = math.log(hmu), ell * math.log(C.alpha) - math.log(rp.d) - math.log(mu)
    w = least_integer(lambda w: w * ln_hmu <= ln_cap_mu if cap < sys.float_info.min
                      else mu * hmu ** w <= cap, ln_cap_mu / ln_hmu, 0)
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


class Schedule:
    """The target-independent data of the construction at (rp, C), and
    each residual's level step.

    The edge ratios, the residual windows of i = 1..d, the star branch's
    largest residual for i = 1..d-1 and the d-ary field table are plain
    attributes, which cannot raise: each is a power below 1 of finite
    floats.  Each per-level helper (`_branch_star_w`, `_branch_tree_t`,
    `_cutoff_delta`, `_cutoff_star_w`) runs the first time a level needs
    it, so a helper that refuses its inputs raises where an unshared
    construction would.  `_residual_step` is memoised by its residual
    target.  A schedule lives for one command: each `certify` builds its
    own unless one is passed, as a sweep does.
    """

    __slots__ = ("rp", "C", "mu", "hmu", "h_star", "h_zero", "windows", "thresholds",
                 "levels", "_memo")

    def __init__(self, rp: RecursionParams, C: DecayConstants):
        p, d = rp.params, rp.d
        self.rp, self.C = rp, C
        self.mu = float(p.mu)
        self.hmu = edge_ratio(self.mu, p)
        self.h_star = edge_ratio(C.mu_star, p)
        self.h_zero = edge_ratio(0, p)
        self.windows = [_residual_window(rp, C.mu_star, i) for i in range(1, d + 1)]
        self.thresholds = [self.mu * self.h_star * self.h_zero ** (d - i) for i in range(1, d)]
        self.levels = {}  # gadget_field's d-ary level table
        self._memo = {}

    def once(self, helper, key, *args):
        """helper(*args) for key, a level or a residual target, computed the
        first time it is asked for."""
        key = helper, key
        memo = self._memo
        value = memo.get(key, memo)  # the memo itself: not yet computed
        if value is memo:
            value = memo[key] = helper(*args)
        return value


def _star_branch(ell: int, s: Schedule) -> tuple[Star, int]:
    """Level ell's star branch child and its vertex count."""
    w = _branch_star_w(ell, s.rp, s.C)
    return Star(w), w + 1


def _tree_branch(ell: int, s: Schedule) -> tuple[DaryTree, int]:
    """Level ell's d-ary tree branch child and its vertex count."""
    d, t = s.rp.d, _branch_tree_t(ell, s.rp, s.C)
    return DaryTree(d, t), dary_size(d, t)


def _residual_step(target: float, s: Schedule) -> tuple[int, tuple, tuple]:
    """The arithmetic of a level that reads the residual target and not the
    level: (k, the residuals mu_1, mu_2, ..., each branch's ideal value y).

    The residuals end at mu_d, or at the first one outside its window.  The
    step does not refuse that one: `_construct` does, naming the level,
    after the level helpers of the branches before it, where a level that
    checked as it went would.  A k past the singleton limit ends the step.
    """
    C, d = s.C, s.rp.d
    k = max(0, _power_bracket(C.mu_star, s.hmu, target))
    if k > MATERIALIZE_LIMIT:
        return k, (), ()
    mu_i = target / s.hmu ** k
    mu_values, ys = [], []
    for i in range(1, d + 1):
        # the loop invariant, absorbing float drift at the closed end
        lo, hi = s.windows[i - 1]
        if hi < mu_i <= hi * (1 + _REL_SLACK):
            mu_i = hi
        mu_values.append(mu_i)
        if i == d or not lo < mu_i <= hi:
            break
        y = 0.0 if s.thresholds[i - 1] >= mu_i else C.mu_star
        ys.append(y)
        mu_i = mu_i / (s.h_zero if y == 0.0 else s.h_star)
    return k, tuple(mu_values), tuple(ys)


def _construct(ell: int, target: float, s: Schedule) -> tuple[GadgetTree, list, int]:
    """The gadget, its per-level trace (top level first) and its vertex
    count: one loop from ell down to the level that ends in a star, then
    the combs bottom-up."""
    rp, C, mu = s.rp, s.C, s.mu
    trace, children = [], []
    while ell > 0:
        k, mu_values, ys = s.once(_residual_step, target, target, s)
        if k > MATERIALIZE_LIMIT:  # the comb holds one child per singleton
            raise CapacityError(f"level ell={ell} needs {k} singleton children, "
                                f"limit {MATERIALIZE_LIMIT}")
        kids = [_SINGLETON] * k
        size = k  # the kids' vertices
        branches = []
        for i, y in enumerate(ys, 1):
            child, child_size = s.once(_star_branch if y == 0.0 else _tree_branch, ell, ell, s)
            branches.append(BranchChoice(i=i, y=y, gadget=child))
            kids.append(child)
            size += child_size
        i, mu_i = len(mu_values), mu_values[-1]  # the step stops at a refused residual
        lo, hi = s.windows[i - 1]
        if not lo < mu_i <= hi:
            raise InvariantViolation(f"level ell={ell} i={i}: residual {mu_i} "
                                     f"left the solvable window ({lo}, {hi}]")

        mu_hat_prime = invert_edge_ratio(mu_i / mu, rp.params)
        if mu_hat_prime > C.mu_star:
            if mu_hat_prime <= C.mu_star * (1 + _REL_SLACK):
                mu_hat_prime = C.mu_star
            else:
                raise InvariantViolation(
                    f"residual target {mu_hat_prime} exceeds mu_star {C.mu_star}")

        delta = s.once(_cutoff_delta, ell, ell, rp, C)
        cutoff = mu_hat_prime <= delta
        w = s.once(_cutoff_star_w, ell, delta, rp) if cutoff else None
        trace.append(LevelRecord(ell=ell, k=k, mu_values=mu_values,
                                 branches=tuple(branches), delta=delta,
                                 mu_hat_prime=mu_hat_prime,
                                 terminal="cutoff-star" if cutoff else "recurse",
                                 terminal_w=w))
        children.append((kids, size))
        if cutoff:
            break
        ell, target = ell - 1, mu_hat_prime
    else:
        w = _power_bracket(mu, s.hmu, target)
        if w < 1:
            raise InvariantViolation(
                f"base case expects a positive star exponent, got k={w} for target {target}")
        trace.append(LevelRecord(ell=0, k=w, mu_values=(), branches=(), delta=None,
                                 mu_hat_prime=None, terminal="base-star", terminal_w=w))
    tree, size = Star(w), w + 1
    for kids, kids_size in reversed(children):
        tree, size = Comb((*kids, tree)), 1 + kids_size + size
    return tree, trace, size


def _check_depth(ell: int) -> None:
    """Refuse a depth the construction does not build: ell < 0 or past DEPTH_LIMIT."""
    if ell < 0:
        raise DomainError("depth ell must be a non-negative integer")
    if ell > DEPTH_LIMIT:
        raise CapacityError(f"depth ell={ell} exceeds the limit {DEPTH_LIMIT}")


def _prepare(ell: int, target: float, rp: RecursionParams,
             schedule: Optional[Schedule]) -> tuple[float, Schedule]:
    _check_depth(ell)
    bound = in_float_range("the construction's field bound", construction_field_bound,
                           rp.params, rp.d)
    if not rp.params.mu > bound:
        raise DomainError(
            f"uniform field mu={rp.params.mu} must exceed {bound} for the "
            "construction's solvability invariant")
    schedule = schedule or Schedule(rp, decay_constants(rp, solve_mu_star(rp)))
    C = schedule.C
    if not target > 0:
        raise DomainError("target field must be positive")
    if target > C.mu_star:
        if target <= C.mu_star * (1 + 1e-12):
            target = C.mu_star
        else:
            raise DomainError(
                f"target {target} exceeds the largest realisable field {C.mu_star}")
    return target, schedule


def error_bound(ell: int, p_gamma: float, alpha: float) -> float:
    """The certified log-field error budget (ln gamma + ell) * alpha**ell."""
    return (math.log(p_gamma) + ell) * alpha ** ell


def certify(ell: int, target: float, rp: RecursionParams,
            schedule: Optional[Schedule] = None) -> ConstructReport:
    """Run the construction, evaluate the gadget, report error vs bound.

    The field is `gadget_field`'s product recursion in the parameters'
    number type, so on float parameters a float, not a proved enclosure
    (ROADMAP item 4); the size is counted by the construction loop.

    schedule is a `Schedule` built for rp and shared by every call of one
    command, as a sweep's rows share one; None builds one for this call
    alone, from `solve_mu_star` of rp.
    """
    if schedule is not None and schedule.rp != rp:
        raise DomainError("the construction schedule was built for other parameters")
    target, schedule = _prepare(ell, target, rp, schedule)
    tree, trace, size = _construct(ell, target, schedule)
    achieved = gadget_field(tree, rp.params, schedule.levels)
    return ConstructReport(
        gadget=tree,
        target=target,
        achieved=achieved,
        log_error=math.log(achieved / target),
        bound=error_bound(ell, float(rp.params.gamma), schedule.C.alpha),
        size=size,
        depth=ell,
        trace=tuple(trace),
    )
