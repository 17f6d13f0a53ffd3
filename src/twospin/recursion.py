"""Scalar recursion machinery for the uniform-field gadget algebra.

For params (beta, gamma, mu) the function

    edge_ratio(x) = (beta*x + 1) / (x + gamma)

is the multiplicative factor a pendant neighbour with effective field x
contributes to its parent's field ratio, and

    level_map(x) = mu * edge_ratio(x)**d

is the parent's field when all d children realise x.  For ferromagnetic
parameters with beta <= 1 the level map is increasing with a largest fixed
point mu_star; the iteration mu, level_map(mu), ... decreases monotonically
onto it.  `decay_constants` packages the certified contraction data (alpha,
c, eta, iota, t0) that the gadget construction uses to bound its error, and
the threshold helpers evaluate the closed-form degree/field bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import SpinParams
from .errors import DomainError, NumericError


@dataclass(frozen=True)
class RecursionParams:
    """SpinParams plus the tree arity d used by the level map.

    Requires a ferromagnetic system with beta <= 1 and beta*(beta*gamma)**d > 1
    (so the level map has a nontrivial largest fixed point); systems with
    beta > 1 are handled by the self-loop reduction instead.
    """

    params: SpinParams
    d: int

    def __post_init__(self):
        p = self.params
        if not p.beta * p.gamma > 1:
            raise DomainError("recursion requires a ferromagnetic system (beta*gamma > 1)")
        if p.beta > 1:
            raise DomainError("recursion requires beta <= 1; use the self-loop reduction for beta > 1")
        if self.d < 1:
            raise DomainError("arity d must be a positive integer")
        if not p.beta * (p.beta * p.gamma) ** self.d > 1:
            raise DomainError("need beta*(beta*gamma)**d > 1")


@dataclass(frozen=True)
class DecayConstants:
    """Certified contraction data for the level map around mu_star.

    alpha bounds the single-edge log-derivative everywhere on x > 0; c < 1
    bounds the full level-map contraction on (mu_star - eta, mu_star + eta);
    t0 is the number of mu-started iterations needed to enter that window and
    iota >= max(ln mu, eta * c**-t0) scales the depth-t tree error bound
    exp(c**t * iota).
    """

    alpha: float
    c: float
    eta: float
    iota: float
    t0: int
    mu_star: float


def edge_ratio(x, p: SpinParams):
    """(beta*x + 1)/(x + gamma): per-neighbour field multiplier."""
    return (p.beta * x + 1) / (x + p.gamma)


def level_map(x, rp: RecursionParams):
    """mu * edge_ratio(x)**d: field of a node whose d children realise x."""
    p = rp.params
    return p.mu * edge_ratio(x, p) ** rp.d


def invert_edge_ratio(t, p: SpinParams):
    """Unique x >= 0 with edge_ratio(x) == t; needs 1/gamma < t < beta."""
    if not (1 / p.gamma < t < p.beta):
        raise DomainError(
            f"edge_ratio maps (0, inf) onto (1/gamma, beta); t={t} is outside")
    return (t * p.gamma - 1) / (p.beta - t)


def edge_contraction(x, p: SpinParams):
    """|d/d(ln x) ln edge_ratio(x)| = (beta*gamma - 1) x / ((x + gamma)(beta x + 1))."""
    return (p.beta * p.gamma - 1) * x / ((x + p.gamma) * (p.beta * x + 1))


def contraction_rate(x, rp: RecursionParams):
    """Local log-log slope of the level map: d * edge_contraction(x)."""
    return rp.d * edge_contraction(x, rp.params)


def contraction_bound(p: SpinParams) -> float:
    """Supremum of edge_contraction over x > 0: (sqrt(bg)-1)/(sqrt(bg)+1)."""
    s = math.sqrt(float(p.beta * p.gamma))
    return (s - 1) / (s + 1)


def fixed_point_iterates(rp: RecursionParams, rel_tol: float = 1e-12,
                         max_iter: int = 10 ** 6) -> list:
    """Iterates x0 = mu, x_{i+1} = level_map(x_i), run to relative stagnation.

    The sequence decreases monotonically onto the largest fixed point, so the
    last entry is the mu_star approximation.  Works for any scalar type with
    arithmetic (float, Fraction, mpmath.mpf).
    """
    x = rp.params.mu
    out = [x]
    for _ in range(max_iter):
        nxt = level_map(x, rp)
        out.append(nxt)
        if abs(x - nxt) <= rel_tol * abs(nxt):
            return out
        x = nxt
    raise NumericError(
        "fixed-point iteration did not stagnate; parameters likely violate preconditions")


def solve_mu_star(rp: RecursionParams, rel_tol: float = 1e-12,
                  max_iter: int = 10 ** 6):
    """Largest fixed point of the level map, via the monotone iteration.

    The result is validated against the a-priori bracket
    mu/gamma**d < mu_star < beta**d * mu.
    """
    return _bracketed(fixed_point_iterates(rp, rel_tol, max_iter)[-1], rp)


def _bracketed(mu_star, rp: RecursionParams):
    """mu_star, after checking mu/gamma**d < mu_star < beta**d * mu."""
    p = rp.params
    lo = p.mu / p.gamma ** rp.d
    hi = p.beta ** rp.d * p.mu
    if not (lo < mu_star < hi):
        raise NumericError(
            f"fixed point {mu_star} escaped the bracket ({lo}, {hi})")
    return mu_star


_IOTA_CHECK_HORIZON = 200


def decay_constants(rp: RecursionParams, rel_tol: float = 1e-12) -> DecayConstants:
    """Concrete (alpha, c, eta, iota, t0) with a certified contraction window.

    c is placed halfway between the contraction at the fixed point and 1; eta
    shrinks by halving until contraction_rate <= c on the whole window.  The
    rate's derivative has numerator gamma - beta*x**2, so the rate rises to
    its peak at sqrt(gamma/beta) and falls after it: its maximum over the
    window is its value at that peak clamped into the window.  t0 counts
    mu-started iterations until the window is entered; iota starts at
    max(ln mu, eta * c**-t0) and is inflated if any iterate up to t0 would
    violate ln(x_t/mu_star) <= c**t * iota, so the published bound holds for
    every depth.
    """
    p = rp.params
    iterates = fixed_point_iterates(rp, rel_tol)
    mu_star = _bracketed(iterates[-1], rp)
    alpha = contraction_bound(p)
    g_star = contraction_rate(mu_star, rp)
    if not 0 < g_star < 1:
        raise NumericError(
            f"contraction at the fixed point is {g_star}, not in (0, 1)")
    c = (g_star + 1) / 2

    peak = math.sqrt(p.gamma / p.beta)
    eta = mu_star / 2
    for _ in range(200):
        if contraction_rate(min(max(peak, mu_star - eta), mu_star + eta), rp) <= c:
            break
        eta /= 2
    else:
        raise NumericError("could not certify a contraction window around the fixed point")

    t0 = 0
    while t0 < len(iterates) and not iterates[t0] < mu_star + eta:
        t0 += 1
    if t0 == len(iterates):
        raise NumericError("iteration never entered the contraction window")

    iota = max(math.log(float(p.mu)), eta * c ** (-t0))
    horizon = min(len(iterates), _IOTA_CHECK_HORIZON)
    for t in range(min(t0 + 1, horizon)):
        gap = math.log(iterates[t] / mu_star)
        if gap > c ** t * iota:
            iota = gap / c ** t
    return DecayConstants(alpha=alpha, c=c, eta=eta, iota=iota, t0=t0,
                          mu_star=mu_star)


# ---------------------------------------------------------------------------
# thresholds

def uniqueness_threshold(beta: float, degree: int, rel_tol: float = 1e-10) -> float:
    """Critical field mu_c > 1 for the antiferromagnetic Ising tree recursion.

    The recursion x -> mu * ((beta*x + 1)/(x + beta))**(degree-1) on the
    degree-regular tree has a unique *stable* fixed point iff
    |log mu| >= log mu_c.  mu_c is found by bisection on the stability
    |F'(fix)| <= 1 of the (unique) fixed point of the decreasing map.
    """
    if degree < 3:
        raise DomainError("degree must be at least 3")
    if not 0 < beta < (degree - 1) / (degree + 1):
        raise DomainError("requires 0 < beta < (degree-1)/(degree+1)")
    b = degree - 1

    def fixed_point(mu: float) -> float:
        lo = mu * beta ** b
        hi = mu * beta ** (-b)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mu * ((beta * mid + 1) / (mid + beta)) ** b > mid:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    def stability(mu: float) -> float:
        x = fixed_point(mu)
        return b * (1 - beta * beta) * x / ((beta * x + 1) * (x + beta))

    if stability(1.0) <= 1:
        raise DomainError(
            "fixed point already stable at mu = 1 for this (beta, degree) "
            "under branching degree-1; no threshold above 1 exists")
    hi = 2.0
    for _ in range(200):
        if stability(hi) < 1:
            break
        hi *= 2
    else:
        raise NumericError("could not bracket the stability transition")
    lo = 1.0
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if stability(mid) < 1:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class HardnessThresholds:
    """Closed-form degree/arity choices and field bounds for beta < gamma.

    mu_bound_local_fields is the (gamma/beta)**(Delta/2) bound used with
    vertex-dependent fields; mu_bound_uniform is the gamma**d * max(...) bound
    for uniform fields when beta <= 1; mu_bound_uniform_large_beta is the
    (gamma-1)/(beta-1) bound when beta > 1.  Exactly one of the last two is
    set.
    """

    Delta: int
    d: int
    mu_bound_local_fields: float
    mu_bound_uniform: float | None
    mu_bound_uniform_large_beta: float | None
    note: str | None = None


_UNIFORM_BOUND_NOTE = (
    "mu_bound_uniform evaluates gamma**d * max((gamma/beta)**(Delta/2), "
    "((beta*gamma-1)/beta)*(1+(d+1)/ln(beta*(beta*gamma)**d))) literally; "
    "for (beta, gamma) = (1, 2) this gives 16, not the sometimes-quoted 12."
)


def min_arity(p: SpinParams) -> int:
    """Smallest positive integer d with beta*(beta*gamma)**d > 1."""
    bg = p.beta * p.gamma
    if not bg > 1:
        raise DomainError("requires beta*gamma > 1")
    d = 1
    while not p.beta * bg ** d > 1:
        d += 1
        if d > 10 ** 6:
            raise NumericError("no feasible arity found")
    return d


def construction_field_bound(p: SpinParams, d: int) -> float:
    """Uniform field above which every target in (0, mu_star] is reachable.

    (gamma**d (beta gamma - 1)/beta) * (1 + (d+1)/ln(beta (beta gamma)**d)).
    """
    beta, gamma = float(p.beta), float(p.gamma)
    bg = beta * gamma
    if not (bg > 1 and beta * bg ** d > 1):
        raise DomainError("requires beta*gamma > 1 and beta*(beta*gamma)**d > 1")
    return (gamma ** d * (bg - 1) / beta) * (1 + (d + 1) / math.log(beta * bg ** d))


def hardness_thresholds(p: SpinParams, d: int | None = None) -> HardnessThresholds:
    """Delta, d and the field bounds; requires beta < gamma and beta*gamma > 1."""
    beta, gamma = float(p.beta), float(p.gamma)
    if not beta < gamma:
        raise DomainError("requires beta < gamma")
    if not beta * gamma > 1:
        raise DomainError("requires a ferromagnetic system (beta*gamma > 1)")
    s = math.sqrt(beta * gamma)
    Delta = math.floor((s + 1) / (s - 1)) + 1
    if d is None:
        d = min_arity(p)
    local = (gamma / beta) ** (Delta / 2)
    if beta <= 1:
        uniform = gamma ** d * max(local, construction_field_bound(p, d) / gamma ** d)
        return HardnessThresholds(Delta, d, local, uniform, None,
                                  note=_UNIFORM_BOUND_NOTE)
    return HardnessThresholds(Delta, d, local, None, (gamma - 1) / (beta - 1))
