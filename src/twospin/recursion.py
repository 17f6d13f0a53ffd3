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
from fractions import Fraction
from typing import NamedTuple

from .core import SpinParams
from .errors import DomainError, NumericError, in_float_range
from .exact import is_exact


class _RecursionParams(NamedTuple):
    params: SpinParams
    d: int


class RecursionParams(_RecursionParams):
    """SpinParams plus the tree arity d used by the level map.

    Requires a ferromagnetic system with beta <= 1 and beta*(beta*gamma)**d > 1
    (so the level map has a nontrivial largest fixed point); systems with
    beta > 1 are handled by the self-loop reduction instead.  A d at which
    gamma**d, the largest power the recursion forms, overflows a float is a
    NumericError, and so is a mu + gamma, its largest sum, that overflows.
    """

    __slots__ = ()

    def __new__(cls, params: SpinParams, d: int):
        p = params
        if not p.beta * p.gamma > 1:
            raise DomainError("recursion requires a ferromagnetic system (beta*gamma > 1)")
        if p.beta > 1:
            raise DomainError("recursion requires beta <= 1; use the self-loop reduction for beta > 1")
        if d < 1:
            raise DomainError("arity d must be a positive integer")
        in_float_range("gamma**d", pow, p.gamma, d)  # the largest power the recursion forms
        in_float_range("mu + gamma", lambda: p.mu + p.gamma)  # and its largest sum
        if not p.beta * (p.beta * p.gamma) ** d > 1:
            raise DomainError("need beta*(beta*gamma)**d > 1")
        return super().__new__(cls, params, d)


class DecayConstants(NamedTuple):
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


def least_integer(holds, guess: float, lo) -> int:
    """Least integer k >= lo with holds(k), where holds is false below some
    integer and true from it on; the search steps from ceil(guess)."""
    k = max(lo, math.ceil(guess))
    while not holds(k):
        k += 1
    while k > lo and holds(k - 1):
        k -= 1
    return k


def fixed_point_iterates(rp: RecursionParams, rel_tol: float) -> list:
    """Iterates x0 = mu, x_{i+1} = level_map(x_i), run to relative stagnation.

    The sequence decreases monotonically onto the largest fixed point, so the
    last entry is the mu_star approximation.  Works for any scalar type with
    arithmetic (float, Fraction, mpmath.mpf).  A negative rel_tol is a DomainError.
    """
    if rel_tol < 0:
        raise DomainError(f"relative tolerance must be >= 0, got {rel_tol}")
    x = rp.params.mu
    out = [x]
    for _ in range(10 ** 6):
        nxt = level_map(x, rp)
        out.append(nxt)
        if abs(x - nxt) <= rel_tol * abs(nxt):
            return out
        x = nxt
    raise NumericError(
        "fixed-point iteration did not stagnate; parameters likely violate preconditions")


def solve_mu_star(rp: RecursionParams, rel_tol: float = 1e-12):
    """Largest fixed point of the level map, via the monotone iteration.

    The result is validated against the a-priori bracket of `mu_star_bracket`.
    """
    return _bracketed(fixed_point_iterates(rp, rel_tol)[-1], rp)


def mu_star_bracket(rp: RecursionParams) -> tuple:
    """(mu/gamma**d, beta**d * mu): the open interval that holds mu_star."""
    p = rp.params
    return p.mu / p.gamma ** rp.d, p.beta ** rp.d * p.mu


def _bracketed(mu_star, rp: RecursionParams):
    """mu_star, after checking it lies inside `mu_star_bracket`.

    A float fixed point may round onto an end of the open bracket: at
    (0.5, 1e10, 1e100, d = 1) it is 5e99 * (1 - 2e-90), which rounds to
    beta * mu.  So a float may equal either end; an exact one may not.
    """
    lo, hi = mu_star_bracket(rp)
    if not (lo < mu_star < hi or (not is_exact(mu_star) and lo <= mu_star <= hi)):
        raise NumericError(
            f"fixed point {mu_star} escaped the bracket ({lo}, {hi})")
    return mu_star


def decay_constants(rp: RecursionParams, mu_star) -> DecayConstants:
    """Concrete (alpha, c, eta, iota, t0) with a certified contraction window
    around mu_star, the fixed point `solve_mu_star` returns for rp.

    c is placed halfway between the contraction at the fixed point and 1; eta
    shrinks by halving until contraction_rate <= c on the whole window.  The
    rate's derivative has numerator gamma - beta*x**2, so the rate rises to
    its peak at sqrt(gamma/beta) and falls after it: its maximum over the
    window is its value at that peak clamped into the window.  t0 counts
    mu-started iterations until the window is entered, and no more are run;
    iota starts at max(ln mu, eta * c**-t0) and is inflated if any iterate up
    to t0 would violate ln(x_t/mu_star) <= c**t * iota, so the published
    bound holds for every depth.
    """
    p = rp.params
    alpha = contraction_bound(p)
    g_star = contraction_rate(mu_star, rp)
    if not 0 < g_star < 1:
        raise NumericError(
            f"contraction at the fixed point is {g_star}, not in (0, 1)")
    c = (g_star + 1) / 2

    peak = math.sqrt(p.gamma / p.beta)

    def certified(j):  # the window of half-width mu_star/2**j
        eta = mu_star / 2 ** j
        return contraction_rate(min(max(peak, mu_star - eta), mu_star + eta), rp) <= c
    eta = mu_star / 2 ** least_integer(certified, 1, 1)

    iterates = [p.mu]  # x_0 .. x_t0, the last one inside the window
    while not iterates[-1] < mu_star + eta:
        if len(iterates) > 10 ** 6:  # the step cap of fixed_point_iterates
            raise NumericError("iteration never entered the contraction window")
        iterates.append(level_map(iterates[-1], rp))
    t0 = len(iterates) - 1

    iota = max(math.log(float(p.mu)), eta * c ** (-t0))
    for t, x in enumerate(iterates):
        gap = math.log(x / mu_star)
        if gap > c ** t * iota:
            iota = gap / c ** t
    return DecayConstants(alpha=alpha, c=c, eta=eta, iota=iota, t0=t0,
                          mu_star=mu_star)


# ---------------------------------------------------------------------------
# thresholds

def uniqueness_threshold(beta: float, degree: int) -> float:
    """Critical field mu_c > 1 for the antiferromagnetic Ising tree recursion.

    The recursion x -> mu * ((beta*x + 1)/(x + beta))**b with b = degree - 1
    has a unique *stable* fixed point iff |log mu| >= log mu_c.  The slope at
    a fixed point x has size b(1-beta**2) x / ((beta x + 1)(x + beta)), which
    falls through 1 at the tangency root x > 1 of
    beta x**2 + (1 + beta**2 - b(1-beta**2)) x + beta = 0; mu_c is the field
    whose fixed point that root is, x * ((x + beta)/(beta x + 1))**b.
    """
    if degree < 3:
        raise DomainError("degree must be at least 3")
    if not 0 < beta < (degree - 1) / (degree + 1):
        raise DomainError("requires 0 < beta < (degree-1)/(degree+1)")
    b = degree - 1
    coeff = 1 + beta * beta - b * (1 - beta * beta)
    disc = coeff * coeff - 4 * beta * beta
    # slope at most 1 at the mu = 1 fixed point x = 1, or float drift at its edge
    if b * (1 - beta) <= 1 + beta or disc < 0:
        raise DomainError(
            "fixed point already stable at mu = 1 for this (beta, degree) "
            "under branching degree-1; no threshold above 1 exists")
    x = (-coeff + math.sqrt(disc)) / (2 * beta)
    return in_float_range("the uniqueness threshold mu_c",
                           lambda: x * ((x + beta) / (beta * x + 1)) ** b)


class HardnessThresholds(NamedTuple):
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
    return least_integer(lambda d: p.beta * bg ** d > 1,
                         -math.log(p.beta) / math.log(bg), 1)


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
    """Delta, d and the field bounds; requires beta < gamma, beta*gamma > 1
    and, when d is given, d >= 1."""
    beta, gamma = float(p.beta), float(p.gamma)
    if not beta < gamma:
        raise DomainError("requires beta < gamma")
    if not beta * gamma > 1:
        raise DomainError("requires a ferromagnetic system (beta*gamma > 1)")
    if d is not None and d < 1:
        raise DomainError("arity d must be a positive integer")
    # s**2 = P/Q exactly, so floor((s+1)/(s-1)) = floor((P + Q + sqrt(4PQ))/(P - Q));
    # only a gamma of inf, which SpinParams accepts, has no ratio
    P, Q = in_float_range("Delta", lambda: (Fraction(beta) * Fraction(gamma)).as_integer_ratio())
    Delta = (P + Q + math.isqrt(4 * P * Q)) // (P - Q) + 1
    if d is None:
        d = min_arity(p)
    local = in_float_range("mu_bound_local_fields", lambda: (gamma / beta) ** (Delta / 2))
    if beta <= 1:
        uniform = in_float_range("mu_bound_uniform", lambda: gamma ** d * max(
            local, construction_field_bound(p, d) / gamma ** d))
        return HardnessThresholds(Delta, d, local, uniform, None,
                                  note=_UNIFORM_BOUND_NOTE)
    return HardnessThresholds(Delta, d, local, None, in_float_range(
        "mu_bound_uniform_large_beta", lambda: (gamma - 1) / (beta - 1)))
