"""Quadratic-extension arithmetic used by the exact reduction certificates."""

import math
import random
import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospin.exact import Quad, _squarefree_split, half_power, is_exact, sqrt_fraction


def test_sqrt_fraction_normalises_radicands():
    r = sqrt_fraction(Fraction(8, 5))  # sqrt(8/5) = (2/5) sqrt(10)
    assert isinstance(r, Quad)
    assert (r.a, r.b, r.m) == (0, Fraction(2, 5), 10)
    assert float(r) == pytest.approx(math.sqrt(1.6), rel=1e-15)
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)  # perfect square
    with pytest.raises(ValueError):
        sqrt_fraction(0)


def test_radicands_with_prime_factors_past_the_trial_limit():
    # trial division stops at 1000; 1000003, 1000033 and 1000037 are the
    # primes just above 10**6, 999999999989 the largest below 10**12
    p, q, r, big = 1000003, 1000033, 1000037, 999999999989
    start = time.perf_counter()
    assert _squarefree_split(12 * p * q) == (2, 3 * p * q)
    assert _squarefree_split(12 * big) == (2, 3 * big)
    assert sqrt_fraction(Fraction(7 * big ** 2, 4)) == Quad(0, Fraction(big, 2), 7)
    assert _squarefree_split(5 * (p * q * r) ** 2) == (p * q * r, 5)  # a square cofactor
    # a cofactor that is not a square stays in the radicand, which then is no
    # square either: it need not be squarefree
    assert _squarefree_split(3 * p * q * r) == (1, 3 * p * q * r)
    assert _squarefree_split(2 ** 2000 * 3 * p * q * r) == (2 ** 1000, 3 * p * q * r)
    assert time.perf_counter() - start < 2


def test_radicands_that_differ_by_a_large_square_do_not_combine():
    # 2 * 1009**2 * 1013 keeps the square of 1009, a prime past the trial
    # division, so its root is sqrt(2062632106), not 1009*sqrt(2026); the two
    # denote one real, but one evaluation takes one radicand
    assert _squarefree_split(2 * 1009 ** 2 * 1013) == (1, 2062632106)
    root, other = sqrt_fraction(2 * 1009 ** 2 * 1013), Quad(0, 1009, 2026)
    assert root == Quad(0, 1, 2062632106)
    with pytest.raises(ValueError):
        root * other
    assert (root == other) is False
    assert float(root) == float(other)


def _mp_value(a: Fraction, b: Fraction, m: int):
    return (mpmath.mpf(a.numerator) / a.denominator
            + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(m))


@pytest.mark.parametrize("b, m", [
    (Fraction(1, 2 ** 500), 2 ** 1100 + 1),  # m past the float range
    (Fraction(-3, 2 ** 600), 5 * 2 ** 1200 + 7),
    (Fraction(1, 2 ** 1100), 2 ** 1200 + 1),  # b below the float range
    (Fraction(1, 2 ** 1100), 2 ** 100 + 1),  # a subnormal result
    (Fraction(7, 2 ** 1200), 3),  # below the smallest subnormal: 0.0
    (Fraction(10 ** 300), 2),  # near 1e300
    (Fraction(10 ** 308), 3),  # near the largest float
    (Fraction(1, 10 ** 300), 3),  # near 1e-300
    (Fraction(-10 ** 299, 3), 7),
    (Fraction(2, 5), 10),
], ids=["huge-m", "huge-m-negative", "tiny-b", "subnormal", "zero", "1e300", "1e308",
        "1e-300", "negative-1e299", "small"])
def test_float_of_a_quad_is_the_correctly_rounded_root(b, m):
    with mpmath.workdps(50):
        assert float(Quad(0, b, m)) == float(_mp_value(Fraction(0), b, m))


def test_float_of_a_quad_matches_mpmath():
    rng = random.Random(7)
    with mpmath.workdps(50):
        for _ in range(300):
            m = rng.randrange(2, 2 ** rng.randrange(2, 1400))
            if math.isqrt(m) ** 2 == m:
                continue
            b = Fraction(rng.randrange(1, 2 ** 600), rng.randrange(1, 2 ** 1200))
            a = Fraction(rng.randrange(2 ** 60), rng.randrange(1, 2 ** 60))  # no cancellation
            want = _mp_value(a, b, m)
            if abs(want) >= 2 ** 1024:
                with pytest.raises(OverflowError):
                    float(Quad(a, b, m))
            else:
                assert float(Quad(a, b, m)) == pytest.approx(float(want), rel=4.5e-16)
    # past the largest float the conversion raises, as float() of a Fraction does
    with pytest.raises(OverflowError):
        float(Quad(0, 10 ** 308, 5))


def test_same_extension_for_related_radicands():
    # sqrt(beta*gamma), sqrt(gamma/beta), sqrt(beta/gamma) differ by rational
    # squares, so they normalise into one Q(sqrt(m)) and combine freely
    beta, gamma = Fraction(4, 5), Fraction(2)
    a = sqrt_fraction(beta * gamma)
    b = sqrt_fraction(gamma / beta)
    c = sqrt_fraction(beta / gamma)
    assert a.m == b.m == c.m == 10
    assert a * b == gamma
    assert b * c == 1


def test_arithmetic():
    s2 = sqrt_fraction(2)
    x = 1 + s2
    assert x * x == Quad(3, 2, 2)
    assert (x - 1) ** 2 == 2
    assert x - x == 0
    assert float(2 / s2) == pytest.approx(math.sqrt(2), rel=1e-15)
    assert s2 ** 3 == Quad(0, 2, 2)
    assert s2 ** -2 == Quad(Fraction(1, 2))
    assert (s2 * s2) == 2 and isinstance(s2 * s2, Quad)
    assert Quad(5) + Fraction(1, 2) == Fraction(11, 2)


def test_exact_comparisons():
    s2 = sqrt_fraction(2)
    assert s2 > Fraction(7, 5)
    assert s2 < Fraction(3, 2)
    assert s2 > 1.41
    assert 3 - 2 * s2 > 0
    assert 2 * s2 - 3 < 0
    assert (7 - 5 * s2) < 0  # 5*sqrt(2) = 7.07...
    assert sorted([s2, Quad(1), 2 * s2]) == [Quad(1), s2, 2 * s2]


def test_division_by_conjugate():
    s2 = sqrt_fraction(2)
    inv = 1 / (1 + s2)
    assert inv == s2 - 1
    with pytest.raises(ZeroDivisionError):
        (1 + s2) / Quad(0)
    # a rational divisor, zero included, gives what its conjugate path gives
    assert (1 + s2) / Fraction(2, 3) == Quad(Fraction(3, 2), Fraction(3, 2), 2)
    assert str(s2 / 3) == "1/3*sqrt(2)" and str(s2 / Fraction(1, 2)) == "2*sqrt(2)"
    for zero in (0, Fraction(0), Quad(0)):
        with pytest.raises(ZeroDivisionError):
            s2 / zero


def test_incompatible_radicands_rejected():
    with pytest.raises(ValueError):
        sqrt_fraction(2) + sqrt_fraction(3)
    # equality across extensions is just False, not an error
    assert (sqrt_fraction(2) == sqrt_fraction(3)) is False


def test_half_power():
    for x in (Fraction(2), Fraction(1, 2), Fraction(5, 2)):
        assert half_power(x, 2, None) == x  # an even power needs no root
    assert half_power(Fraction(2), 4, sqrt_fraction(2)) == 4
    assert half_power(Fraction(2), 3, sqrt_fraction(2)) == Quad(0, 2, 2)
    assert half_power(Fraction(1, 2), -1, sqrt_fraction(Fraction(1, 2))) == sqrt_fraction(2)
    assert float(half_power(Fraction(5, 2), 5, sqrt_fraction(Fraction(5, 2)))) \
        == pytest.approx(2.5 ** 2.5, rel=1e-14)


def test_is_exact():
    assert is_exact(Fraction(1, 3)) and is_exact(7) and is_exact(sqrt_fraction(3))
    assert not is_exact(0.5)


def test_quad_is_immutable_and_hashable():
    s2 = sqrt_fraction(2)
    with pytest.raises(AttributeError):
        s2.a = Fraction(1)
    assert hash(Quad(3)) == hash(Fraction(3))
    assert len({s2, sqrt_fraction(2), Quad(1)}) == 2


# Quads of one radicand m, the values one exact evaluation combines.  The
# radicands are not squares, and 8 and 12 are not squarefree either.
_RADICANDS = st.sampled_from([2, 3, 5, 8, 12, 2026])
_COEFF = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 3)
_FIELD = settings(max_examples=100, deadline=None)


@st.composite
def _quads(draw, count):
    m = draw(_RADICANDS)
    return [Quad(draw(_COEFF), draw(_COEFF), m) for _ in range(count)]


def _mp(x: Quad):
    return mpmath.mpf(x.a.numerator) / x.a.denominator \
        + mpmath.mpf(x.b.numerator) / x.b.denominator * mpmath.sqrt(x.m)


@_FIELD
@given(_quads(3))
def test_quad_sum_and_product_obey_the_field_axioms(xyz):
    x, y, z = xyz
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x + y) * z == x * z + y * z
    assert x + y == y + x and x * y == y * x
    assert x - x == 0 and x + (-x) == 0
    assert x - y == -(y - x) and (x - y) + y == x


@_FIELD
@given(_quads(2))
def test_quad_division_inverts_the_product(xy):
    x, y = xy
    if x:
        assert x * (1 / x) == 1 and x / x == 1
        assert (y / x) * x == y
        assert y / x == y * x ** -1
    else:
        with pytest.raises(ZeroDivisionError):
            y / x


@_FIELD
@given(_quads(2), st.floats(), st.integers(-2, 2))
def test_quad_order_agrees_with_80_digit_reals(xy, f, ulps):
    x, y = xy
    with mpmath.workdps(80):
        mx, my = _mp(x), _mp(y)
        assert (x < y) == (mx < my) and (x > y) == (mx > my)
        assert (x <= y) == (mx <= my) and (x == y) == (mx == my)
        assert (x < 0) == (mx < 0) and (x == 0) == (mx == 0)
        # a float compares as the exact rational it is, as with a Fraction:
        # any float (nan and +-inf too), and floats within two ulps of float(x)
        near = float(x)
        for _ in range(abs(ulps)):
            near = math.nextafter(near, math.copysign(math.inf, ulps))
        for g in (f, near):
            compared = (x < g, x <= g, x > g, x >= g, x == g)
            if math.isnan(g):
                assert compared == (False,) * 5 and x != g
                continue
            mg = mpmath.mpf(g)  # exact: 80 digits hold any float
            assert compared == (mx < mg, mx <= mg, mx > mg, mx >= mg, mx == mg)
            assert (g < x, g > x, g == x) == (mg < mx, mg > mx, mg == mx)
            if x == g:
                assert hash(x) == hash(g)
            if x.b == 0:  # a rational Quad compares as its Fraction does
                assert compared == (x.a < g, x.a <= g, x.a > g, x.a >= g, x.a == g)
