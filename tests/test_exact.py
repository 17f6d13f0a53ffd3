"""Quadratic-extension arithmetic used by the exact reduction certificates."""

import math
import time
from fractions import Fraction

import pytest

from twospin import CapacityError
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
    # trial division stops at 10**6; 1000003, 1000033 and 1000037 are the
    # primes just above it, 999999999989 the largest below 10**12
    p, q, r, big = 1000003, 1000033, 1000037, 999999999989
    start = time.perf_counter()
    assert _squarefree_split(12 * p * q) == (2, 3 * p * q)  # a cofactor below 10**18
    assert _squarefree_split(12 * big) == (2, 3 * big)
    assert sqrt_fraction(Fraction(7 * big ** 2, 4)) == Quad(0, Fraction(big, 2), 7)
    assert _squarefree_split(5 * (p * q * r) ** 2) == (p * q * r, 5)  # a square cofactor
    with pytest.raises(CapacityError, match="radicand 3000219004293010989 "):
        _squarefree_split(3 * p * q * r)  # may be p**2 * q: not knowable cheaply
    with pytest.raises(CapacityError, match="radicand of 2062 bits "):
        _squarefree_split(2 ** 2000 * 3 * p * q * r)
    assert time.perf_counter() - start < 2


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
    assert half_power(Fraction(2), 4) == 4
    assert half_power(Fraction(2), 3) == Quad(0, 2, 2)
    assert half_power(Fraction(1, 2), -1) == sqrt_fraction(2)
    assert float(half_power(Fraction(5, 2), 5)) == pytest.approx(2.5 ** 2.5, rel=1e-14)


def test_is_exact():
    assert is_exact(Fraction(1, 3)) and is_exact(7) and is_exact(sqrt_fraction(3))
    assert not is_exact(0.5)


def test_quad_is_immutable_and_hashable():
    s2 = sqrt_fraction(2)
    with pytest.raises(AttributeError):
        s2.a = Fraction(1)
    assert hash(Quad(3)) == hash(Fraction(3))
    assert len({s2, sqrt_fraction(2), Quad(1)}) == 2
