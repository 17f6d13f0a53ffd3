"""Exact arithmetic in real quadratic extensions Q(sqrt(m)).

The reduction identities relate partition functions whose edge weights and
vertex fields carry half-integer powers of rationals: sqrt(beta*gamma),
sqrt(gamma/beta) and their integer powers.  Checking those identities
*exactly* therefore needs arithmetic in Q(sqrt(m)) for an integer m >= 2
that is not a square, not just in Q.  `Quad` is a minimal number type for
that; plain rationals stay `fractions.Fraction`.

A certificate takes one square root, sqrt(beta*gamma), and derives every
other half power from it, so its values share one radicand.  That radicand
need not be squarefree: a + b*sqrt(m) == c + d*sqrt(m) exactly when a == c
and b == d as soon as m is not a square.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

_RationalLike = (int, Fraction)


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m, where m is 1 or not a square; n must be positive.

    Trial division by the primes below 1000 moves their squares into s and
    leaves each odd power's last factor in m.  The cofactor then left goes to
    s as its root when it is a square, and to m otherwise; it has no prime
    factor in common with m, so m is then not a square.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    s, m = 1, 1
    d = 2
    while d * d <= n and d < 1000:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1 if d == 2 else 2
    root = math.isqrt(n)
    if root * root == n:
        return s * root, m
    return s, m * n


def _rational(x) -> Fraction:
    """x as a Fraction; a Quad qualifies when it has no sqrt part."""
    return x.a if isinstance(x, Quad) and not x.b else Fraction(x)


def sqrt_fraction(x) -> "Fraction | Quad":
    """Exact square root of a positive rational; Fraction when x is a square."""
    x = _rational(x)
    if x <= 0:
        raise ValueError("sqrt_fraction needs a positive rational")
    # sqrt(p/q) = sqrt(p*q)/q
    n = x.numerator * x.denominator
    s, m = _squarefree_split(n)
    coeff = Fraction(s, x.denominator)
    if m == 1:
        return coeff
    return Quad(0, coeff, m)


def half_power(x, k: int, root):
    """Exact x**(k/2) for a positive rational x and any integer k, where
    ``root`` is sqrt(x): an odd k multiplies by it and takes no square root."""
    x = _rational(x)
    q, r = divmod(k, 2)
    return x ** q * root if r else x ** q


def is_exact(*values) -> bool:
    """True when every value is an int, Fraction or Quad: arithmetic on them
    never rounds.  The package's one rule for exact versus float evaluation."""
    return all(isinstance(v, (int, Fraction, Quad)) for v in values)


class Quad:
    """a + b*sqrt(m) with Fraction coefficients and an integer m >= 2 that is
    not a square.

    Values with b == 0 degrade to m == 1 and compare equal to rationals.  One
    evaluation takes one radicand: two irrational Quads with different
    radicands do not combine (ValueError) and compare unequal, even where
    they denote the same real, as 1009*sqrt(2026) and sqrt(2062632106) do.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m: int = 1):
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            m = 1
        elif m == 1:
            a, b = a + b, Fraction(0)
        elif m < 2:
            raise ValueError("radicand must be an integer >= 2 and not a square")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "m", m)

    def __setattr__(self, *_):
        raise AttributeError("Quad is immutable")

    # -- helpers -------------------------------------------------------

    def _coerce(self, other) -> "Quad | None":
        if isinstance(other, Quad):
            return other
        if isinstance(other, _RationalLike):
            return Quad(other)
        return None

    def _join_radicand(self, other: "Quad") -> int:
        """The radicand of a result: a rational operand takes the other's, and
        two irrational operands must share theirs (one evaluation, one root)."""
        if self.b == 0:
            return other.m
        if other.b == 0:
            return self.m
        if self.m != other.m:
            raise ValueError(f"incompatible radicands sqrt({self.m}) vs sqrt({other.m})")
        return self.m

    def _sign(self) -> int:
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0:
            return 1 if b > 0 else -1
        if a > 0 and b > 0:
            return 1
        if a < 0 and b < 0:
            return -1
        # opposite signs: compare a^2 against b^2*m
        lhs, rhs = a * a, b * b * self.m
        if a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self._join_radicand(o)
        return Quad(self.a + o.a, self.b + o.b, m)

    __radd__ = __add__

    def __neg__(self):
        return Quad(-self.a, -self.b, self.m)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # rational operands avoid the full 4-multiply product
        if o.b == 0:
            return Quad(self.a * o.a, self.b * o.a, self.m)
        if self.b == 0:
            return Quad(self.a * o.a, self.a * o.b, o.m)
        m = self._join_radicand(o)
        a = self.a * o.a + self.b * o.b * m
        b = self.a * o.b + self.b * o.a
        return Quad(a, b, m)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.b == 0 and o.a:  # a rational divisor needs no conjugate, as in __mul__
            return Quad(self.a / o.a, self.b / o.a, self.m)
        m = self._join_radicand(o)
        denom = o.a * o.a - o.b * o.b * m
        if denom == 0:
            raise ZeroDivisionError("division by zero Quad")
        conj = Quad(o.a / denom, -o.b / denom, m)
        return self * conj

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return 1 / (self ** (-n))
        out = Quad(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, float):  # as Fraction compares: the float's exact value
            return math.isfinite(other) and self == Fraction(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.a, self.b, self.m) == (o.a, o.b, o.m)  # b == 0 implies m == 1

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other, op) -> bool:
        if isinstance(other, float):  # as in __eq__; nan and +-inf as with a Fraction
            if not math.isfinite(other):
                return op(0.0, other)
            other = Fraction(other)
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Quad with {type(other).__name__}")
        return op((self - o)._sign(), 0)

    def __lt__(self, other):
        return self._cmp(other, operator.lt)

    def __le__(self, other):
        return self._cmp(other, operator.le)

    def __gt__(self, other):
        return self._cmp(other, operator.gt)

    def __ge__(self, other):
        return self._cmp(other, operator.ge)

    # -- conversions ---------------------------------------------------

    def __float__(self):
        """float(a) plus b*sqrt(m) rounded once: sign(b)*sqrt(b*b*m) from an
        integer root of 64 bits or more, its last bit set when inexact (round
        to odd).  Only the value, not a huge m or a tiny b, can overflow."""
        if not self.b:
            return float(self.a)
        num, den = self.b.numerator ** 2 * self.m, self.b.denominator ** 2
        t = max(0, 64 - (num.bit_length() - den.bit_length()) // 2)
        q, rem = divmod(num << 2 * t, den)
        r = math.isqrt(q)
        root = (2 * r + bool(rem or r * r != q)) / (2 << t)
        return float(self.a) + (root if self.b > 0 else -root)

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return f"Quad({self.a})"
        return f"Quad({self.a} + {self.b}*sqrt({self.m}))"

    def __str__(self):
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            return f"{self.b}*sqrt({self.m})"
        return f"{self.a} + {self.b}*sqrt({self.m})"
