"""Exact arithmetic in real quadratic extensions Q(sqrt(m)).

The reduction identities relate partition functions whose edge weights and
vertex fields carry half-integer powers of rationals: sqrt(beta*gamma),
sqrt(gamma/beta) and their integer powers.  Checking those identities
*exactly* therefore needs arithmetic in Q(sqrt(m)) for a squarefree integer
m, not just in Q.  `Quad` is a minimal number type for that; plain rationals
stay `fractions.Fraction`.

Radicands are normalised to a squarefree integer, so values built from
sqrt(beta*gamma), sqrt(gamma/beta) and sqrt(beta/gamma) for the same
(beta, gamma) always live in the same extension and combine freely
(the three radicands differ by rational squares).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import CapacityError

_RationalLike = (int, Fraction)
_TRIAL_LIMIT = 10 ** 6  # the largest trial divisor of a radicand


def _squarefree_split(n: int) -> tuple[int, int]:
    """Return (s, m) with n = s*s*m and m squarefree; n must be positive.

    Trial division stops at _TRIAL_LIMIT.  The cofactor left then has no
    prime factor up to the limit: a square joins s, and one below
    _TRIAL_LIMIT**3 has at most two prime factors, so, not a square, it is
    squarefree.  Any other cofactor raises CapacityError.
    """
    if n <= 0:
        raise ValueError("radicand must be positive")
    radicand = n
    s, m = 1, 1
    d = 2
    while d * d <= n and d <= _TRIAL_LIMIT:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            s *= d ** (e // 2)
            if e % 2:
                m *= d
        d += 1 if d == 2 else 2
    if d * d <= n:  # the trial division stopped early
        root = math.isqrt(n)
        if root * root == n:
            return s * root, m
        if n >= _TRIAL_LIMIT ** 3:
            bits = radicand.bit_length()  # a long radicand is named by its length
            name = radicand if bits <= 1000 else f"of {bits} bits"
            raise CapacityError(f"cannot split the radicand {name} into a square and a "
                                f"squarefree part: its cofactor {n.bit_length()} bits "
                                f"long has no prime factor up to {_TRIAL_LIMIT}")
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


def half_power(x, k: int):
    """Exact x**(k/2) for a positive rational x and any integer k."""
    x = _rational(x)
    q, r = divmod(k, 2)
    whole = x ** q
    return whole * sqrt_fraction(x) if r else whole


def is_exact(*values) -> bool:
    """True when every value is an int, Fraction or Quad: arithmetic on them
    never rounds.  The package's one rule for exact versus float evaluation."""
    return all(isinstance(v, (int, Fraction, Quad)) for v in values)


class Quad:
    """a + b*sqrt(m) with Fraction coefficients and squarefree integer m >= 2.

    Values with b == 0 degrade to m == 1 and compare equal to rationals.
    Mixing two irrational Quads requires equal radicands; that never happens
    when all values derive from one (beta, gamma) pair.
    """

    __slots__ = ("a", "b", "m")

    def __init__(self, a, b=0, m: int = 1):
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            m = 1
        elif m == 1:
            a, b = a + b, Fraction(0)
        elif m < 2:
            raise ValueError("radicand must be a squarefree integer >= 2")
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
        o = self._coerce(other)
        if o is None:
            if isinstance(other, float):
                return float(self) == other
            return NotImplemented
        if self.b == 0 and o.b == 0:
            return self.a == o.a
        try:
            m = self._join_radicand(o)
        except ValueError:
            return False
        del m
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.m))

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            if isinstance(other, float):
                v = float(self)
                return (v > other) - (v < other)
            raise TypeError(f"cannot compare Quad with {type(other).__name__}")
        return (self - o)._sign()

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- conversions ---------------------------------------------------

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.m)

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
