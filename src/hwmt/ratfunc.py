"""Dense univariate polynomials and rational functions over Q.

Minimal exact arithmetic for the Picard-Fuchs pipeline.  A ``Poly`` has
Fraction coefficients.  A ``RatFunc`` stores its numerator and denominator
with integer coefficients (``int_num``, ``int_den``), coprime as
polynomials, jointly primitive (the gcd of all their coefficients is 1),
with a positive leading denominator coefficient, and 0 as 0/1.  That form
is unique, so equality compares the integer tuples, and no coefficient is
a Fraction running its own gcd; ``num`` and ``den``, the Polys of the
reduced form with monic denominator, are built when read.

Euclid's algorithm runs in one place, the ``RatFunc(num, den)``
constructor, on the integer primitive parts.  Every other operation is a
map that provably keeps a coprime num/den coprime, so it skips Euclid and
runs at most one gcd, of the coefficients: negation, multiplying by a
number, adding a number, t -> c*t, t -> t^(1/k), t -> 1/t, and t^e * f,
which cancels only a power of t.  Each method's docstring gives the
reason.  There is no general sum, product, quotient or evaluation, nor any
arithmetic on Polys: the pipeline needs none; the tests' oracles have it.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import NotAPowerFunction, ZeroDenominator, ZeroRescale
from .hypergeometric import rational


def _trim(p: list) -> list:
    """p without its top zero coefficients, trimmed in place."""
    while p and p[-1] == 0:
        p.pop()
    return p


@dataclass(frozen=True)
class Poly:
    """Polynomial sum(coeffs[i] * t^i); coefficients are Fractions."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(_trim(
            [c if c.__class__ is Fraction else Fraction(c) for c in self.coeffs])))

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                t = "t" if i == 1 else f"t^{i}"
                parts.append(t if c == 1 else f"{c}*{t}")
        return " + ".join(parts)


ZERO = Poly(())
ONE = Poly.of(1)


@dataclass(frozen=True, init=False, slots=True)
class RatFunc:
    """Reduced rational function num/den, stored as the integer
    polynomials int_num/int_den (ascending coefficient tuples)."""

    int_num: Tuple[int, ...]
    int_den: Tuple[int, ...]

    def __init__(self, num, den):
        """num/den for Polys or coefficient sequences of ints and
        Fractions, reduced by Euclid."""
        num, den = (p.coeffs if isinstance(p, Poly) else tuple(p)
                    for p in (num, den))
        lcm = math.lcm(*(c.denominator for c in num + den))
        n, d = (_trim([c.numerator * (lcm // c.denominator) for c in p])
                for p in (num, den))
        if not d:
            raise ZeroDenominator("zero denominator")
        if n:
            g = _gcd(n, d)
            if len(g) > 1:
                n, d = _quotient(n, g), _quotient(d, g)
        RatFunc._stored(*_settle(n, d), self)

    @staticmethod
    def _stored(n: tuple, d: tuple, f=None) -> "RatFunc":
        """f, a new RatFunc by default, holding n/d in the stored form."""
        f = object.__new__(RatFunc) if f is None else f
        object.__setattr__(f, "int_num", n)
        object.__setattr__(f, "int_den", d)
        return f

    @property
    def num(self) -> Poly:
        """The numerator over the monic denominator ``den``."""
        lead = self.int_den[-1]
        return Poly(tuple(Fraction(c, lead) for c in self.int_num))

    @property
    def den(self) -> Poly:
        """The monic denominator."""
        lead = self.int_den[-1]
        return Poly(tuple(Fraction(c, lead) for c in self.int_den))

    def __add__(self, c):
        """f + c for a number c = a/b, without Euclid, since gcd(b p + a q,
        b q) = gcd(p, q) for coprime p, q."""
        a, b = _ratio(c)
        n, d = self.int_num, self.int_den
        out = [b * x for x in n] + [0] * (len(d) - len(n))
        for i, y in enumerate(d):
            out[i] += a * y
        return RatFunc._stored(*_settle(out, [b * y for y in d]))

    def __neg__(self):
        return RatFunc._stored(tuple([-c for c in self.int_num]), self.int_den)

    def __mul__(self, c):
        """f * c for a number c = a/b.  A nonzero constant is a unit of
        Q[t], so a p / b q keeps p, q coprime (and 0 gives 0/1)."""
        a, b = _ratio(c)
        return RatFunc._stored(*_settle([a * x for x in self.int_num],
                                        [b * y for y in self.int_den]))

    def scale_variable(self, c) -> "RatFunc":
        """f(c*t) for c = a/b != 0.  t -> c*t is an automorphism of Q[t], so
        it maps coprime p, q to coprime polynomials; both are multiplied by
        b^D, D the larger degree, to keep integer coefficients."""
        a, b = _ratio(c)
        if a == 0:
            raise ZeroRescale("t -> 0*t is not a change of variable")
        top = max(len(self.int_num), len(self.int_den)) - 1
        return RatFunc._stored(*_settle(
            *([x * a**i * b**(top - i) for i, x in enumerate(p)]
              for p in (self.int_num, self.int_den))))

    def power_substitute(self, k: int) -> "RatFunc":
        """g with f(t) = g(t^k).  t -> t^k is an injective endomorphism of
        Q[t]: a common factor h of g's num and den would give the common
        factor h(t^k) of f's, so g is reduced when f is.  The coefficients
        are f's nonzero ones, so g is jointly primitive too."""
        for p in (self.int_num, self.int_den):
            if any(c for i, c in enumerate(p) if i % k):
                raise NotAPowerFunction(f"{self} is not a function of t^{k}")
        return RatFunc._stored(self.int_num[::k], self.int_den[::k])

    def invert_variable(self) -> "RatFunc":
        """f(1/t) as a reduced rational function of t.

        Both sides are reversed to d = max(deg num, deg den), so one of them
        has full degree d and t divides at most one reversal.  A common
        factor h with h(0) != 0 of the reversals would give, reversed, a
        common factor of num and den.  So the reversals are coprime; only
        the sign of the new leading denominator coefficient is set."""
        n, d = self.int_num, self.int_den
        if not n:
            return self
        top = max(len(n), len(d))
        return RatFunc._stored(*_settle(*([0] * (top - len(p)) + list(p[::-1])
                                          for p in (n, d))))

    def shift(self, e: int) -> "RatFunc":
        """t^e * f for any integer e.

        For coprime p, q, gcd(t^e p, q) = gcd(t^e, q) and gcd(p, t^e q) =
        gcd(p, t^e), so only a power of t cancels: as many factors as the
        other side has low-order zero coefficients, at most |e|."""
        n, d = self.int_num, self.int_den
        if not n:
            return self
        if e >= 0:
            m = min(e, _order(d))
            return RatFunc._stored((0,) * (e - m) + n, d[m:])
        m = min(-e, _order(n))
        return RatFunc._stored(n[m:], (0,) * (-e - m) + d)

    def __str__(self):
        if len(self.int_den) == 1:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _ratio(c) -> Tuple[int, int]:
    """(a, b) with c = a/b, b > 0, for a number c that Fraction reads."""
    if not isinstance(c, (int, Fraction)):
        c = rational(c)
    return c.numerator, c.denominator


def _settle(n: list, d: list):
    """The stored form of n/d for coprime integer lists n and d != 0,
    without Euclid: one gcd of the coefficients makes them jointly
    primitive, a sign makes d's leading coefficient positive, 0 is 0/1."""
    n, d = _trim(n), _trim(d)
    if not n:
        n, d = [], [1]
    g = math.gcd(*n, *d)
    if d[-1] < 0:
        g = -g
    if g != 1:
        n, d = [x // g for x in n], [x // g for x in d]
    return tuple(n), tuple(d)


def _primitive(p):
    """The integer polynomial p != 0 divided by the gcd of its
    coefficients."""
    g = math.gcd(*p)
    return [x // g for x in p]


def _gcd(a, b):
    """A greatest common divisor of the nonzero integer polynomials a and b,
    primitive: Euclid's algorithm with each remainder replaced by the
    primitive part of a pseudo-remainder, which stays in Z[t]."""
    a, b = _primitive(a), _primitive(b)
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            # r -> (lc(b) r - lc(r) t^s b) / g, which drops r's top term
            g = math.gcd(b[-1], r[-1])
            u, v, s = b[-1] // g, r[-1] // g, len(r) - len(b)
            r = [u * x for x in r]
            for i, y in enumerate(b):
                r[s + i] -= v * y
            _trim(r)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _quotient(a, b):
    """a / b in Z[t], for a primitive b that divides a in Q[t] (then the
    quotient has integer coefficients, by Gauss's lemma)."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for s in range(len(q) - 1, -1, -1):
        c = q[s] = r[s + len(b) - 1] // b[-1]
        for i, y in enumerate(b):
            r[s + i] -= c * y
    return q


def _order(p) -> int:
    """The power of t dividing the nonzero p: its low-order zero count."""
    return next(i for i, c in enumerate(p) if c)


RF_ZERO = RatFunc(ZERO, ONE)
RF_ONE = RatFunc(ONE, ONE)
