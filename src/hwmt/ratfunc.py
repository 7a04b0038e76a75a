"""Dense univariate polynomials and rational functions over Q.

Minimal exact arithmetic for the Picard-Fuchs pipeline: everything is a
Fraction, rational functions are kept gcd-reduced with monic denominator,
and the only fancy operations are power substitution t -> t^(1/k), variable
scaling, inversion t -> 1/t and the shift t^e * f.

Euclid's algorithm runs in one place, the ``RatFunc(num, den)``
constructor.  Every other operation is a map that provably keeps a reduced
num/den reduced, so it skips Euclid and only makes the denominator monic:
negation, multiplying by a number, adding a number, t -> c*t, t -> t^(1/k),
t -> 1/t, and t^e * f, which cancels only a power of t.  Each method's
docstring gives the reason; the reduced form with monic denominator is
unique, so both routes give the same value.  There is no general sum,
product, quotient or evaluation: the pipeline needs none.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import DegreeTooSmall, NotAPowerFunction, ZeroDenominator, ZeroRescale


def _trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


@dataclass(frozen=True)
class Poly:
    """Polynomial sum(coeffs[i] * t^i); coefficients are Fractions."""

    coeffs: Tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(
            c if c.__class__ is Fraction else Fraction(c) for c in self.coeffs
        ))

    @staticmethod
    def of(*coeffs) -> "Poly":
        return Poly(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return Poly(
            tuple(
                (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                for i in range(n)
            )
        )

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, c):
        """p * c for a number c."""
        return Poly(tuple(a * c for a in self.coeffs))

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDenominator("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.coeffs
        while len(rem) >= len(d) and any(rem):
            if rem[-1] == 0:
                rem.pop()
                continue
            shift = len(rem) - len(d)
            c = rem[-1] / d[-1]
            q[shift] = c
            for i, b in enumerate(d):
                rem[shift + i] -= c * b
            rem.pop()
        return Poly(tuple(q)), Poly(tuple(rem))

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (1 / a.coeffs[-1])  # monic

    def scale_variable(self, c) -> "Poly":
        """p(c*t)."""
        c = Fraction(c)
        return Poly(tuple(a * c**i for i, a in enumerate(self.coeffs)))

    def power_substitute(self, k: int) -> "Poly":
        """Write p as q(t^k); NotAPowerFunction if impossible."""
        if any(c and i % k for i, c in enumerate(self.coeffs)):
            raise NotAPowerFunction(f"{self} is not a polynomial in t^{k}")
        return Poly(tuple(self.coeffs[i] for i in range(0, len(self.coeffs), k)))

    def reversed_to(self, degree: int) -> "Poly":
        """t^degree * p(1/t); degree must be >= deg p."""
        if degree < self.degree:
            raise DegreeTooSmall(f"cannot reverse {self} to degree {degree}")
        out = [Fraction(0)] * (degree + 1)
        for i, c in enumerate(self.coeffs):
            out[degree - i] = c
        return Poly(tuple(out))

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


@dataclass(frozen=True)
class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    num: Poly
    den: Poly

    def __post_init__(self):
        num, den = self.num, self.den
        if den.is_zero():
            raise ZeroDenominator("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
        _settle(self, num, den)

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "RatFunc":
        """num/den for coprime num and nonzero den, without Euclid."""
        return _settle(object.__new__(RatFunc), num, den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, c):
        """f + c for a number c, without Euclid, since gcd(p + c*q, q) =
        gcd(p, q)."""
        return RatFunc._coprime(self.num + self.den * c, self.den)

    def __neg__(self):
        return RatFunc._coprime(-self.num, self.den)

    def __mul__(self, c):
        """f * c for a number c.  A nonzero constant is a unit of Q[t], so
        multiplying by it keeps num/den coprime (and 0 gives 0/1)."""
        return RatFunc._coprime(self.num * c, self.den)

    def scale_variable(self, c) -> "RatFunc":
        """f(c*t) for c != 0.  t -> c*t is an automorphism of Q[t], so it
        maps coprime num, den to coprime polynomials."""
        c = Fraction(c)
        if c == 0:
            raise ZeroRescale("t -> 0*t is not a change of variable")
        return RatFunc._coprime(self.num.scale_variable(c),
                                self.den.scale_variable(c))

    def power_substitute(self, k: int) -> "RatFunc":
        """g with f(t) = g(t^k).  t -> t^k is an injective endomorphism of
        Q[t]: a common factor h of g's num and den would give the common
        factor h(t^k) of f's, so g is reduced when f is."""
        return RatFunc._coprime(self.num.power_substitute(k),
                                self.den.power_substitute(k))

    def invert_variable(self) -> "RatFunc":
        """f(1/t) as a reduced rational function of t.

        Both sides are reversed to d = max(deg num, deg den), so one of them
        has full degree d and t divides at most one reversal.  A common
        factor h with h(0) != 0 of the reversals would give, reversed, a
        common factor of num and den.  So the reversals are coprime."""
        if self.is_zero():
            return self
        d = max(self.num.degree, self.den.degree)
        return RatFunc._coprime(self.num.reversed_to(d),
                                self.den.reversed_to(d))

    def shift(self, e: int) -> "RatFunc":
        """t^e * f for any integer e.

        For coprime p, q, gcd(t^e p, q) = gcd(t^e, q) and gcd(p, t^e q) =
        gcd(p, t^e), so only a power of t cancels: as many factors as the
        other side has low-order zero coefficients, at most |e|."""
        num, den = self.num, self.den
        if num.is_zero():
            return self
        if e >= 0:
            m = min(e, _order(den))
            return RatFunc._coprime(_times_t(num, e - m), _times_t(den, -m))
        m = min(-e, _order(num))
        return RatFunc._coprime(_times_t(num, -m), _times_t(den, -e - m))

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num}) / ({self.den})"


def _settle(f: RatFunc, num: Poly, den: Poly) -> RatFunc:
    """Store coprime num, den in f with monic denominator, 0 as 0/1."""
    if num.is_zero():
        num, den = ZERO, ONE
    else:
        lead = den.coeffs[-1]
        if lead != 1:
            num = num * (1 / lead)
            den = den * (1 / lead)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den", den)
    return f


def _order(p: Poly) -> int:
    """The power of t dividing the nonzero p: its low-order zero count."""
    return next(i for i, c in enumerate(p.coeffs) if c)


def _times_t(p: Poly, k: int) -> Poly:
    """t^k * p; for k < 0, t^-k must divide p."""
    return Poly((Fraction(0),) * k + p.coeffs if k >= 0 else p.coeffs[-k:])


RF_ZERO = RatFunc(ZERO, ONE)
RF_ONE = RatFunc(ONE, ONE)
