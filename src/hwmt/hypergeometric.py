"""Truncated generalized hypergeometric series mod p.

The truncation [.]^(p-1) keeps terms of degree 0 through p-1 inclusive;
that is the length forced by the degree-(p-1) Hasse-Witt polynomial.
Rational parameters and arguments are reduced mod p through modular
inverses of their denominators.

An upper factor a + n - 1 of (a)_n is 0 mod p from n = (1 - a) mod p on,
so every later term is 0: the pass over the terms stops at the first such
n.  A lower factor that would vanish below p is refused before the pass,
and so is a pass that would cost more than ``SERIES_STEP_BUDGET`` modular
products.  The truncation length reported as `terms_used` is still p.

Every prime goes through ``is_prime``, which is exact below
``PRIMALITY_BOUND`` (3.3 * 10^24) and refuses anything larger.
"""

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .errors import (
    BadDenominator,
    BudgetExceeded,
    MalformedHypergeometric,
    NotPrime,
    NotRational,
    PsiNotInvertible,
    UnknownFamily,
)

# The greatest cost one pass of ``truncated_pFq`` may take, counted in
# modular products: each step n = 1..stop-1 takes one per parameter and four
# more, so a pass of stop - 1 steps costs (stop - 1) * (p + q + 4) for a pFq.
# On a 2-vCPU machine with Python 3.11, a pass at the bound took 0.75-0.92 s
# (75-92 ns per product) for every pFq from the 1F0 to the 24F23, each
# parameter 1/2 at the largest prime the budget admits.  The quartic's 3F2
# (1/4,1/2,3/4;1,1) takes 250,000 steps (2.25 * 10^6 products) at
# p = 1000003 and is refused at p = 1000000007 (250,000,001 steps).
SERIES_STEP_BUDGET = 10**7


# Miller-Rabin on the first 13 prime bases is exact below this bound, the
# least strong pseudoprime to all of them (Sorenson and Webster,
# arXiv:1509.00864); ``is_prime`` refuses any n at or above it.
PRIMALITY_BOUND = 3317044064679887385961981
_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_WITNESSES = (2,) + _ODD_PRIMES[:12]


def is_prime(n) -> bool:
    """Whether the integer n is prime, exactly, for n < PRIMALITY_BOUND
    (3.3 * 10^24); BudgetExceeded at or above it, before any test.

    Trial division by the primes below 50 decides every n < 47^2 = 2209
    at the cost of division to its square root, as a small p always took.
    A larger n with no such factor goes to a deterministic Miller-Rabin
    test over the first 13 prime bases, which no composite below the bound
    passes, so the answer is never probabilistic.
    """
    if n >= PRIMALITY_BOUND:
        raise BudgetExceeded(
            f"primality of {n} is not decided: the test is exact only below "
            f"{PRIMALITY_BOUND}")
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for q in _ODD_PRIMES:
        if q * q > n:
            return True
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p):
    """NotPrime unless p is an integer (anything operator.index takes) and
    prime; a float or a string is refused, not truncated or parsed.
    BudgetExceeded, before any test, when p >= PRIMALITY_BOUND."""
    try:
        n = operator.index(p)
    except TypeError:
        raise NotPrime(f"modulus {p!r} is not an integer") from None
    if not is_prime(n):
        raise NotPrime(f"{p} is not prime")


def require_psi_mod_p(psi: Fraction, p: int):
    """NotPrime unless p is prime, then BadDenominator if p divides the
    denominator of psi."""
    require_prime(p)
    if psi.denominator % p == 0:
        raise BadDenominator(f"psi = {psi} has denominator divisible by {p}")


def rational(x) -> Fraction:
    """x as a Fraction, from anything Fraction reads (an int, a Fraction, a
    float, a Decimal, a string such as '3/2'); NotRational for any other
    value, and for a float or string that names no rational."""
    try:
        return Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        raise NotRational(f"{x!r} is not a rational number") from None


def frac_mod(x, p: int) -> int:
    """Image of a rational in F_p; BadDenominator if p divides its
    denominator."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise BadDenominator(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


@dataclass(frozen=True)
class HypergeometricData:
    """Parameters of a pFq together with an argument of the form c * psi^e."""

    numerators: Tuple[Fraction, ...]
    denominators: Tuple[Fraction, ...]
    argument: Tuple[Fraction, int]

    def __post_init__(self):
        nums = tuple(sorted(rational(a) for a in self.numerators))
        dens = tuple(sorted(rational(b) for b in self.denominators))
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominators", dens)
        c, e = self.argument
        try:
            e = operator.index(e)  # a float or a string is refused, not cut
        except TypeError:
            raise MalformedHypergeometric(
                f"exponent {e!r} of psi is not an integer") from None
        object.__setattr__(self, "argument", (rational(c), e))
        if len(dens) != len(nums) - 1:
            raise MalformedHypergeometric(
                "pFq shape requires one fewer lower parameter")
        for b in dens:
            if b.denominator == 1 and b <= 0:
                raise MalformedHypergeometric(
                    f"lower parameter {b} is a nonpositive integer")

    def argument_str(self) -> str:
        c, e = self.argument
        if e == 0:
            return str(c)
        pw = "psi" if abs(e) == 1 else f"psi^{abs(e)}"
        if e < 0:
            return f"{c}/{pw}"
        if c == 1:
            return pw
        return f"{pw}/{1/c}" if c.numerator == 1 else f"{c}*{pw}"

    def __str__(self):
        p, q = len(self.numerators), len(self.denominators)
        nums = ",".join(str(a) for a in self.numerators)
        dens = ",".join(str(b) for b in self.denominators)
        return f"{p}F{q}({nums};{dens} | {self.argument_str()})"


@dataclass(frozen=True)
class TruncatedValue:
    prime: int
    value: int
    terms_used: int


def _argument_mod_p(data: HypergeometricData, psi, p: int) -> int:
    c, e = data.argument
    psi = rational(psi)
    z_c = frac_mod(c, p)
    if e >= 0:
        return z_c * pow(frac_mod(psi, p), e, p) % p
    psi_mod = frac_mod(psi, p)
    if psi_mod == 0:
        raise PsiNotInvertible(
            f"argument needs psi^{e} but psi = {psi} vanishes mod {p}"
        )
    return z_c * pow(psi_mod, e, p) % p


def _first_vanishing_term(params, p: int) -> int:
    """Least n in [1, p) with a + n - 1 == 0 mod p for some reduced
    parameter a, or p when there is none (every a == 1 mod p)."""
    return min(((1 - a) % p or p for a in params), default=p)


def truncated_pFq(data: HypergeometricData, psi, p: int) -> TruncatedValue:
    """Sum of the first p terms (degrees 0..p-1) of pFq at c*psi^e, mod p.

    One pass over the terms: each parameter is reduced once, and the
    running products num_n = prod (a)_n, den_n = n! prod (b)_n and z^n are
    each stepped by one factor per term.  The partial sum is carried as a
    numerator over den_n (total <- total * r_n + num_n * z^n, where
    den_n = den_(n-1) * r_n), so a single inverse is taken at the end.

    When z != 0 mod p, a lower factor b + n - 1 that vanishes at some
    n = (1 - b) mod p below p is refused with BadDenominator at the least
    such n, before the pass.  The pass then stops at the first vanishing
    upper factor, n = (1 - a) mod p: every later term is 0, and the sum
    over den_n already has its final ratio.  A pass of more than
    SERIES_STEP_BUDGET modular products (p + q + 4 per step) is refused
    with BudgetExceeded before it starts.  `terms_used` is still the
    truncation length p.  The tests compare it with a term by term sum of
    Pochhammer products.
    """
    require_prime(p)
    z = _argument_mod_p(data, psi, p)
    nums = [frac_mod(a, p) for a in data.numerators]
    dens = [frac_mod(b, p) for b in data.denominators]
    stop = 1
    if z:
        bad = _first_vanishing_term(dens, p)
        if bad < p:
            raise BadDenominator(
                f"lower-parameter Pochhammer vanishes mod {p} at term {bad}"
            )
        stop = _first_vanishing_term(nums, p)
    per_step = len(nums) + len(dens) + 4
    if (stop - 1) * per_step > SERIES_STEP_BUDGET:
        raise BudgetExceeded(
            f"the series pass mod {p} stops at term {stop}: {stop - 1} steps "
            f"of {per_step} products, {(stop - 1) * per_step} above "
            f"{SERIES_STEP_BUDGET}")
    total = num = den = zn = 1
    for n in range(1, stop):
        r = n
        for b in dens:
            r = r * (b + n - 1) % p
        for a in nums:
            num = num * (a + n - 1) % p
        zn = zn * z % p
        total = (total * r + num * zn) % p
        den = den * r % p
    return TruncatedValue(p, total * pow(den, -1, p) % p, p)


def pfq_taylor(numerators, denominators, nterms: int):
    """Exact rational Taylor coefficients of pFq(...; z) through degree
    nterms - 1; used for identity checks over Q."""
    nums = [Fraction(a) for a in numerators]
    dens = [Fraction(b) for b in denominators]
    coeffs = []
    term = Fraction(1)
    for n in range(nterms):
        coeffs.append(term)
        ratio = Fraction(1)
        for a in nums:
            ratio *= a + n
        for b in dens:
            ratio /= b + n
        ratio /= n + 1
        term *= ratio
    return coeffs


def clausen_check(family, psi, p: int) -> bool:
    """Does the truncated square of the family's 2F1 equal its truncated
    3F2 mod p?  Mismatches are honest outputs: the identity between
    truncations holds only for certain primes."""
    from .families import get_family

    fam = get_family(family)
    if fam.clausen_2f1 is None:
        raise UnknownFamily(f"family {fam.name} has no Clausen pairing")
    small = HypergeometricData(fam.clausen_2f1, (Fraction(1),), fam.hg.argument)
    lhs = truncated_pFq(small, psi, p).value
    rhs = truncated_pFq(fam.hg, psi, p).value
    return lhs * lhs % p == rhs


def quadratic_residue_check(value: int, p: int) -> str:
    """Euler-criterion classification: 'residue', 'nonresidue', or 'zero'."""
    require_prime(p)
    v = value % p
    if v == 0:
        return "zero"
    return "residue" if pow(v, (p - 1) // 2, p) == 1 else "nonresidue"
