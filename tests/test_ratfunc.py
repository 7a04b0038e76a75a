"""Rational functions: the maps that skip Euclid against Euclid itself.

Every gcd-free map of a reduced RatFunc must give exactly the RatFunc that
Euclid's algorithm builds from the same numerator and denominator; the
references multiply polynomials through the oracle product."""

import random
from fractions import Fraction as F

import pytest

from hwmt.errors import ZeroDenominator, ZeroRescale
from hwmt.picard_fuchs import analyze_family
from hwmt.ratfunc import ONE, ZERO, Poly, RatFunc

from oracles import poly_product

CASES = 1000


def t_power(e):
    return Poly((F(0),) * e + (F(1),))


def random_poly(rng, degree):
    return Poly(tuple(F(rng.randint(-4, 4), rng.randint(1, 3))
                      for _ in range(degree + 1)))


def random_nonzero(rng, degree):
    while True:
        p = random_poly(rng, degree)
        if not p.is_zero():
            return p


def random_reduced(rng):
    """A RatFunc of degree <= 6 built through Euclid; about a third have a
    numerator or denominator divisible by a power of t, and some are 0."""
    e = rng.choice((0, 0, 0, 1, 2, 3))
    num = random_poly(rng, rng.randint(0, 6 - e))
    den = random_nonzero(rng, rng.randint(0, 6 - e))
    if rng.random() < 0.5:
        num = poly_product(num, t_power(e))
    else:
        den = poly_product(den, t_power(e))
    if rng.random() < 0.08:
        num = ZERO
    return RatFunc(num, den)


def spread(p, k):
    """p(t^k)."""
    out = [F(0)] * (k * max(p.degree, 0) + 1)
    for i, c in enumerate(p.coeffs):
        out[k * i] = c
    return Poly(tuple(out))


def nonzero_fraction(rng):
    return F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))


@pytest.fixture(scope="module")
def cases():
    rng = random.Random(20201019)
    return [(random_reduced(rng), random.Random(i)) for i in range(CASES)]


# name -> (the gcd-free map, Euclid on the same numerator and denominator),
# each given the function and a seeded rng for the map's own arguments
MAPS = {
    "neg": (lambda f, rng: -f,
            lambda f, rng: RatFunc(-f.num, f.den)),
    "times-constant": (lambda f, rng: f * nonzero_fraction(rng),
                       lambda f, rng: RatFunc(f.num * nonzero_fraction(rng), f.den)),
    # an integer constant, 0 included
    "constant-times": (lambda f, rng: f * rng.randint(-3, 3),
                       lambda f, rng: RatFunc(f.num * rng.randint(-3, 3), f.den)),
    "plus-fraction": (
        lambda f, rng: f + nonzero_fraction(rng),
        lambda f, rng: RatFunc(f.num + f.den * nonzero_fraction(rng), f.den)),
    "plus-int": (lambda f, rng: f + rng.randint(-3, 3),
                 lambda f, rng: RatFunc(f.num + f.den * rng.randint(-3, 3), f.den)),
    "scale-variable": (
        lambda f, rng: f.scale_variable(nonzero_fraction(rng)),
        lambda f, rng: (lambda c: RatFunc(f.num.scale_variable(c),
                                          f.den.scale_variable(c)))(nonzero_fraction(rng))),
    "invert-variable": (
        lambda f, rng: f.invert_variable(),
        lambda f, rng: (lambda d: RatFunc(f.num.reversed_to(d),
                                          f.den.reversed_to(d)))(max(f.num.degree, f.den.degree))),
}
for _e in range(-3, 4):
    MAPS[f"shift({_e})"] = (
        lambda f, rng, e=_e: f.shift(e),
        lambda f, rng, e=_e: (
            RatFunc(poly_product(f.num, t_power(e)), f.den) if e >= 0
            else RatFunc(f.num, poly_product(f.den, t_power(-e)))))


@pytest.mark.parametrize("name", MAPS)
def test_gcd_free_map_equals_euclid(cases, name):
    fast, euclid = MAPS[name]
    for f, rng in cases:
        seed = rng.getstate()
        got = fast(f, rng)
        rng.setstate(seed)
        want = euclid(f, rng)
        rng.setstate(seed)
        assert (got.num, got.den) == (want.num, want.den), (name, str(f))


def test_power_substitute_equals_euclid(cases):
    for g, rng in cases:
        k = rng.randint(2, 3)
        # f = g(t^k), reduced by Euclid
        f = RatFunc(spread(g.num, k), spread(g.den, k))
        want = RatFunc(f.num.power_substitute(k), f.den.power_substitute(k))
        assert f.power_substitute(k) == want == g


def test_gcd_free_maps_never_run_euclid(cases, monkeypatch):
    def refuse(*_):
        raise AssertionError("Poly.gcd called")

    fs = [f for f, _ in cases[:200]]
    monkeypatch.setattr(Poly, "gcd", refuse)
    for f in fs:
        for fast, _ in MAPS.values():
            fast(f, random.Random(0))
        f.power_substitute(1)


def test_coefficients_stay_fractions():
    f = RatFunc(Poly((1, 2, True)), Poly.of(3, 4))
    g = f.shift(-2).scale_variable(2).invert_variable() + 1
    for c in g.num.coeffs + g.den.coeffs:
        assert type(c) is F


def test_scale_by_zero_is_refused():
    with pytest.raises(ZeroRescale):
        RatFunc(Poly.of(1, 1), Poly.of(2, 1)).scale_variable(0)


@pytest.mark.parametrize("make", [
    lambda: Poly.of(1, 2).divmod(ZERO),
    lambda: RatFunc(ONE, ZERO),
], ids=["divmod-by-zero", "zero-denominator"])
def test_zero_denominator_is_typed_and_a_zero_division(make):
    with pytest.raises(ZeroDenominator):
        make()
    with pytest.raises(ZeroDivisionError):
        make()


def test_picard_fuchs_families_run_little_euclid(monkeypatch):
    # only the stored ODE coefficients are reduced by Euclid
    calls = []
    gcd = Poly.gcd
    monkeypatch.setattr(Poly, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for name in ("elliptic", "sextic", "group1", "group2"):
        analyze_family(name)
    assert len(calls) <= 30
