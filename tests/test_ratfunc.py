"""Rational functions: the maps that skip Euclid against Euclid itself.

Every gcd-free map of a reduced RatFunc must give exactly the RatFunc that
Euclid's algorithm builds from the same numerator and denominator; the
references build those polynomials through the oracles' Fraction
arithmetic.  The constructor's Euclid, on integer primitive parts, is
checked in turn against Euclid over Q."""

import math
import random
from fractions import Fraction as F

import pytest

from hwmt import ratfunc
from hwmt.errors import ZeroDenominator, ZeroRescale
from hwmt.picard_fuchs import analyze_family
from hwmt.ratfunc import ONE, ZERO, Poly, RatFunc

from oracles import (
    poly_degree,
    poly_divmod,
    poly_gcd,
    poly_power_substitute,
    poly_product,
    poly_reversed_to,
    poly_scale_variable,
    poly_sum,
    poly_times,
)

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
    out = [F(0)] * (k * max(poly_degree(p), 0) + 1)
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
            lambda f, rng: RatFunc(poly_times(f.num, -1), f.den)),
    "times-constant": (lambda f, rng: f * nonzero_fraction(rng),
                       lambda f, rng: RatFunc(poly_times(f.num, nonzero_fraction(rng)),
                                              f.den)),
    # an integer constant, 0 included
    "constant-times": (lambda f, rng: f * rng.randint(-3, 3),
                       lambda f, rng: RatFunc(poly_times(f.num, rng.randint(-3, 3)),
                                              f.den)),
    "plus-fraction": (
        lambda f, rng: f + nonzero_fraction(rng),
        lambda f, rng: RatFunc(
            poly_sum(f.num, poly_times(f.den, nonzero_fraction(rng))), f.den)),
    "plus-int": (lambda f, rng: f + rng.randint(-3, 3),
                 lambda f, rng: RatFunc(
                     poly_sum(f.num, poly_times(f.den, rng.randint(-3, 3))), f.den)),
    "scale-variable": (
        lambda f, rng: f.scale_variable(nonzero_fraction(rng)),
        lambda f, rng: (lambda c: RatFunc(poly_scale_variable(f.num, c),
                                          poly_scale_variable(f.den, c)))(nonzero_fraction(rng))),
    "invert-variable": (
        lambda f, rng: f.invert_variable(),
        lambda f, rng: (lambda d: RatFunc(poly_reversed_to(f.num, d),
                                          poly_reversed_to(f.den, d)))(
            max(poly_degree(f.num), poly_degree(f.den)))),
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


@pytest.mark.parametrize("name", MAPS)
def test_gcd_free_map_keeps_the_stored_form(cases, name):
    # num and den hide a common factor of the integer tuples; the stored
    # form is unique, so a map must give exactly the constructor's tuples
    fast, euclid = MAPS[name]
    for f, rng in cases:
        seed = rng.getstate()
        got = fast(f, rng)
        rng.setstate(seed)
        want = euclid(f, rng)
        assert got == want and hash(got) == hash(want), (name, str(f))
        assert math.gcd(*got.int_num, *got.int_den) == 1 and got.int_den[-1] > 0


def test_power_substitute_equals_euclid(cases):
    for g, rng in cases:
        k = rng.randint(2, 3)
        # f = g(t^k), reduced by Euclid
        f = RatFunc(spread(g.num, k), spread(g.den, k))
        want = RatFunc(poly_power_substitute(f.num, k), poly_power_substitute(f.den, k))
        assert f.power_substitute(k) == want == g


def test_gcd_free_maps_never_run_euclid(cases, monkeypatch):
    def refuse(*_):
        raise AssertionError("ratfunc._gcd called")

    fs = [f for f, _ in cases[:200]]
    monkeypatch.setattr(ratfunc, "_gcd", refuse)
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
    lambda: poly_divmod(Poly.of(1, 2), ZERO),
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
    gcd = ratfunc._gcd
    monkeypatch.setattr(ratfunc, "_gcd", lambda a, b: calls.append(1) or gcd(a, b))
    for name in ("elliptic", "sextic", "group1", "group2"):
        analyze_family(name)
    assert len(calls) <= 30


def test_picard_fuchs_families_build_few_fractions(monkeypatch):
    # a Fraction per coefficient of every map built 1,133 of them for the
    # four families; the integer entries leave the residues, the
    # eigenvalues and the parameters
    families = ("elliptic", "sextic", "group1", "group2")
    for name in families:
        analyze_family(name)  # first calls fill the family caches
    built = []
    new = F.__new__
    monkeypatch.setattr(F, "__new__",
                        lambda cls, *a, **k: built.append(1) or new(cls, *a, **k))
    for name in families:
        analyze_family(name)
    monkeypatch.undo()
    assert 0 < len(built) <= 1133 // 3


def test_integer_euclid_equals_euclid_over_q():
    # the constructor's gcd of integer polynomials is, made monic, the gcd
    # that Euclid over Q finds, and the constructor divides it out
    rng = random.Random(20201020)
    for _ in range(CASES):
        common = random_nonzero(rng, rng.randint(0, 3))
        num, den = (poly_product(common, random_poly(rng, rng.randint(0, 3)))
                    for _ in range(2))
        if den.is_zero():
            continue
        f = RatFunc(num, den)
        if num.is_zero():
            assert (f.num, f.den) == (ZERO, ONE)
            continue
        lcm = math.lcm(*(c.denominator for c in num.coeffs + den.coeffs))
        g = ratfunc._gcd(*([int(c * lcm) for c in p.coeffs] for p in (num, den)))
        want = poly_gcd(num, den)
        assert poly_times(Poly(g), 1 / F(g[-1])) == want
        lead = poly_divmod(den, want)[0].coeffs[-1]
        assert (f.num, f.den) == tuple(
            poly_times(poly_divmod(p, want)[0], 1 / lead) for p in (num, den))


def test_coefficient_sequences_are_read_as_polys():
    f = RatFunc((0, F(1, 2), 0), (F(-16), 0, 1, 0))
    assert f == RatFunc(Poly.of(0, F(1, 2)), Poly.of(-16, 0, 1))
    assert (f.int_num, f.int_den) == ((0, 1), (-32, 0, 2))
    with pytest.raises(ZeroDenominator):
        RatFunc((1,), (0, 0))
