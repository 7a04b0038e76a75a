"""Cross-module identities tying the pencil, Hasse-Witt, and count layers
together through independent data paths."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest

from hwmt.census import classify_kernel_types
from hwmt.families import FAMILIES, get_family
from hwmt.hasse_witt import (
    _hw_coefficients,
    _kernel_points,
    constant_term_power,
    hasse_witt,
    hasse_witt_polynomial,
    period_coefficients,
    zero_sum_exponents,
)
from hwmt.errors import HwmtError
from hwmt.hypergeometric import (
    HypergeometricData,
    _argument_mod_p,
    _series_term,
    frac_mod,
    truncated_pFq,
)
from hwmt.pencil import (
    LaurentPolynomial,
    build_vertex_pencil,
    homogeneous_form,
    specialize,
)
from hwmt.point_count import (
    _character_sum_zeros,
    _diagonal_shape,
    _fibered_zeros,
    _reduce_poly,
    _root_count,
    P1_X_P1,
    count_family,
    count_graded,
)
from hwmt.intlinalg import adjugate_det, left_kernel
from hwmt.polytope import (
    combinatorial_bijections,
    is_kernel_pair,
    lattice_isomorphism,
    lattice_points,
    polar_dual,
    vertex_facet_sets,
    vertex_kernel,
)

F = Fraction


def _family_form(fam, psi):
    delta = fam.polytope
    coeffs = {v: F(1) for v in polar_dual(delta).vertices}
    coeffs[(0,) * delta.dim] = F(psi)
    return homogeneous_form(delta, coeffs)


@pytest.mark.parametrize("name", ["elliptic", "quartic", "sextic", "group1",
                                  "group2"])
def test_torus_pullback_identity(name):
    # the homogeneous form and the Laurent pencil agree on the torus:
    # fhat(z) == (prod z_j) * f(phi(z)) where phi(z)_i = prod z_j^(v_j)_i
    p, psi = 11, 3
    fam = get_family(name)
    delta = fam.polytope
    variables = delta.vertices
    form = _family_form(fam, psi)
    laurent = specialize(build_vertex_pencil(delta), psi)
    for z in [tuple(range(2, 2 + len(variables))),
              tuple(range(3, 3 + len(variables)))]:
        fhat = sum(
            frac_mod(c, p) * _prod(pow(zj, e, p) for zj, e in zip(z, exps))
            for exps, c in form
        ) % p
        phi = tuple(
            _prod(pow(zj, v[i] % (p - 1), p) for zj, v in zip(z, variables))
            for i in range(delta.dim)
        )
        f_val = sum(
            frac_mod(c, p)
            * _prod(pow(x, e % (p - 1), p) for x, e in zip(phi, exps))
            for exps, c in laurent.terms
        ) % p
        assert fhat == _prod(z) * f_val % p


def _prod(values):
    result = 1
    for v in values:
        result *= v
    return result


@pytest.mark.parametrize("name,p", [("quartic", 5), ("quartic", 7),
                                    ("sextic", 5), ("sextic", 7)])
def test_katz_homogeneous_coefficient_agreement(name, p):
    # the coefficient of (z_0...z_n)^(p-1) in fhat^(p-1), computed by the
    # zero-sum enumerator on the shifted exponent vectors, equals the
    # Laurent constant term
    psi = 2
    fam = get_family(name)
    form = _family_form(fam, psi)
    shifted = [tuple(e - 1 for e in exps) for exps, _ in form]
    coeffs = [frac_mod(c, p) for _, c in form]
    fact = [1] * p
    for i in range(1, p):
        fact[i] = fact[i - 1] * i % p
    inv_fact = [pow(x, -1, p) for x in fact]
    katz = 0
    for a in zero_sum_exponents(shifted, p - 1):
        term = fact[p - 1]
        for ai, c in zip(a, coeffs):
            term = term * inv_fact[ai] % p * pow(c, ai, p) % p
        katz = (katz + term) % p
    laurent_hw = hasse_witt(build_vertex_pencil(fam.polytope), psi, p).value
    assert katz == laurent_hw


def test_weighted_degree_constant_on_simplex_forms():
    for name in ("quartic", "sextic"):
        fam = get_family(name)
        (weights,) = vertex_kernel(fam.polytope).basis
        form = _family_form(fam, 1)
        degrees = {
            sum(w * e for w, e in zip(weights, exps))
            for exps, _ in form
        }
        assert len(degrees) == 1


@pytest.mark.parametrize("name,psis,primes", [
    ("elliptic", (1, 2, 3), (5, 7, 11)),
    ("quartic", (2, 3), (5, 7, 11)),
    ("sextic", (1, 2), (5, 7, 11)),
])
def test_count_consistent_with_hasse_witt(name, psis, primes):
    # N == 1 + (-1)^m HW mod p, with the printed model's psi translated to
    # the vertex-pencil convention through the stored origin coefficient
    fam = get_family(name)
    sign = -1 if (fam.polytope.dim - 1) % 2 else 1
    for psi in psis:
        for p in primes:
            if not fam.is_smooth_model(psi):
                continue
            vertex_psi = fam.model_psi_coeff * psi
            hw = hasse_witt(build_vertex_pencil(fam.polytope), vertex_psi, p)
            count = count_family(fam, psi, p).count
            assert count % p == (1 + sign * hw.value) % p


# --------------------------------------------------------------------------
# the kernel-lattice engine against the depth-first reference enumerator
# --------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _dfs_vectors(exps, e):
    return tuple(zero_sum_exponents(list(exps), e))


def _multinomial(a):
    out = factorial(sum(a))
    for ai in a:
        out //= factorial(ai)
    return out


def dfs_constant_term(f, e, p):
    """Constant term of f^e mod p from the depth-first enumerator over every
    term of f (repeats and the origin included) and exact multinomials."""
    coeffs = [frac_mod(c, p) for _, c in f.terms]
    total = 0
    for a in _dfs_vectors(tuple(w for w, _ in f.terms), e):
        term = _multinomial(a)
        for ai, c in zip(a, coeffs):
            term *= pow(c, ai, p)
        total += term
    return total % p


def dfs_hasse_witt_polynomial(pencil, p):
    e, origin = p - 1, (0,) * pencil.n
    vertex = [t for t in pencil.terms if t.exponent != origin]
    coeffs = [frac_mod(t.const, p) for t in vertex]
    out = [0] * p
    for a in _dfs_vectors(tuple(t.exponent for t in vertex) + (origin,), e):
        term = _multinomial(a)
        for ai, c in zip(a, coeffs):
            term *= pow(c, ai, p)
        out[a[-1]] += term  # a[-1] is the power of psi
    return tuple(x % p for x in out)


def dfs_period_coefficients(delta, n_max):
    exps = tuple(polar_dual(delta).vertices) + ((0,) * delta.dim,)
    values = [0] * (n_max + 1)
    for a in _dfs_vectors(exps, n_max):
        values[n_max - a[-1]] += _multinomial(a[:-1])
    return tuple(values)


@pytest.fixture(scope="module")
def fixture_polytopes(records2d, records3d):
    polys = [r.polytope for recs in (records2d, records3d) for r in recs.values()]
    assert len(polys) == 74
    return polys


def _random_exponent_sets(count, seed=2006):
    # small entries give kernels with pivots above 1 about half the time
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice((1, 2, 3))
        exps = {tuple(rng.randint(-3, 3) for _ in range(n))
                for _ in range(rng.randint(1, 6))}
        exps.discard((0,) * n)
        if exps:
            yield sorted(exps)


def test_kernel_points_match_dfs_vectors(fixture_polytopes):
    exponent_sets = [list(polar_dual(d).vertices) for d in fixture_polytopes]
    for exps in exponent_sets + list(_random_exponent_sets(200)):
        origin = (0,) * len(exps[0])
        for e in (0, 3, 6):
            with_origin = sorted(a[:-1] for a in zero_sum_exponents(exps + [origin], e))
            assert sorted(_kernel_points(exps, e)) == with_origin


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_constant_term_matches_dfs_on_fixtures(fixture_polytopes, p):
    for delta in fixture_polytopes:
        pencil = build_vertex_pencil(delta)
        for psi in (1, 2, 3):
            f = specialize(pencil, psi)
            assert constant_term_power(f, p - 1, p) == dfs_constant_term(f, p - 1, p)


@pytest.mark.parametrize("p", [43, 53])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constant_term_matches_dfs_on_families(name, p):
    pencil = get_family(name).vertex_pencil()
    for psi in (1, 2, 3):
        f = specialize(pencil, psi)
        assert constant_term_power(f, p - 1, p) == dfs_constant_term(f, p - 1, p)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constant_term_edge_cases_match_dfs(name):
    pencil = get_family(name).vertex_pencil()
    for p in (5, 7, 11):
        # psi = p leaves an origin term that vanishes mod p; psi = 0 drops it
        for psi in (p, 2 * p, 0):
            f = specialize(pencil, psi)
            assert constant_term_power(f, p - 1, p) == dfs_constant_term(f, p - 1, p)
        # e = 0 and every e below p, not only p - 1
        f = specialize(pencil, 3)
        for e in range(p):
            assert constant_term_power(f, e, p) == dfs_constant_term(f, e, p)


def test_constant_term_rank_zero_kernel():
    # x + 1: the exponent (1,) alone has a trivial kernel, so only the
    # origin contributes and the constant term of (x + 1)^e is 1
    f = LaurentPolynomial(1, (((1,), F(1)), ((0,), F(1))))
    for p in (5, 7):
        for e in range(p):
            assert constant_term_power(f, e, p) == dfs_constant_term(f, e, p) == 1
    # without the origin the only vector left is a = 0, at e = 0
    g = LaurentPolynomial(1, (((1,), F(2)),))
    assert [constant_term_power(g, e, 5) for e in range(5)] == [1, 0, 0, 0, 0]


def test_constant_term_repeated_exponents():
    # repeated exponents, the origin twice, and a pair that cancels mod 7
    f = LaurentPolynomial(1, (
        ((1,), F(1)), ((-1,), F(3)), ((1,), F(2)), ((0,), F(1, 2)),
        ((-2,), F(5)), ((0,), F(4)), ((-2,), F(2)),
    ))
    for p in (5, 7, 11):
        for e in range(p):
            assert constant_term_power(f, e, p) == dfs_constant_term(f, e, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_hasse_witt_polynomial_matches_dfs(name, p):
    pencil = get_family(name).vertex_pencil()
    assert hasse_witt_polynomial(pencil, p) == dfs_hasse_witt_polynomial(pencil, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_hasse_witt_matches_dfs_at_each_psi(fixture_polytopes, p):
    # hasse_witt evaluates one memoized polynomial per (pencil, p); the DFS
    # takes the constant term of the member specialized at psi.  Both psi
    # orders start from an empty cache, so the value cannot depend on which
    # psi filled it; psi = p is 0 mod p.
    pencils = [build_vertex_pencil(d) for d in fixture_polytopes]
    pencils += [get_family(name).vertex_pencil() for name in sorted(FAMILIES)]
    psis = (F(-1), F(1, 2), F(1), F(2), F(3), F(p))
    expected = {
        (i, psi): dfs_constant_term(specialize(pencil, psi), p - 1, p)
        for i, pencil in enumerate(pencils)
        for psi in psis
    }
    for order in (psis, psis[::-1]):
        _hw_coefficients.cache_clear()
        for i, pencil in enumerate(pencils):
            for psi in order:
                assert hasse_witt(pencil, psi, p).value == expected[i, psi], (i, psi)


def test_period_coefficients_match_dfs(fixture_polytopes):
    for delta in fixture_polytopes:
        assert period_coefficients(delta, 12).values == dfs_period_coefficients(delta, 12)


# --------------------------------------------------------------------------
# the fibered point counts against a per-point exhaustive scan
# --------------------------------------------------------------------------

def _affine_zeros(poly, points, p):
    """#{x in points : F(x) = 0}, one full evaluation per point."""
    terms = [(frac_mod(c, p), exps) for c, exps in poly]
    count = 0
    for x in points:
        total = 0
        for c, exps in terms:
            for v, e in zip(x, exps):
                c = c * pow(v, e, p) % p
            total += c
        count += total % p == 0
    return count


def scan_projective(poly, n, p):
    return (_affine_zeros(poly, product(range(p), repeat=n + 1), p) - 1) // (p - 1)


def scan_weighted_projective(poly, weights, p):
    points = (x for x in product(range(p), repeat=len(weights)) if any(x))
    return _affine_zeros(poly, points, p) // (p - 1)


def scan_biprojective(poly, p):
    line = [(1, t) for t in range(p)] + [(0, 1)]
    return _affine_zeros(poly, (x + y for x in line for y in line), p)


def _P(n):
    """The grading of P^n: one all-ones row on n+1 variables."""
    return ((1,) * (n + 1),)


def _scan_family(fam, psi, p):
    poly = fam.model_polynomial(psi)
    if fam.model == "biprojective":
        return scan_biprojective(poly, p)
    if fam.model == "projective":
        return scan_projective(poly, fam.polytope.nvertices - 1, p)
    (weights,) = vertex_kernel(fam.polytope).basis
    return scan_weighted_projective(poly, weights, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
@pytest.mark.parametrize("name", ["elliptic", "quartic", "sextic"])
def test_family_counts_match_exhaustive_scan(name, p):
    # singular members too: the count does not need smoothness
    fam = get_family(name)
    for psi in (1, 2, 3, 5, 6, 7):
        assert count_family(fam, psi, p).count == _scan_family(fam, psi, p)


def _monomials(nvars, degree, weights=None):
    weights = weights or (1,) * nvars
    return [e for e in product(range(degree + 1), repeat=nvars)
            if sum(w * a for w, a in zip(weights, e)) == degree]


def _random_poly(rng, monomials, p):
    """Up to five terms drawn with repetition; coefficients are rationals,
    some of them 0 mod p."""
    poly = []
    for _ in range(rng.randint(1, 5)):
        c = F(rng.choice((rng.randint(-6, 6), p * rng.randint(1, 3))),
              rng.choice((1, 2, 4)))
        poly.append((c, rng.choice(monomials)))
    return poly


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_homogeneous_counts_match_exhaustive_scan(p):
    rng = random.Random(7000 + p)
    assert count_graded([], _P(3), p) == scan_projective([], 3, p)
    for _ in range(25):
        n = rng.choice((1, 2, 3))
        poly = _random_poly(rng, _monomials(n + 1, rng.randint(1, 4)), p)
        assert count_graded(poly, _P(n), p) == scan_projective(poly, n, p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_weighted_counts_match_exhaustive_scan(p):
    rng = random.Random(8000 + p)
    weights = (3, 1, 1, 1)
    assert (count_graded([], (weights,), p)
            == scan_weighted_projective([], weights, p))
    for _ in range(25):
        poly = _random_poly(rng, _monomials(4, rng.randint(0, 6), weights), p)
        assert (count_graded(poly, (weights,), p)
                == scan_weighted_projective(poly, weights, p))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_random_bihomogeneous_counts_match_exhaustive_scan(p):
    rng = random.Random(9000 + p)
    assert count_graded([], P1_X_P1, p) == scan_biprojective([], p)
    for _ in range(25):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        monomials = [x + y for x in _monomials(2, a) for y in _monomials(2, b)]
        poly = _random_poly(rng, monomials, p)
        assert count_graded(poly, P1_X_P1, p) == scan_biprojective(poly, p)


def test_repeated_monomials_match_exhaustive_scan():
    # x0^2 + 2 x0^2 - 3 x0^2 cancels over Q; x1^2 + 4 x1^2 cancels mod 5 only
    poly = [(1, (2, 0, 0)), (2, (2, 0, 0)), (-3, (2, 0, 0)),
            (1, (0, 2, 0)), (4, (0, 2, 0)), (F(1, 2), (1, 0, 1))]
    bi = [(1, (2, 0, 1, 1)), (2, (2, 0, 1, 1)), (-3, (2, 0, 1, 1)),
          (1, (0, 2, 0, 2)), (4, (0, 2, 0, 2)), (F(1, 2), (1, 1, 2, 0))]
    for p in (3, 5, 7):
        assert count_graded(poly, _P(2), p) == scan_projective(poly, 2, p)
        assert count_graded(bi, P1_X_P1, p) == scan_biprojective(bi, p)


# --------------------------------------------------------------------------
# the character-sum route and the closed-form fibers against the fibered
# scan, the exhaustive scan and per-t evaluation
# --------------------------------------------------------------------------

def _primes_to(n):
    return [p for p in range(2, n + 1) if all(p % d for d in range(2, p))]


@pytest.mark.parametrize("p", _primes_to(41))
@pytest.mark.parametrize("name", ["quartic", "sextic"])
def test_character_sums_match_fibered_scan(name, p):
    # singular members too; the shape holds exactly when the psi monomial
    # survives mod p (never for the quartic's -4 psi at p = 2)
    fam = get_family(name)
    for psi in (1, 2, 3, 5, 6, 7):
        poly = _reduce_poly(fam.model_polynomial(psi), p)
        shape = _diagonal_shape(poly, 4)
        assert (shape is None) == (frac_mod(fam.model_psi_coeff * psi, p) == 0)
        if shape is not None:
            assert (_character_sum_zeros(*shape, p)
                    == _fibered_zeros(poly, product(range(p), repeat=3), p))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_random_character_sums_match_exhaustive_scan(p):
    rng = random.Random(9600 + p)
    for _ in range(12):
        n = rng.randint(2, 4)
        poly = [(rng.randint(1, p - 1),
                 tuple(rng.randint(1, 6) if j == i else 0 for j in range(n)))
                for i in range(n)]
        poly.append((rng.randint(1, p - 1),
                     tuple(rng.randint(1, 3) for _ in range(n))))
        rng.shuffle(poly)
        shape = _diagonal_shape(poly, n)
        assert shape is not None
        assert (_character_sum_zeros(*shape, p)
                == _affine_zeros(poly, product(range(p), repeat=n), p))


FERMAT = [(1, (4, 0, 0, 0)), (1, (0, 4, 0, 0)), (1, (0, 0, 4, 0)),
          (1, (0, 0, 0, 4))]
QUARTIC = FERMAT + [(-8, (1, 1, 1, 1))]


@pytest.mark.parametrize("poly", [
    QUARTIC + [(2, (4, 0, 0, 0))],    # a second pure power of x0
    QUARTIC + [(2, (2, 2, 0, 0))],    # a further monomial
    FERMAT + [(5, (2, 1, 1, 0))],     # the one other monomial misses x3
], ids=["repeated-power", "extra-monomial", "missing-variable"])
@pytest.mark.parametrize("p", [3, 7])
def test_other_shapes_take_the_fibered_scan(poly, p):
    assert _diagonal_shape(_reduce_poly(poly, p), 4) is None
    assert count_graded(poly, _P(3), p) == scan_projective(poly, 3, p)


def test_vanishing_coefficient_takes_the_fibered_scan():
    # -8 = 0 mod 2 leaves only the pure powers; 5 x1^4 = 0 mod 5 drops one
    assert _diagonal_shape(_reduce_poly(QUARTIC, 2), 4) is None
    poly = QUARTIC[:1] + [(5, (0, 4, 0, 0))] + QUARTIC[2:]
    assert _diagonal_shape(_reduce_poly(poly, 5), 4) is None
    for p, f in ((2, QUARTIC), (5, poly)):
        assert count_graded(f, _P(3), p) == scan_projective(f, 3, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_fibers_match_evaluation(p):
    table = [[pow(t, d, p) for d in range(4)] for t in range(p)]
    for degrees in ((0, 1, 2), (2, 0), (2, 1), (1, 0), (2,), (3, 1, 0)):
        for coeffs in product(range(p), repeat=len(degrees)):
            roots = sum(
                1 for t in range(p)
                if sum(c * table[t][d] for c, d in zip(coeffs, degrees)) % p == 0
            )
            assert _root_count(coeffs, degrees, table, p) == roots


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_random_quadratic_fibers_match_exhaustive_scan(p):
    # y-degree 2: every fiber of the chart y0 = 1 has degree <= 2 in y1
    rng = random.Random(9700 + p)
    for _ in range(25):
        monomials = [x + y for x in _monomials(2, rng.randint(0, 3))
                     for y in _monomials(2, 2)]
        poly = [(rng.randint(-6, 6), rng.choice(monomials))
                for _ in range(rng.randint(1, 5))]
        assert count_graded(poly, P1_X_P1, p) == scan_biprojective(poly, p)


def test_elliptic_counts_match_exhaustive_scan_to_151():
    fam = get_family("elliptic")
    for p in _primes_to(151):
        psi = 2 + p % 3
        assert count_family(fam, psi, p).count == _scan_family(fam, psi, p)


# --------------------------------------------------------------------------
# the one-pass truncated series against the term-by-term reference
# --------------------------------------------------------------------------

def series_by_terms(data, psi, p):
    """Sum of `_series_term` over degrees 0..p-1, each term's Pochhammer
    symbols rebuilt from scratch."""
    z = _argument_mod_p(data, psi, p)
    factorials = [1] * p
    for i in range(1, p):
        factorials[i] = factorials[i - 1] * i % p
    total = 0
    for n in range(p):
        if n > 0 and z == 0:
            break
        total += _series_term(data, n, z, p, factorials)
    return total % p


def _outcome(fn, *args):
    try:
        return fn(*args)
    except HwmtError as exc:
        return type(exc)


def _random_rational(rng):
    return F(rng.randint(-12, 12), rng.randint(1, 12))


def _random_series(rng, p):
    nums = tuple(_random_rational(rng) for _ in range(rng.randint(1, 4)))
    # a lower parameter b has (b)_n vanish before n = p unless b == 1 mod p,
    # so most are drawn that way to keep the value itself under test
    dens = tuple(
        F(1) + p * _random_rational(rng) if rng.random() < 0.8
        else _random_rational(rng) or F(1)
        for _ in nums[1:]
    )
    dens = tuple(b if b.denominator > 1 or b > 0 else F(1) for b in dens)
    argument = (_random_rational(rng) or F(1), rng.randint(-4, 4))
    return HypergeometricData(nums, dens, argument)


PRIMES_TO_50 = [q for q in range(2, 50) if all(q % d for d in range(2, q))]


@pytest.mark.parametrize("p", PRIMES_TO_50)
def test_truncated_series_matches_term_sum(p):
    rng = random.Random(4200 + p)
    seen = set()
    for _ in range(40):
        data = _random_series(rng, p)
        psi = rng.choice((_random_rational(rng), F(rng.randint(0, 3 * p))))
        expected = _outcome(series_by_terms, data, psi, p)
        got = _outcome(lambda *a: truncated_pFq(*a).value, data, psi, p)
        assert got == expected, (data, psi)
        seen.add(expected if isinstance(expected, type) else int)
    assert int in seen


@pytest.mark.parametrize("data,psi,p,error", [
    # z == 0 mod p: only the constant term survives, even past a lower
    # parameter that would vanish
    (HypergeometricData((F(1, 2), F(1, 3)), (F(1, 2),), (F(7), 1)), 3, 7, None),
    (HypergeometricData((F(1, 2), F(1, 3)), (F(1, 2),), (F(1), 2)), 0, 5, None),
    # a parameter with p in its denominator
    (HypergeometricData((F(1, 5), F(1, 2)), (F(1),), (F(1), 1)), 2, 5,
     "BadDenominator"),
    (HypergeometricData((F(1, 2), F(1, 2)), (F(3, 5),), (F(1), 1)), 2, 5,
     "BadDenominator"),
    # (1/2)_n vanishes mod 5 at n = 3
    (HypergeometricData((F(1, 2), F(1, 4)), (F(1, 2),), (F(1), 1)), 2, 5,
     "BadDenominator"),
    # psi^-4 with psi == 0 mod 7
    (HypergeometricData((F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)),
     7, 7, "PsiNotInvertible"),
])
def test_truncated_series_edge_cases_match_term_sum(data, psi, p, error):
    expected = _outcome(series_by_terms, data, psi, p)
    got = _outcome(lambda *a: truncated_pFq(*a).value, data, psi, p)
    assert got == expected
    assert (expected.__name__ if isinstance(expected, type) else None) == error


# --------------------------------------------------------------------------
# integer-only linear algebra and kernel-pair tests against Fraction and
# HNF references
# --------------------------------------------------------------------------

def frac_inverse(m):
    """Exact inverse of a square matrix, entries returned as Fractions.

    Raises ZeroDivisionError if the matrix is singular.
    """
    n = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(m)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        d = a[col][col]
        a[col] = [x / d for x in a[col]]
        for r in range(n):
            if r != col and a[r][col]:
                c = a[r][col]
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[n:]) for row in a)


def frac_det(m):
    """Exact determinant by Gaussian elimination over the rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            if a[r][col]:
                c = a[r][col] * inv
                a[r] = [x - c * y for x, y in zip(a[r], a[col])]
    return det


def _random_matrices(count, seed=1606):
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 5)
        m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if i % 4 == 0:
            # one row an integer combination of the others: singular
            r = rng.randrange(n)
            coeffs = [rng.randint(-2, 2) for _ in range(n)]
            m[r] = [sum(coeffs[t] * m[t][c] for t in range(n) if t != r)
                    for c in range(n)]
        yield tuple(tuple(row) for row in m)


def test_adjugate_det_matches_fraction_oracles():
    singular = 0
    for m in _random_matrices(2000):
        n = len(m)
        adj, det = adjugate_det(m)
        assert det == frac_det(m), m
        if det:
            assert adj == tuple(tuple(det * x for x in row)
                                for row in frac_inverse(m)), m
            continue
        singular += 1
        with pytest.raises(ZeroDivisionError):
            frac_inverse(m)
        # no inverse to compare with: the adjugate by its definition
        cofactors = tuple(
            tuple((-1) ** (i + j)
                  * frac_det([r[:i] + r[i + 1:] for t, r in enumerate(m) if t != j])
                  for j in range(n))
            for i in range(n)
        )
        assert adj == cofactors, m
    assert 400 < singular < 900


def test_kernel_pair_ordering_matches_hnf(fixture_polytopes):
    # the witness is the first face-respecting bijection sigma, in the order
    # combinatorial_bijections yields them, with ker(Q o sigma) == ker(P) by
    # the HNF of the reordered vertex matrix; no such sigma gives no witness
    rng = random.Random(1707)
    polys = fixture_polytopes + [polar_dual(d) for d in fixture_polytopes]
    shapes = {}
    for poly in polys:
        shapes.setdefault((poly.dim, poly.nvertices), []).append(poly)
    outcomes = []
    for group in shapes.values():
        for p in group:
            kp = vertex_kernel(p).basis
            for q in rng.sample(group, min(4, len(group))):
                sigma = next(
                    (s for s in combinatorial_bijections(p, q)
                     if left_kernel(tuple(q.vertices[j] for j in s)) == kp),
                    None)
                assert is_kernel_pair(p, q) == (sigma is not None, sigma), (p, q)
                outcomes.append(sigma is not None)
    assert outcomes.count(True) > 100 and outcomes.count(False) > 400


def frac_vertex_basis(p):
    """Indices of the first p.dim linearly independent vertices, each vertex
    reduced by Fraction elimination against the ones already taken."""
    idx, echelon = [], []
    for i, v in enumerate(p.vertices):
        w = [Fraction(x) for x in v]
        for piv, row in echelon:
            if w[piv]:
                c = w[piv] / row[piv]
                w = [x - c * y for x, y in zip(w, row)]
        piv = next((j for j, x in enumerate(w) if x), None)
        if piv is not None:
            echelon.append((piv, w))
            idx.append(i)
    assert len(idx) == p.dim
    return idx


def frac_lattice_isomorphism(p, q):
    """The GL(n,Z) map of ``lattice_isomorphism`` through a Fraction inverse
    and a Fraction determinant, on a greedily chosen vertex basis, checked
    on every vertex."""
    if p.dim != q.dim or p.nvertices != q.nvertices:
        return None
    n = p.dim
    base = frac_vertex_basis(p)
    inv = frac_inverse(tuple(p.vertices[i] for i in base))
    for sigma in combinatorial_bijections(p, q):
        m_q = tuple(q.vertices[sigma[i]] for i in base)
        u = [[sum(inv[r][t] * m_q[t][c] for t in range(n)) for c in range(n)]
             for r in range(n)]
        if any(x.denominator != 1 for row in u for x in row):
            continue
        uint = tuple(tuple(int(x) for x in row) for row in u)
        if all(tuple(sum(v[t] * uint[t][c] for t in range(n)) for c in range(n))
               == q.vertices[sigma[i]] for i, v in enumerate(p.vertices)):
            if abs(frac_det(uint)) == 1:
                return uint
    return None


def test_lattice_isomorphism_matches_fraction_path(records2d, records3d):
    polys2d = [r.polytope for r in records2d.values()]
    polys2d += [polar_dual(p) for p in polys2d]
    # every 2D pair that can be isomorphic (same vertex and lattice-point
    # counts) and a seeded sample of the others, which both paths reject
    candidate, other = [], []
    for p in polys2d:
        for q in polys2d:
            same = (p.nvertices == q.nvertices
                    and len(lattice_points(p)) == len(lattice_points(q)))
            (candidate if same else other).append((p, q))
    pairs = candidate + random.Random(1808).sample(other, 64)
    # the census asks lattice_isomorphism(polar_dual(a), b) for the members
    # a <= b of each kernel type
    for t in classify_kernel_types(list(records3d.values())):
        members = sorted(t.members)
        pairs += [(polar_dual(records3d[a].polytope), records3d[b].polytope)
                  for i, a in enumerate(members) for b in members[i:]]
    # every 3D fixture with its vertices shuffled, so that the vertex basis
    # is taken from every position of the vertex list
    rng = random.Random(1818)
    for r in records3d.values():
        k = r.polytope.nvertices
        pairs.append((r.polytope.relabel(rng.sample(range(k), k)), r.polytope))
    found = 0
    for p, q in pairs:
        u = lattice_isomorphism(p, q)
        assert u == frac_lattice_isomorphism(p, q), (p, q)
        found += u is not None
    assert 0 < found < len(pairs)


def brute_force_bijections(p, q):
    """Every vertex bijection that maps the facet family of p onto that of
    q, in lexicographic order, by trying every permutation."""
    if p.nvertices != q.nvertices:
        return []
    pf, qf = vertex_facet_sets(p), set(vertex_facet_sets(q))
    return [sigma for sigma in permutations(range(p.nvertices))
            if {frozenset(sigma[v] for v in f) for f in pf} == qf]


def test_combinatorial_bijections_match_brute_force(records2d, records3d):
    # every pair the census and the Key Lemma ask about (members of one
    # kernel type, their duals, and a dual against a member), plus a seeded
    # sample of the other pairs with equal vertex counts, across dimensions
    # too; the lists must agree in order, since the first one found is the
    # reported witness
    asked = set()
    for recs in (records2d, records3d):
        for t in classify_kernel_types(list(recs.values())):
            members = [recs[i].polytope for i in sorted(t.members)]
            for a in members:
                for b in members:
                    asked |= {(a, b), (polar_dual(a), polar_dual(b)),
                              (polar_dual(a), b)}
    polys = [r.polytope for recs in (records2d, records3d) for r in recs.values()]
    polys += [polar_dual(d) for d in polys]
    others = [(a, b) for a in polys for b in polys
              if a.nvertices == b.nvertices and (a, b) not in asked]
    pairs = sorted(asked, key=str) + random.Random(1909).sample(others, 3000)
    counts = []
    for p, q in pairs:
        found = list(combinatorial_bijections(p, q))
        assert found == brute_force_bijections(p, q), (p, q)
        counts.append(len(found))
    assert counts.count(0) > 100 and max(counts) > 1
