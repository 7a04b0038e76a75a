"""Cross-module identities tying the pencil, Hasse-Witt, and count layers
together through independent data paths."""

import random
import sys
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import factorial

import pytest

from hwmt.census import classify_kernel_types
from hwmt.families import FAMILIES, get_family
from hwmt.hasse_witt import (
    _budget_weights,
    _horizon,
    _hw_coefficients,
    _inverse_factorials,
    _kernel_plan,
    _kernel_runs,
    _multinomial_sums,
    _walk,
    hasse_witt,
    hasse_witt_polynomial,
    period_coefficients,
)
from hwmt.errors import (
    BadDenominator,
    DegeneratePolytope,
    HwmtError,
    NonLatticeDual,
    NotInteriorOrigin,
)
from hwmt.hypergeometric import (
    HypergeometricData,
    _argument_mod_p,
    frac_mod,
    truncated_pFq,
)
from hwmt import point_count
from hwmt.point_count import (
    _character_sum_zeros,
    _diagonal_shape,
    _fibered_zeros,
    _reduce_poly,
    _tables,
    count_family,
    count_graded,
)
from hwmt.intlinalg import char_poly, hermite_row, hnf_rows, left_kernel
from hwmt.ratfunc import Poly
from hwmt.polytope import (
    LatticePolytope,
    _pairing,
    facets,
    is_kernel_pair,
    lattice_points,
    polar_dual,
    vertex_facet_sets,
    vertex_kernel,
)

from oracles import (
    P1_X_P1,
    _series_term,
    adjugate_det,
    cofactor_char_poly,
    combinatorial_bijections,
    frac_rank,
    hnf_facets,
    hnf_polytope,
    kernel_points,
    lattice_isomorphism,
    member_terms,
    pairing_rows,
    zero_sum_exponents,
)

F = Fraction


@pytest.mark.parametrize("name", ["elliptic", "quartic", "sextic", "group1",
                                  "group2"])
def test_torus_pullback_identity(name):
    # the printed model's homogeneous form and the Laurent pencil agree on
    # the torus: fhat(z) == (prod z_j) * f(phi(z)) where
    # phi(z)_i = prod z_j^(v_j)_i, with psi in the printed convention
    p, psi = 11, 3
    fam = get_family(name)
    delta = fam.polytope
    variables = delta.vertices
    form = fam.model_polynomial(psi)
    laurent = member_terms(delta, fam.model_psi_coeff * psi)
    for z in [tuple(range(2, 2 + len(variables))),
              tuple(range(3, 3 + len(variables)))]:
        fhat = sum(
            frac_mod(c, p) * _prod(pow(zj, e, p) for zj, e in zip(z, exps))
            for c, exps in form
        ) % p
        phi = tuple(
            _prod(pow(zj, v[i] % (p - 1), p) for zj, v in zip(z, variables))
            for i in range(delta.dim)
        )
        f_val = sum(
            frac_mod(c, p)
            * _prod(pow(x, e % (p - 1), p) for x, e in zip(phi, exps))
            for exps, c in laurent
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
    # Laurent constant term of the vertex pencil at the printed psi
    psi = 2
    fam = get_family(name)
    form = fam.model_polynomial(psi)
    shifted = [tuple(e - 1 for e in exps) for _, exps in form]
    coeffs = [frac_mod(c, p) for c, _ in form]
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
    laurent_hw = hasse_witt(fam.polytope, fam.model_psi_coeff * psi, p).value
    assert katz == laurent_hw


def test_weighted_degree_constant_on_simplex_forms():
    for name in ("quartic", "sextic"):
        fam = get_family(name)
        (weights,) = vertex_kernel(fam.polytope).basis
        form = fam.model_polynomial(1)
        degrees = {
            sum(w * e for w, e in zip(weights, exps))
            for _, exps in form
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
            hw = hasse_witt(fam.polytope, vertex_psi, p)
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
    """Constant term of f^e mod p, f given as (exponent, coefficient) terms,
    from the depth-first enumerator over every term of f (repeats and the
    origin included) and exact multinomials."""
    coeffs = [frac_mod(c, p) for _, c in f]
    total = 0
    for a in _dfs_vectors(tuple(w for w, _ in f), e):
        term = _multinomial(a)
        for ai, c in zip(a, coeffs):
            term *= pow(c, ai, p)
        total += term
    return total % p


def dfs_hasse_witt_polynomial(delta, p):
    # every dual vertex has coefficient 1, so a vector weighs its multinomial
    e, origin = p - 1, (0,) * delta.dim
    out = [0] * p
    for a in _dfs_vectors(tuple(polar_dual(delta).vertices) + (origin,), e):
        out[a[-1]] += _multinomial(a)  # a[-1] is the power of psi
    return tuple(x % p for x in out)


def dfs_multinomial_sums(exps, n_max):
    # the origin, last, takes n_max - n
    exps = tuple(exps) + ((0,) * len(exps[0]),)
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
            assert sorted(kernel_points(exps, e)) == with_origin


def test_cut_of_a_larger_walk_is_a_fresh_walk(fixture_polytopes):
    # budgets asked in random order, so most are cuts of a larger walk; the
    # kernels' last basis rows have sums of every sign
    rng = random.Random(2020)
    exponent_sets = [list(polar_dual(d).vertices) for d in fixture_polytopes]
    exponent_sets += list(_random_exponent_sets(400, seed=2020))
    signs, cuts = Counter(), 0
    for exps in exponent_sets:
        budgets = list(range(9))
        rng.shuffle(budgets)
        fresh = {}
        for e in budgets:
            _kernel_plan.cache_clear()
            fresh[e] = (_walk(_kernel_plan(tuple(exps)), e),
                        sorted(kernel_points(exps, e)))
        _kernel_plan.cache_clear()
        plan = _kernel_plan(tuple(exps))
        for e in budgets:
            cuts += _horizon(e) > e
            assert _kernel_runs(plan, e) == fresh[e][0], (exps, e)
            assert sorted(kernel_points(exps, e)) == fresh[e][1], (exps, e)
        if plan.step:
            ds = sum(plan.incs)
            signs[(ds > 0) - (ds < 0)] += 1
    assert len(exponent_sets) >= 74 + 200 and cuts > 1000
    assert min(signs[-1], signs[0], signs[1]) >= 5, signs


def test_walks_do_not_depend_on_budget_order(fixture_polytopes, monkeypatch):
    # a budget is served by the walk at its horizon alone, so every order of
    # the same budgets makes the same walks, one per horizon.  The package's
    # name hasse_witt is the function, so the module comes from sys.modules.
    module, walks = sys.modules["hwmt.hasse_witt"], []
    monkeypatch.setattr(module, "_walk",
                        lambda plan, e: walks.append(e) or _walk(plan, e))
    assert [_horizon(e) for e in (0, 1, 2, 3, 4, 5, 8, 9, 42, 58, 64, 65)] == \
        [1, 1, 2, 4, 4, 8, 8, 16, 64, 64, 64, 128]
    exponent_sets = [list(polar_dual(d).vertices) for d in fixture_polytopes[:20]]
    exponent_sets += [list(polar_dual(f.polytope).vertices) for f in FAMILIES.values()]
    rng = random.Random(7)
    for exps in exponent_sets:
        for budgets in ([42, 46, 52, 58], [4, 6, 10, 12, 16]):
            made = set()
            for order in (budgets, budgets[::-1], rng.sample(budgets, len(budgets))):
                _kernel_plan.cache_clear()
                walks.clear()
                for e in order:
                    kernel_points(exps, e)
                made.add(tuple(sorted(walks)))
            assert made == {tuple(sorted({_horizon(e) for e in budgets}))}, exps
    _kernel_plan.cache_clear()


def test_threads_sharing_a_plan_get_their_own_budgets(fixture_polytopes):
    exps = tuple(polar_dual(fixture_polytopes[-1]).vertices)
    want = {e: sorted(kernel_points(exps, e)) for e in range(12)}
    errors = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(40):
            e = rng.randrange(12)
            if sorted(kernel_points(exps, e)) != want[e]:
                errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _kernel_plan.cache_clear()
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and errors == []


def _weights_per_vector(exps, e, p):
    """The budget weights from the depth-first enumerator, one vector at a
    time: W[s] = sum of prod_i 1/a_i! mod p over the zero-sum vectors a of
    the exponents with sum(a) = s, the origin taking e - s."""
    origin = (0,) * (len(exps[0]) if exps else 1)
    weights = [0] * (e + 1)
    for v in zero_sum_exponents(list(exps) + [origin], e):
        weight = 1
        for ai in v[:-1]:
            weight = weight * pow(factorial(ai), -1, p) % p
        weights[e - v[-1]] += weight
    return [w % p for w in weights]


def test_folded_weights_match_per_vector_weights(fixture_polytopes):
    # the fixture duals and random exponent sets, at every budget e < p;
    # the rank-0 kernels are a lone exponent, a basis, and no exponent at all
    exponent_sets = [list(polar_dual(d).vertices) for d in fixture_polytopes]
    exponent_sets += list(_random_exponent_sets(120, seed=2008))
    exponent_sets += [[(1,)], [(2, 0), (0, -1)], [(1, 1, 0), (0, 1, 1), (1, 0, 1)]]
    ranks = {len(left_kernel(exps)) for exps in exponent_sets}
    assert {0, 1, 2, 3} <= ranks
    for exps in exponent_sets + [[]]:
        for p in (2, 3, 5, 7, 11):
            for e in range(p):
                folded = [w % p for w in _budget_weights(exps, e, p)]
                assert folded == _weights_per_vector(exps, e, p), (exps, e)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 101])
def test_factorials_mod_are_inverse_pairs(p):
    # the table starts from Wilson's 1/(p-1)! = -1 and takes no inverse
    assert _inverse_factorials(p) == [pow(factorial(x), -1, p) for x in range(p)]


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_constant_term_matches_dfs_on_fixtures(fixture_polytopes, p):
    for delta in fixture_polytopes:
        for psi in (1, 2, 3):
            f = member_terms(delta, psi)
            assert hasse_witt(delta, psi, p).value == dfs_constant_term(f, p - 1, p)


@pytest.mark.parametrize("p", [43, 53])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constant_term_matches_dfs_on_families(name, p):
    delta = get_family(name).polytope
    for psi in (1, 2, 3):
        f = member_terms(delta, psi)
        assert hasse_witt(delta, psi, p).value == dfs_constant_term(f, p - 1, p)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_constant_term_edge_cases_match_dfs(name):
    # the polytope, not the family, so that a psi where the member is
    # singular (psi = 0 for some) is still evaluated
    delta = get_family(name).polytope
    for p in (5, 7, 11):
        # psi = p leaves an origin term that vanishes mod p; at psi = 0 the
        # origin term is 0, and with the origin dropped the value is the same
        for psi in (p, 2 * p, 0):
            f = member_terms(delta, psi)
            assert hasse_witt(delta, psi, p).value == dfs_constant_term(
                f, p - 1, p) == dfs_constant_term(f[:-1], p - 1, p)
        # e = 0 and every e below p, not only p - 1
        exps = polar_dual(delta).vertices
        for e in range(p):
            folded = [w % p for w in _budget_weights(exps, e, p)]
            assert folded == _weights_per_vector(exps, e, p)


def test_constant_term_rank_zero_kernel():
    # the exponent (1,) alone has a trivial kernel, so only a = 0 survives,
    # with weight 1 at budget 0: the constant term of (x + 1)^e is 1
    for p in (5, 7):
        for e in range(p):
            assert _budget_weights([(1,)], e, p) == [1] + [0] * e


@pytest.mark.parametrize("p", [5, 7, 11, 13])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_hasse_witt_polynomial_matches_dfs(name, p):
    delta = get_family(name).polytope
    assert hasse_witt_polynomial(name, p) == dfs_hasse_witt_polynomial(delta, p)


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_hasse_witt_matches_dfs_at_each_psi(fixture_polytopes, p):
    # hasse_witt evaluates one memoized polynomial per (polytope, p); the DFS
    # takes the constant term of the member specialized at psi.  Both psi
    # orders start from an empty cache, so the value cannot depend on which
    # psi filled it; psi = p is 0 mod p.
    polys = fixture_polytopes + [get_family(name).polytope for name in sorted(FAMILIES)]
    psis = (F(-1), F(1, 2), F(1), F(2), F(3), F(p))
    expected = {
        (i, psi): dfs_constant_term(member_terms(d, psi), p - 1, p)
        for i, d in enumerate(polys)
        for psi in psis
    }
    for order in (psis, psis[::-1]):
        _hw_coefficients.cache_clear()
        for i, d in enumerate(polys):
            for psi in order:
                assert hasse_witt(d, psi, p).value == expected[i, psi], (i, psi)


def test_period_coefficients_match_dfs(fixture_polytopes):
    for delta in fixture_polytopes:
        exps = polar_dual(delta).vertices
        assert period_coefficients(delta, 12) == dfs_multinomial_sums(exps, 12)


def test_multinomial_sums_match_dfs(fixture_polytopes):
    # the fold steps along each run by ratios of factorials.  The random
    # sets' last basis rows have sums of every sign, so some runs end where
    # one more step would take n or a column below 0: a fold that stepped
    # past a run's end would divide by 0 there
    exponent_sets = [list(polar_dual(d).vertices) for d in fixture_polytopes]
    exponent_sets += list(_random_exponent_sets(400, seed=2027))
    signs = Counter()
    for exps in exponent_sets:
        plan = _kernel_plan(tuple(exps))
        if plan.step:
            ds = sum(plan.incs)
            signs[(ds > 0) - (ds < 0)] += 1
        for n_max in (0, 3, 6, 9):
            assert _multinomial_sums(exps, n_max) == \
                dfs_multinomial_sums(exps, n_max), (exps, n_max)
    assert min(signs[-1], signs[0], signs[1]) >= 5, signs


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


def scan_cox(poly, grading, p):
    """Points of a product of weighted projective spaces, one per row of a
    grading with disjoint supports: the zeros in F_p^n that are nonzero on
    every row's support, divided by (p-1)^rows."""
    supports = [[i for i, w in enumerate(row) if w] for row in grading]
    points = (x for x in product(range(p), repeat=len(grading[0]))
              if all(any(x[i] for i in s) for s in supports))
    zeros = _affine_zeros(poly, points, p)
    assert zeros % (p - 1) ** len(grading) == 0
    return zeros // (p - 1) ** len(grading)


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


def _graded_monomials(grading, degree):
    """Every monomial of the given degree vector; the rows' supports are
    disjoint, so exponents are drawn row by row."""
    n = len(grading[0])
    out = [(0,) * n]
    for row, d in zip(grading, degree):
        support = [i for i, w in enumerate(row) if w]
        out = [tuple(e[i] + a[support.index(i)] if i in support else e[i]
                     for i in range(n))
               for e in out
               for a in _monomials(len(support), d,
                                   [row[i] for i in support])]
    return out


@pytest.mark.parametrize("weights,p", [
    ((3, 1, 1, 1), 7), ((3, 1, 1, 1), 13),   # gcd(3, p-1) = 3 cosets
    ((2, 1, 1), 3), ((2, 1, 1), 5), ((2, 1, 1), 7),
])
def test_stratified_weighted_counts_match_exhaustive_scan(weights, p):
    rng = random.Random(9100 + 10 * len(weights) + p)
    draws = 0
    while draws < (6 if p > 7 else 25):
        poly = _random_poly(rng, _monomials(len(weights), rng.randint(0, 6),
                                            weights), p)
        if _diagonal_shape(_reduce_poly(poly, p), len(weights)) is None:
            draws += 1
            assert (count_graded(poly, (weights,), p)
                    == scan_weighted_projective(poly, weights, p))


@pytest.mark.parametrize("p", [7, 13])
def test_stratified_sextic_matches_exhaustive_scan(p):
    # the sextic model takes the character sums in count_graded; its strata
    # put x0 in gcd(3, p-1) = 3 cube classes
    fam = get_family("sextic")
    grading = vertex_kernel(fam.polytope).basis
    for psi in (1, 2):
        poly = _reduce_poly(fam.model_polynomial(psi), p)
        assert (point_count._stratified_count(poly, point_count._blocks(grading), p)
                == scan_weighted_projective(poly, grading[0], p))


@pytest.mark.parametrize("grading,primes", [
    (P1_X_P1, (2, 3, 5, 7)),
    (((1, 0, 1, 0), (0, 1, 0, 1)), (3, 5)),            # P1 x P1, interleaved
    (((1, 1, 0, 0, 0), (0, 0, 1, 1, 1)), (2, 3, 5)),   # P1 x P2
    (((2, 1, 1, 0, 0), (0, 0, 0, 1, 1)), (3, 5)),      # P(2,1,1) x P1
])
def test_stratified_product_counts_match_cox_scan(grading, primes):
    rng = random.Random(9200 + sum(map(sum, grading)))
    for p in primes:
        assert count_graded([], grading, p) == scan_cox([], grading, p)
        for _ in range(12):
            degree = [rng.randint(0, 3) for _ in grading]
            monomials = _graded_monomials(grading, degree)
            poly = [(rng.randint(-6, 6), rng.choice(monomials))
                    for _ in range(rng.randint(1, 5))]
            assert count_graded(poly, grading, p) == scan_cox(poly, grading, p)


def _prefixes_visited(monkeypatch, poly, grading, p):
    """(count, prefixes the strata hand to _fibered_zeros)."""
    seen = []
    fibered = point_count._fibered_zeros

    def counting(f, prefixes, *tables):
        prefixes = list(prefixes)
        seen.append(len(prefixes))
        return fibered(f, prefixes, *tables)

    monkeypatch.setattr(point_count, "_fibered_zeros", counting)
    return count_graded(poly, grading, p), sum(seen)


def test_strata_visit_each_projective_point_once(monkeypatch):
    # a further monomial keeps the quartic off the character sums; the
    # strata x0 = 1, (0, 1, ..), (0, 0, 1, x3) and (0, 0, 0, 1) have
    # 13^2, 13, 1 and 0 prefixes, where the affine cone had 13^3
    poly = QUARTIC + [(2, (2, 2, 0, 0))]
    count, visited = _prefixes_visited(monkeypatch, poly, _P(3), 13)
    assert count == scan_projective(poly, 3, 13)
    assert visited == 13**2 + 13 + 1


@pytest.mark.parametrize("p", [5, 101, 151])
def test_elliptic_strata_visit_p_plus_two_fibers(monkeypatch, p):
    # (1, x1; 1, y1) is p fibers in y1, (1, x1; 0, 1) and (0, 1; 1, y1) one
    # each, and (0, 1; 0, 1) is a point
    fam = get_family("elliptic")
    poly = fam.model_polynomial(2)
    grading = vertex_kernel(fam.polytope).basis
    count, visited = _prefixes_visited(monkeypatch, poly, grading, p)
    assert count == count_family(fam, 2, p).count
    assert visited == p + 2


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
            tables = _tables(p, 6)
            assert (_character_sum_zeros(*shape, p)
                    == _fibered_zeros(poly, product(range(p), repeat=3), *tables))


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_whole_pencils_match_fibered_scan(p):
    # one spectrum per (a, d, e, p) serves every c in F_p^*: each member
    # of the pencil against the fibered scan of its affine cone
    rng = random.Random(9800 + p)
    for _ in range(4):
        n = rng.randint(2, 4)
        a = tuple(rng.randint(1, p - 1) for _ in range(n))
        d = tuple(rng.randint(1, 6) for _ in range(n))
        e = tuple(rng.randint(1, 3) for _ in range(n))
        tables = _tables(p, max(d + e))
        pure = [(ai, tuple(di if j == i else 0 for j in range(n)))
                for i, (ai, di) in enumerate(zip(a, d))]
        for c in range(1, p):
            poly = pure + [(c, e)]
            assert (_character_sum_zeros(a, d, c, e, p)
                    == _fibered_zeros(poly, product(range(p), repeat=n - 1),
                                      *tables)), (a, d, c, e)


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


@pytest.mark.parametrize("p", _primes_to(200))
def test_tables_match_pow_and_eulers_criterion(p):
    powers, legendre = _tables(p, 4)
    assert [list(column) for column in powers] == [
        [pow(v, e, p) for v in range(p)] for e in range(5)]
    assert legendre[0] == 0
    for v in range(1, p):
        assert legendre[v] in (1, -1)
        assert legendre[v] % p == pow(v, (p - 1) // 2, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_closed_form_fibers_match_evaluation(p):
    # coeffs[d] is the coefficient of t^d in the fiber over x = 0 of
    # sum_d coeffs[d] t^d + x t^length, so trailing zeros lower the degree
    powers, legendre = _tables(p, 5)
    for length in range(5):
        for coeffs in product(range(p), repeat=length):
            roots = sum(
                1 for t in range(p)
                if sum(c * pow(t, d, p) for d, c in enumerate(coeffs)) % p == 0
            )
            poly = [(c, (0, d)) for d, c in enumerate(coeffs) if c]
            poly.append((1, (1, length)))
            assert _fibered_zeros(poly, [(0,)], powers, legendre) == roots


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


def _seeded_draws(p):
    rng = random.Random(4200 + p)
    for _ in range(40):
        data = _random_series(rng, p)
        psi = rng.choice((_random_rational(rng), F(rng.randint(0, 3 * p))))
        yield data, psi


def _first_vanishing_factor(params, p):
    """Least n in 1..p-1 with a + n - 1 == 0 mod p for some parameter a,
    found by scanning, or p when there is none."""
    reduced = [frac_mod(a, p) for a in params]
    return next((n for n in range(1, p)
                 if any((a + n - 1) % p == 0 for a in reduced)), p)


def _stop_order(data, p):
    """'before' when the first vanishing upper factor comes before the
    first vanishing lower one, 'after' when at or after it, and None when
    no lower factor vanishes below p or a parameter does not reduce."""
    try:
        upper = _first_vanishing_factor(data.numerators, p)
        lower = _first_vanishing_factor(data.denominators, p)
    except BadDenominator:
        return None
    if lower == p:
        return None
    return "before" if upper < lower else "after"


@pytest.mark.parametrize("p", PRIMES_TO_50)
def test_truncated_series_matches_term_sum(p):
    seen = set()
    for data, psi in _seeded_draws(p):
        expected = _outcome(series_by_terms, data, psi, p)
        got = _outcome(lambda *a: truncated_pFq(*a).value, data, psi, p)
        assert got == expected, (data, psi)
        seen.add(expected if isinstance(expected, type) else int)
    assert int in seen


def test_truncated_series_draws_reach_both_stop_orders():
    # the series is refused at a vanishing lower factor whether the upper
    # stop comes before it or not; the seeded draws above cover both
    orders = {_stop_order(data, p) for p in PRIMES_TO_50
              for data, psi in _seeded_draws(p)
              if _outcome(series_by_terms, data, psi, p) is BadDenominator}
    assert {"before", "after"} <= orders


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
    # mod 13 the upper (1/4)_n vanishes from n = 4, the lower (1/3)_n at
    # n = 5: still refused
    (HypergeometricData((F(1, 4), F(1, 2)), (F(1, 3),), (F(1), 1)), 2, 13,
     "BadDenominator"),
    # upper parameters 0 and -2: the value is 1, and a 3-term sum
    (HypergeometricData((F(0), F(1, 2)), (F(1),), (F(1), 1)), 2, 13, None),
    (HypergeometricData((F(-2), F(1, 2)), (F(1),), (F(1), 1)), 2, 13, None),
    # every parameter == 1 mod 13: no factor vanishes, all 13 terms count
    (HypergeometricData((F(14), F(-12)), (F(27),), (F(1), 1)), 3, 13, None),
])
def test_truncated_series_edge_cases_match_term_sum(data, psi, p, error):
    expected = _outcome(series_by_terms, data, psi, p)
    got = _outcome(lambda *a: truncated_pFq(*a).value, data, psi, p)
    assert got == expected
    assert (expected.__name__ if isinstance(expected, type) else None) == error


def test_lower_factor_after_an_upper_stop_is_refused_at_its_term():
    data = HypergeometricData((F(1, 4), F(1, 2)), (F(1, 3),), (F(1), 1))
    with pytest.raises(BadDenominator, match="vanishes mod 13 at term 5$"):
        truncated_pFq(data, 2, 13)


# --------------------------------------------------------------------------
# facets by cofactor normals, and the facets a polar dual inherits, against
# the HNF enumeration
# --------------------------------------------------------------------------

def _random_point_sets(count, seed=1717, dims=(2, 3, 4)):
    """Seeded point sets in the given dimensions, taken in turn, with
    entries of size at most 1 or 2: lattice midpoints of random pairs mixed
    in as listed non-vertices, some sets squashed onto a hyperplane, and
    some shifted so that the origin lies on the boundary or outside."""
    rng = random.Random(seed)
    for i in range(count):
        dim, r = dims[i % len(dims)], rng.choice((1, 2))  # r = 1: often reflexive
        box = [v for v in product(range(-r, r + 1), repeat=dim) if any(v)]
        pts = rng.sample(box, min(len(box), rng.randint(dim + 1, dim + 5)))
        if rng.random() < 0.1:  # squash onto the hyperplane x_0 = x_(dim-1)
            pts = [(v[-1],) + v[1:] for v in pts]
        if rng.random() < 0.3:
            shift = rng.randint(1, 2)
            pts = [(v[0] + shift,) + v[1:] for v in pts]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(pts, 2)
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
        yield dim, tuple(dict.fromkeys(pts))


def _facets_or_error(dim, pts):
    try:
        p = LatticePolytope(dim, pts)
        return p, (facets(p), vertex_facet_sets(p))
    except HwmtError as exc:
        return None, (type(exc), str(exc))


def test_facets_match_hnf_oracle():
    # closed-form normals in dimensions 2 and 3, minors in dimension 4
    _check_facets_against_hnf(_random_point_sets(900))


def test_facets_match_hnf_oracle_in_dimensions_1_and_5():
    # the constant normal of dimension 1, and the 4x4 minors of dimension 5,
    # where a polar dual is refused
    _check_facets_against_hnf(_random_point_sets(240, 2323, (1, 5)))


def _check_facets_against_hnf(point_sets):
    seen = Counter()
    for dim, pts in point_sets:
        p, got = _facets_or_error(dim, pts)
        try:
            expected = hnf_polytope(dim, pts)
        except DegeneratePolytope as exc:
            expected = (DegeneratePolytope, str(exc))
        assert got == expected, (dim, pts)
        if p is None:
            seen[got[1].split()[0]] += 1  # "point" or "vertex"
            continue
        assert _pairing(p)[1] == pairing_rows(p), pts
        # the origin inside, on the boundary or outside; a dual when reflexive
        low = min(f.offset for f in got[0])
        dual = _outcome(polar_dual, p)
        if low < 1:
            assert dual is NotInteriorOrigin
            seen["boundary" if low == 0 else "outside"] += 1
        elif dim > 4:
            assert dual is DegeneratePolytope
            seen["reflexive" if all(f.offset == 1 for f in got[0])
                 else "interior"] += 1
        elif any(f.offset != 1 for f in got[0]):
            assert dual is NonLatticeDual
            seen["interior"] += 1
        else:
            assert facets(dual) == hnf_facets(dim, dual.vertices), pts
            seen["reflexive"] += 1
    assert min(seen[k] for k in ("point", "vertex", "boundary", "outside",
                                 "interior", "reflexive")) >= 10, seen


def test_inherited_dual_facets_match_hnf_oracle(fixture_polytopes):
    polys = fixture_polytopes + [fam.polytope for fam in FAMILIES.values()]
    for cached in (_pairing, facets, vertex_facet_sets, polar_dual):
        cached.cache_clear()
    for p in polys:
        dual = polar_dual(p)
        known, matrix = dual._known_pairing
        assert facets(dual) == known == hnf_facets(dual.dim, dual.vertices)
        # the inherited pairing matrix, p's transposed, is the one the
        # dual's own facets and vertices give
        assert _pairing(dual)[1] == matrix == pairing_rows(dual)
        # the inherited facets are a cache: a fresh polytope with the same
        # vertices is equal, hashes alike and prints alike
        fresh = LatticePolytope(dual.dim, dual.vertices)
        assert fresh._known_pairing is None
        assert (fresh, hash(fresh), repr(fresh)) == (dual, hash(dual), repr(dual))


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


def _random_row_lists(count, seed=2310):
    """Seeded integer row lists, the empty list first; every fourth has a
    zero row, a repeated row or a row that combines the others."""
    rng = random.Random(seed)
    yield ()
    for i in range(count):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        r = rng.randrange(nrows)
        if i % 4 == 1:
            m[r] = [0] * ncols
        elif i % 4 == 2:
            m[r] = list(m[rng.randrange(nrows)])
        elif i % 4 == 3:
            m[r] = [sum(rng.randint(-2, 2) * m[t][c] for t in range(nrows) if t != r)
                    for c in range(ncols)]
        yield tuple(map(tuple, m))


def _times(u, rows, ncols):
    return tuple(tuple(sum(a * row[c] for a, row in zip(ur, rows))
                       for c in range(ncols)) for ur in u)


def _assert_hnf(h):
    """Positive pivots in strictly increasing columns, zero rows last, and
    every entry above a pivot in [0, pivot)."""
    last, zero_seen = -1, False
    for i, row in enumerate(h):
        col = next((c for c, x in enumerate(row) if x), None)
        if col is None:
            zero_seen = True
            continue
        assert not zero_seen and col > last and row[col] > 0, h
        assert all(0 <= h[k][col] < row[col] for k in range(i)), h
        last = col


def test_hermite_row_is_a_unimodular_transform_to_hnf():
    kinds = Counter()
    for rows in _random_row_lists(800):
        ncols = len(rows[0]) if rows else 0
        h, u = hermite_row(rows)
        _assert_hnf(h)
        assert len(h) == len(u) == len(rows)
        assert _times(u, rows, ncols) == h, rows
        assert abs(frac_det(u)) == 1, rows
        nonzero = tuple(r for r in h if any(r))
        assert len(nonzero) == frac_rank(rows), rows
        assert hnf_rows(rows) == nonzero, rows
        kinds["rank-deficient" if len(nonzero) < len(rows) else "full"] += 1
    assert min(kinds.values()) >= 200, kinds


def test_left_kernel_is_the_hnf_of_the_transform_beside_zero_rows():
    for rows in _random_row_lists(800):
        ncols = len(rows[0]) if rows else 0
        ker = left_kernel(rows)
        assert _times(ker, rows, ncols) == ((0,) * ncols,) * len(ker), rows
        _assert_hnf(ker)
        assert len(ker) == len(rows) - frac_rank(rows), rows
        assert all(len(a) == len(rows) for a in ker)
        # the route it replaces: the HNF of the transform rows that
        # hermite_row pairs with zero rows of H
        h, u = hermite_row(rows)
        beside_zero = [ur for ur, hr in zip(u, h) if not any(hr)]
        assert ker == (hnf_rows(beside_zero) if beside_zero else ()), rows


def test_char_poly_matches_cofactor_oracle():
    assert char_poly(()) == [1]
    assert cofactor_char_poly(()) == Poly.of(1)
    rng = random.Random(2207)
    kinds = Counter()
    for i in range(360):
        n = rng.randint(1, 6)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        if i % 3 == 1:
            # one row an integer combination of the others: singular
            r = rng.randrange(n)
            m[r] = [sum(rng.randint(-2, 2) * m[t][c] for t in range(n) if t != r)
                    for c in range(n)]
        elif i % 3 == 2:
            # strictly upper triangular, conjugated by elementary integer
            # matrices I + c e_ab: nilpotent, det(x I - m) = x^n
            m = [[x if b > a else 0 for b, x in enumerate(row)]
                 for a, row in enumerate(m)]
            for _ in range(2 * n if n > 1 else 0):
                a, b = rng.sample(range(n), 2)
                c = rng.randint(-2, 2)
                m[a] = [x + c * y for x, y in zip(m[a], m[b])]
                for row in m:
                    row[b] -= c * row[a]
        got = char_poly(m)
        assert all(type(c) is int for c in got), m
        assert Poly(tuple(got)) == cofactor_char_poly(m), m
        kinds["singular" if got[0] == 0 else "regular"] += 1
        kinds["nilpotent"] += got == [0] * n + [1]
    assert min(kinds.values()) >= 90, kinds


def test_kernel_pair_ordering_matches_hnf(fixture_polytopes):
    # the witness is the first face-respecting bijection sigma, in the order
    # the oracles' combinatorial_bijections yields them, with
    # ker(Q o sigma) == ker(P) by the HNF of the reordered vertex matrix; no
    # such sigma gives no witness
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
    """The GL(n,Z) map of the oracles' ``lattice_isomorphism``, which solves
    on a vertex basis by an integer adjugate, through a Fraction inverse
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
        order = rng.sample(range(k), k)
        shuffled = LatticePolytope(3, tuple(r.polytope.vertices[i] for i in order))
        pairs.append((shuffled, r.polytope))
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
