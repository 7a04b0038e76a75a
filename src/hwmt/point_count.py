"""Exact point counts over F_p for the pencil ambient models.

Every count goes through one fibered scan, `_fibered_zeros`: fix all
coordinates but the last, read off the univariate polynomial that F
becomes in the last one, and add its number of roots.  Root counts are
looked up by that polynomial's reduced coefficient tuple, so a fiber met
before costs one dict lookup and a new one is solved by evaluating it at
every value of the last coordinate.  For the quartic the fiber polynomial
is x3^4 + b*x3 + c, so at most p^2 fibers are ever solved.  The scan visits
about p^n prefixes instead of p^(n+1) points, and every count stays exact.

Projective and weighted projective counts divide the nonzero affine zeros
by p-1; the biprojective count scans the chart y0 = 1 and then the points
with y0 = 0 as a projective line; the torus count reduces exponents mod
p-1 and scans units only.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    NonBihomogeneous,
    NonHomogeneous,
    NonIntegerOrbitSum,
    NonWeightedHomogeneous,
    SingularMember,
    UncountableAmbient,
)
from .families import get_family
from .hypergeometric import frac_mod, require_prime, require_psi_mod_p, truncated_pFq
from .pencil import LaurentPolynomial


@dataclass(frozen=True)
class CountResult:
    model: str
    prime: int
    psi: Fraction
    count: int


def _reduce_poly(poly, p):
    """[(coeff, exps)] with coefficients mapped into F_p, zero terms kept
    out."""
    out = []
    for c, exps in poly:
        cm = frac_mod(Fraction(c), p)
        if cm:
            out.append((cm, tuple(exps)))
    return out


def _fibered_zeros(poly, prefixes, values, p):
    """#{(x, t) : x in prefixes, t in values, F(x, t) = 0} for reduced F,
    where t is the last variable.

    The monomials are grouped by their exponent of t; evaluating each group
    at x gives the coefficients of the fiber polynomial in t, whose root
    count is cached by that coefficient tuple for the rest of the call.
    """
    groups = {}
    for c, exps in poly:
        mono = tuple((i, e) for i, e in enumerate(exps[:-1]) if e)
        groups.setdefault(exps[-1], []).append((c, mono))
    degrees = tuple(groups)
    max_exp = max((e for _, exps in poly for e in exps), default=0)
    table = [[pow(v, e, p) for e in range(max_exp + 1)] for v in range(p)]
    roots = {}
    total = 0
    for x in prefixes:
        rows = [table[v] for v in x]
        coeffs = []
        for d in degrees:
            s = 0
            for c, mono in groups[d]:
                for i, e in mono:
                    c *= rows[i][e]
                s += c
            coeffs.append(s % p)
        key = tuple(coeffs)
        n = roots.get(key)
        if n is None:
            n = roots[key] = sum(
                1 for t in values
                if sum(c * table[t][d] for c, d in zip(key, degrees)) % p == 0
            )
        total += n
    return total


def _cone_count(poly, nvars, p):
    """Nonzero zeros of F in F_p^nvars divided by p-1: the points of the
    (weighted) projective quotient."""
    affine = _fibered_zeros(poly, product(range(p), repeat=nvars - 1),
                            range(p), p)
    if sum(c for c, exps in poly if not any(exps)) % p == 0:
        affine -= 1  # the origin is not a point
    if affine % (p - 1):
        raise NonIntegerOrbitSum(
            f"affine solution count {affine} not divisible by {p - 1}"
        )
    return affine // (p - 1)


def count_torus(f: LaurentPolynomial, p: int) -> int:
    """#{x in (F_p^*)^n : f(x) = 0}; on units x^(p-1) = 1, so exponents
    are taken mod p-1."""
    require_prime(p)
    poly = [(c, tuple(e % (p - 1) for e in exps))
            for c, exps in _reduce_poly(((c, e) for e, c in f.terms), p)]
    units = range(1, p)
    return _fibered_zeros(poly, product(units, repeat=f.n - 1), units, p)


def count_projective(poly, n: int, p: int) -> int:
    """Points of {F = 0} in P^n(F_p) for homogeneous F in n+1 variables."""
    require_prime(p)
    poly = _reduce_poly(poly, p)
    degs = {sum(exps) for _, exps in poly}
    if len(degs) > 1:
        raise NonHomogeneous(f"monomial degrees {sorted(degs)} differ")
    return _cone_count(poly, n + 1, p)


def count_weighted_projective(poly, weights, p: int) -> int:
    """Points of {F = 0} in the weighted projective space P(weights) over
    F_p, as Galois-stable orbits of the weighted scaling action.

    After dividing the weights on the support of a point by their gcd, the
    scaling acts freely on rational points, and every stable geometric
    orbit carries exactly p-1 of them (the torsor is trivial by Hilbert
    90), so the variety count is the affine solution count divided by p-1.
    In particular the ambient count always equals that of straight
    projective space, which a stabilizer-weighted orbit formula would
    miss whenever gcd(p-1, w_i) > 1.
    """
    require_prime(p)
    poly = _reduce_poly(poly, p)
    wdegs = {
        sum(w * e for w, e in zip(weights, exps)) for _, exps in poly
    }
    if len(wdegs) > 1:
        raise NonWeightedHomogeneous(
            f"weighted degrees {sorted(wdegs)} differ for weights {weights}"
        )
    return _cone_count(poly, len(weights), p)


def count_biprojective(poly, p: int) -> int:
    """Points of {F = 0} in P^1 x P^1 over F_p for bihomogeneous F in
    variables (x0, x1, y0, y1); the vertex pencil has bidegree (2,2)."""
    require_prime(p)
    poly = _reduce_poly(poly, p)
    bidegs = {(exps[0] + exps[1], exps[2] + exps[3]) for _, exps in poly}
    if len(bidegs) > 1:
        raise NonBihomogeneous(f"bidegrees {sorted(bidegs)} differ")
    line = [(1, t) for t in range(p)] + [(0, 1)]
    # y = (1, y1): fiber over y1 above each x on the line
    chart = _fibered_zeros(poly, [x + (1,) for x in line], range(p), p)
    # y = (0, 1): F(x0, x1, 0, 1) is homogeneous, count it on P^1
    at_infinity = [(c, exps[:2]) for c, exps in poly if exps[2] == 0]
    return chart + _cone_count(at_infinity, 2, p)


def count_family(family, psi, p: int) -> CountResult:
    """Brute-force count of the family's printed ambient model at psi."""
    fam = get_family(family)
    psi = Fraction(psi)
    if fam.model is None:
        raise UncountableAmbient(
            f"family {fam.name} has no countable ambient model; use the "
            "Hasse-Witt truncation check instead"
        )
    poly = fam.model_polynomial(psi)
    if fam.model == "biprojective":
        count = count_biprojective(poly, p)
    elif fam.model == "projective":
        count = count_projective(poly, len(fam.model_variables()) - 1, p)
    else:
        count = count_weighted_projective(poly, fam.model_weights(), p)
    return CountResult(fam.model, p, psi, count)


def congruence_check(family, psi, p: int):
    """Verify N == 1 + (-1)^m * [truncation] mod p for the family's printed
    model, where m is the dimension of a pencil member; returns
    (ok, count, truncation).

    The sign comes from Katz's congruence: the Hasse-Witt factor sits in
    H^m(X, O), so N == 1 + (-1)^m HW mod p.  For the K3 families m = 2 and
    the sign is +, as printed; for the elliptic-curve family m = 1 and the
    congruence is N == 1 - [truncation], which the point counts confirm
    (at p = 5, psi = 1 the curve has 10 points and the truncation is 1:
    10 == 1 - 1 mod 5, not 1 + 1).
    """
    fam = get_family(family)
    psi = Fraction(psi)
    if not fam.is_smooth_model(psi):
        raise SingularMember(
            f"{fam.name} printed model at psi = {psi} is singular"
        )
    require_psi_mod_p(psi, p)
    result = count_family(fam, psi, p)
    target = fam.model_hg if fam.model_hg is not None else fam.hg
    trunc = truncated_pFq(target, psi, p).value
    sign = -1 if (fam.polytope.dim - 1) % 2 else 1
    return (result.count % p == (1 + sign * trunc) % p, result.count, trunc)
