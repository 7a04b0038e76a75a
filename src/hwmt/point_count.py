"""Exact point counts over F_p for the pencil ambient models.

Every count reduces to the affine zeros of a polynomial F in n variables
over F_p, and `_cone_count` picks one of two exact routes from the shape
of F itself, never from a family name:

* Character sums.  When F = sum_i a_i x_i^(d_i) + c prod_i x_i^(e_i), with
  one pure power per variable, one further monomial in every variable and
  nothing else (the quartic and sextic models), `_character_sum_zeros`
  expands the additive character of t F in multiplicative characters
  (Koblitz, Compositio 1983): the count is (p^n + a sum over t != 0 of
  Gauss sums times one length-(p-1) transform per variable) / p.  Points
  with a zero coordinate contribute prod(1 + S_i) - prod S_i.  The sums are
  taken in F_q for the least prime q = 1 mod p(p-1) above p^n, which holds
  the p-th and (p-1)-th roots of unity; the count lies in [0, p^n], so its
  residue mod q is the count itself.  Cost O(n p^2) instead of p^(n-1)
  fibers.
* Fibered scan.  Every other input goes through `_fibered_zeros`: fix all
  coordinates but the last, read off the univariate polynomial that F
  becomes in the last one, and add its number of roots.  Root counts are
  cached by that polynomial's reduced coefficient tuple; a new fiber of
  degree <= 2 is solved in closed form (the discriminant and Euler's
  criterion, p odd), a higher one by evaluating it at every value of the
  last coordinate.  The scan visits p^(n-1) prefixes instead of p^n points.

Projective and weighted projective counts divide the nonzero affine zeros
by p-1; the biprojective count scans the chart y0 = 1, whose fibers in y1
have degree 2 for the P1 x P1 pencil, and then the points with y0 = 0 as a
projective line.

Work is bounded before it starts: `BudgetExceeded` when a fibered scan
would visit more than `FIBERED_PREFIX_BUDGET` prefixes, or a character sum
would cost more than `CHARACTER_SUM_BUDGET` (n p^2 steps, or the sqrt(p^n)
trial divisions that find q).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import gcd, isqrt, lcm

from .errors import (
    BudgetExceeded,
    NonBihomogeneous,
    NonHomogeneous,
    NonIntegerOrbitSum,
    NonWeightedHomogeneous,
    SingularMember,
    UncountableAmbient,
)
from .families import get_family
from .hypergeometric import (
    frac_mod,
    is_prime,
    require_prime,
    require_psi_mod_p,
    truncated_pFq,
)

# At its bound a fibered scan runs for about half a minute (a prefix costs
# about 3 us) and a character sum for about 1.5 s (the quartic at p = 1579).
FIBERED_PREFIX_BUDGET = 10**7
CHARACTER_SUM_BUDGET = 10**7


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


def _require_budget(work, bound, route):
    if work > bound:
        raise BudgetExceeded(
            f"{route} would take {work} steps, above its bound {bound}"
        )


def _root_count(coeffs, degrees, table, p):
    """#{t in F_p : sum_j coeffs[j] t^degrees[j] = 0}, for distinct
    degrees."""
    top = max((d for c, d in zip(coeffs, degrees) if c), default=-1)
    if top > 2 or (top == 2 and p == 2):
        return sum(
            1 for t in range(p)
            if sum(c * table[t][d] for c, d in zip(coeffs, degrees)) % p == 0
        )
    if top <= 0:
        return p if top < 0 else 0
    if top == 1:
        return 1
    a, b, c = (dict(zip(degrees, coeffs)).get(d, 0) for d in (2, 1, 0))
    disc = (b * b - 4 * a * c) % p
    return {0: 1, 1: 2}.get(pow(disc, (p - 1) // 2, p), 0)


def _fibered_zeros(poly, prefixes, p):
    """#{(x, t) : x in prefixes, t in F_p, F(x, t) = 0} for reduced F,
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
            n = roots[key] = _root_count(key, degrees, table, p)
        total += n
    return total


def _diagonal_shape(poly, nvars):
    """(a, d, c, e) when reduced F = sum_i a_i x_i^(d_i) + c prod_i
    x_i^(e_i) with every e_i >= 1 and nvars >= 2, else None."""
    if nvars < 2:
        return None
    pure, mixed = {}, None
    for coef, exps in poly:
        support = [i for i, k in enumerate(exps) if k]
        if len(support) == 1 and support[0] not in pure:
            pure[support[0]] = (coef, exps[support[0]])
        elif len(support) == nvars and mixed is None:
            mixed = (coef, exps)
        else:
            return None
    if len(pure) < nvars or mixed is None:
        return None
    a, d = zip(*(pure[i] for i in range(nvars)))
    return a, d, *mixed


def _prime_factors(m):
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + [m] if m > 1 else out


def _element_of_order(m, q):
    """An element of multiplicative order exactly m in F_q, for m | q - 1."""
    ells = _prime_factors(m)
    for x in range(1, q):
        w = pow(x, (q - 1) // m, q)
        if all(pow(w, m // ell, q) != 1 for ell in ells):
            return w


def _character_sum_zeros(a, d, c, e, p):
    """#{x in F_p^n : sum_i a_i x_i^(d_i) + c prod_i x_i^(e_i) = 0}.

    With psi(y) = zeta^y and chi_k(g^j) = omega^(jk) for a primitive root g,
      N = (p^n + sum_{t != 0} [prod(1 + S_i) - prod S_i
           + (1/(p-1)) sum_k g(chi_-k) chi_k(t c) prod_i H_i(t, chi_k)]) / p,
    H_i(t, chi) = sum_{x != 0} psi(t a_i x^(d_i)) chi^(e_i)(x) and S_i =
    H_i(t, chi_0).  Substituting x -> x g^-s gives H_i(t g^(d_i s), chi_k) =
    omega^(-k e_i s) H_i(t, chi_k), so each variable needs transforms only
    at its gcd(d_i, p-1) coset representatives t = g^r.
    """
    n, m = len(a), p - 1
    q = -(-p**n // (p * m)) * p * m + 1
    while not is_prime(q):
        q += p * m
    g = _element_of_order(m, p)
    zeta, omega = _element_of_order(p, q), _element_of_order(m, q)
    zpow = [pow(zeta, y, q) for y in range(p)]
    opow = [pow(omega, j, q) for j in range(m)]
    gpow = [pow(g, j, p) for j in range(m)]

    @cache
    def transform(u, dd):
        """[sum_{x != 0} psi(u x^dd) chi_f(x) for f < p-1]; psi(u g^(j dd))
        has period (p-1)/h in j, so only f = 0 mod h = gcd(dd, p-1)
        survive."""
        h = gcd(dd, m)
        seq = [zpow[u * gpow[j * dd % m] % p] for j in range(m // h)]
        out = [0] * m
        for f in range(0, m, h):
            out[f] = h * sum(v * opow[j * f % m]
                             for j, v in enumerate(seq)) % q
        return out

    gauss = transform(1, 1)
    hs = [gcd(di, m) for di in d]
    # s_i(t) for t = g^j, j = r_i mod h_i: (j - r_i)/h_i * (d_i/h_i)^-1
    inverses = [pow(di // h, -1, m // h) for di, h in zip(d, hs)]
    period = lcm(*hs)
    log_c = gpow.index(c)
    inv_m = pow(m, -1, q)
    total = 0
    for r in range(period):
        rows = [transform(ai * gpow[r % h] % p, di)
                for ai, di, h in zip(a, d, hs)]
        with_zero, all_units = 1, 1
        for row in rows:
            with_zero = with_zero * (1 + row[0]) % q
            all_units = all_units * row[0] % q
        coeffs = []
        for k in range(m):
            b = gauss[-k % m]
            for row, ei in zip(rows, e):
                b = b * row[k * ei % m] % q
            if b:
                coeffs.append((k, b))
        units = 0
        for j in range(r, m, period):
            shift = sum(ei * ((j - r % h) // h * inv % (m // h))
                        for ei, h, inv in zip(e, hs, inverses))
            dj = (j + log_c - shift) % m
            units += sum(b * opow[k * dj % m] for k, b in coeffs)
        total += (m // period) * (with_zero - all_units) + units % q * inv_m
    return (p**n + total) * pow(p, -1, q) % q


def _cone_count(poly, nvars, p):
    """Nonzero zeros of F in F_p^nvars divided by p-1: the points of the
    (weighted) projective quotient."""
    shape = _diagonal_shape(poly, nvars)
    if shape:
        _require_budget(max(nvars * p * p, isqrt(p**nvars)),
                        CHARACTER_SUM_BUDGET, "character sum")
        affine = _character_sum_zeros(*shape, p)
    else:
        _require_budget(p ** (nvars - 1), FIBERED_PREFIX_BUDGET, "fibered scan")
        affine = _fibered_zeros(poly, product(range(p), repeat=nvars - 1), p)
    if sum(c for c, exps in poly if not any(exps)) % p == 0:
        affine -= 1  # the origin is not a point
    if affine % (p - 1):
        raise NonIntegerOrbitSum(
            f"affine solution count {affine} not divisible by {p - 1}"
        )
    return affine // (p - 1)


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
    _require_budget(len(line), FIBERED_PREFIX_BUDGET, "fibered scan")
    # y = (1, y1): fiber over y1 above each x on the line
    chart = _fibered_zeros(poly, [x + (1,) for x in line], p)
    # y = (0, 1): F(x0, x1, 0, 1) is homogeneous, count it on P^1
    at_infinity = [(c, exps[:2]) for c, exps in poly if exps[2] == 0]
    return chart + _cone_count(at_infinity, 2, p)


def count_family(family, psi, p: int) -> CountResult:
    """Exact point count of the family's printed ambient model at psi."""
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
        count = count_projective(poly, fam.polytope.nvertices - 1, p)
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
    trunc = truncated_pFq(fam.model_hg, psi, p).value
    sign = -1 if (fam.polytope.dim - 1) % 2 else 1
    return (result.count % p == (1 + sign * trunc) % p, result.count, trunc)
