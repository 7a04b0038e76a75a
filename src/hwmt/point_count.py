"""Exact point counts over F_p for the pencil ambient models.

One counter, `count_graded`, takes a polynomial F and a grading: integer
rows, the characters of a torus acting on affine space.  For a family
model the grading is its polytope's vertex kernel, the Cox grading of the
toric variety (Cox, alg-geom/9210008), and the quotient is the printed
ambient.  The grading is countable when every variable has a positive
weight in exactly one row: the quotient is then a product of weighted
projective spaces, one per row's block of variables (P^3, P(3,1,1,1) and
P1 x P1 among the families).  Its points are the affine zeros that are
nonzero in every block, divided by (p-1)^rows, and `count_graded` picks
one of two exact routes from the grading and the shape of F itself, never
from a family name:

* Character sums.  When there is one row and F = sum_i a_i x_i^(d_i) +
  c prod_i x_i^(e_i), with one pure power per variable, one further
  monomial in every variable and nothing else (the quartic and sextic
  models), `_character_sum_zeros` expands the additive character of t F in
  multiplicative characters (Koblitz, Compositio 1983): the count is (p^n
  + a sum over t != 0 of Gauss sums times one length-(p-1) transform per
  variable) / p.  Points with a zero coordinate contribute prod(1 + S_i) -
  prod S_i.  The sums are taken in F_q for the least prime q = 1 mod
  p(p-1) above p^n, which holds the p-th and (p-1)-th roots of unity; the
  count lies in [0, p^n], so its residue mod q is the count itself.  Cost
  O(n p^2) instead of a scan.
* Stratified scan.  Every other input goes through `_stratified_count`,
  which visits each point of the quotient once.  In each block the points
  are split by their first nonzero coordinate x_i: the coordinates before
  it are 0, those after it are free, and x_i runs over gcd(w_i, p-1) coset
  representatives of the w_i-th powers in F_p^*, onto which the torus
  moves every other value.  A stratum's points are its zeros divided by
  the product of those gcds, which is exactly its nonzero affine zeros
  divided by (p-1)^rows.  `_fibered_zeros` counts the zeros: fix every
  free coordinate but the last, read off the univariate polynomial that F
  becomes in the last one, and add its number of roots.  A fiber of
  degree <= 2 is solved in closed form (a Legendre-symbol lookup on the
  discriminant, p odd), a higher one by evaluating it at every value of
  the last coordinate, and only those root counts are cached, by the
  polynomial's reduced coefficient tuple.  In n variables of one row the
  strata visit about p^(n-2) prefixes, and P1 x P1 costs p + 2 fibers and
  one point.  One power table, a machine-integer column per exponent
  built by running products, and one Legendre table of bytes serve every
  stratum of a count.

Work is bounded before it starts: `BudgetExceeded` when the strata would
take more than `FIBERED_PREFIX_BUDGET` steps (one per prefix, p per prefix
whose fiber may have degree above 2 and is solved by evaluation), or a
character sum would cost more than `CHARACTER_SUM_BUDGET` (n p^2 steps, or
the sqrt(p^n) trial divisions that find q).
"""

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product, repeat
from math import gcd, isqrt, lcm
from operator import mul

from .errors import (
    BudgetExceeded,
    NonHomogeneous,
    NonIntegerOrbitSum,
    SingularMember,
    UncountableAmbient,
)
from .families import get_family
from .hypergeometric import (
    frac_mod,
    is_prime,
    rational,
    require_prime,
    require_psi_mod_p,
    truncated_pFq,
)
from .polytope import vertex_kernel

# At its bound a stratified scan runs for about half a minute (a prefix with
# a fiber of degree <= 2 costs about 2 us, one of higher degree p evaluations
# of about 1 us) and a character sum for about 1.5 s (the quartic at
# p = 1579).
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


def _tables(p, top):
    """(powers, legendre): powers[e][v] = v^e mod p for e <= top, one
    machine-integer column per exponent built by running products, and
    legendre[v], the Legendre symbol (v/p), an array of bytes: neither
    holds a Python int per entry."""
    powers = [array("q", [1]) * p]
    for _ in range(top):
        powers.append(array("q", map(
            int.__mod__, map(mul, powers[-1], range(p)), repeat(p))))
    legendre = array("b", [-1]) * p
    for v in range(1, p // 2 + 1):
        legendre[v * v % p] = 1
    legendre[0] = 0
    return powers, legendre


def _fibered_zeros(poly, prefixes, powers, legendre):
    """#{(x, t) : x in prefixes, t in F_p, F(x, t) = 0} for reduced F,
    where t is the last variable; `powers` must reach F's largest
    exponent.

    The monomials are grouped by their exponent of t; evaluating each group
    at x gives the coefficients of the fiber polynomial in t.  A fiber of
    degree <= 2 is solved in closed form: p roots when it is zero, none when
    it is a nonzero constant, one when linear, and 1 + the Legendre symbol
    of the discriminant when quadratic (p odd).  A higher one is solved by
    p evaluations and its root count cached by the coefficient tuple for
    the rest of the call, so the cache grows with the scanning work, not
    with the prefixes.
    """
    p = len(powers[0])
    groups = [[] for _ in range(1 + max((e[-1] for _, e in poly), default=0))]
    for c, exps in poly:
        mono = tuple((powers[e], i) for i, e in enumerate(exps[:-1]) if e)
        groups[exps[-1]].append((c, mono))
    roots = {}
    total = 0
    for x in prefixes:
        coeffs = []
        for group in groups:
            s = 0
            for c, mono in group:
                for column, i in mono:
                    c *= column[x[i]]
                s += c
            coeffs.append(s % p)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        top = len(coeffs) - 1
        if top > 2 or (top == 2 and p == 2):
            key = tuple(coeffs)
            n = roots.get(key)
            if n is None:
                n = roots[key] = sum(1 for row in zip(*powers[:len(key)])
                                     if sum(map(mul, key, row)) % p == 0)
        elif top == 2:
            c, b, a = coeffs
            n = 1 + legendre[(b * b - 4 * a * c) % p]
        else:
            n = top if top >= 0 else p
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


def _orbits(zeros, size):
    """zeros / size, the points that `zeros` affine solutions make when the
    torus moves `size` of them onto each point."""
    if zeros % size:
        raise NonIntegerOrbitSum(
            f"affine solution count {zeros} not divisible by {size}"
        )
    return zeros // size


def _blocks(grading):
    """Each row's support as [(variable, weight)], when every variable has
    a positive weight in exactly one row; else `UncountableAmbient`."""
    blocks = [[(i, w) for i, w in enumerate(row) if w] for row in grading]
    owned = sorted(i for block in blocks for i, _ in block)
    if not (blocks and all(blocks) and owned == list(range(len(grading[0])))
            and min(w for block in blocks for _, w in block) > 0):
        raise UncountableAmbient(f"no point count for the grading {grading}")
    return blocks


def _restrict(poly, values, free, powers):
    """F with each variable in `values` set to its value, as reduced
    [(coeff, exponents of the free variables)] with like terms merged."""
    p = len(powers[0])
    merged = {}
    for c, exps in poly:
        for i, v in values.items():
            c = c * powers[exps[i]][v] % p
        if c:
            key = tuple(exps[i] for i in free)
            merged[key] = (merged.get(key, 0) + c) % p
    return [(c, exps) for exps, c in merged.items() if c]


def _stratified_count(poly, blocks, p):
    """Points of {F = 0} in the product of the blocks' weighted projective
    spaces: per stratum, a first nonzero coordinate in every block."""
    primitive = _element_of_order(p - 1, p)
    strata = []
    for firsts in product(*(range(len(block)) for block in blocks)):
        values, free, cosets = {}, [], 1
        for block, k in zip(blocks, firsts):
            i, w = block[k]
            g = gcd(w, p - 1)
            values.update((j, (0,)) for j, _ in block[:k])
            values[i] = tuple(pow(primitive, r, p) for r in range(g))
            free += [j for j, _ in block[k + 1:]]
            cosets *= g
        strata.append((values, sorted(free), cosets))
    # a prefix whose fiber may exceed degree 2 counts p steps, one for each
    # evaluation of a new fiber
    _require_budget(sum(
        cosets * p ** (len(free) - 1)
        * (p if max((e[free[-1]] for _, e in poly), default=0) > 2 else 1)
        for _, free, cosets in strata if free
    ), FIBERED_PREFIX_BUDGET, "stratified scan")
    powers, legendre = _tables(p, max((max(e) for _, e in poly), default=0))
    total = 0
    for values, free, cosets in strata:
        zeros = 0
        for point in product(*values.values()):
            f = _restrict(poly, dict(zip(values, point)), free, powers)
            if free:
                prefixes = product(range(p), repeat=len(free) - 1)
                zeros += _fibered_zeros(f, prefixes, powers, legendre)
            else:
                zeros += not f
        total += _orbits(zeros, cosets)
    return total


def count_graded(poly, grading, p: int) -> int:
    """Points of {F = 0} over F_p in the quotient of affine space by the
    torus whose characters are the rows of `grading`.

    Every monomial of F must have one exponent per column of the grading
    and the same degree vector under the rows, else `NonHomogeneous`.  The
    grading must give every variable a positive weight in exactly one row,
    else `UncountableAmbient`: one row is a (weighted) projective space,
    the all-ones row plain projective space, and rows with disjoint
    supports a product of them, such as P1 x P1 on (x0, x1, y0, y1) by
    ((1, 1, 0, 0), (0, 0, 1, 1)).

    After dividing the weights on the support of a point by their gcd, the
    scaling acts freely on rational points, and every stable geometric
    orbit carries exactly p-1 of them (the torsor is trivial by Hilbert
    90), so the count is the number of affine zeros that are nonzero in
    every block, divided by (p-1)^rows, for every weight.  In particular
    the ambient count always equals that of the straight product of
    projective spaces, which a stabilizer-weighted orbit formula would miss
    whenever gcd(p-1, w_i) > 1.  A one-row diagonal-plus-monomial F is
    counted by character sums on the whole cone; every other input by one
    stratified scan that visits each point once.
    """
    require_prime(p)
    grading = tuple(tuple(row) for row in grading)
    poly = _reduce_poly(poly, p)
    nvars = {len(row) for row in grading} | {len(exps) for _, exps in poly}
    if len(nvars) > 1:
        raise NonHomogeneous(
            f"monomials and grading rows have {sorted(nvars)} variables"
        )
    degrees = {
        tuple(sum(w * e for w, e in zip(row, exps)) for row in grading)
        for _, exps in poly
    }
    if len(degrees) > 1:
        raise NonHomogeneous(
            f"degrees {sorted(degrees)} differ for the grading {grading}"
        )
    blocks = _blocks(grading)
    n = len(grading[0])
    shape = _diagonal_shape(poly, n) if len(blocks) == 1 else None
    if shape is None:
        return _stratified_count(poly, blocks, p)
    _require_budget(max(n * p * p, isqrt(p**n)),
                    CHARACTER_SUM_BUDGET, "character sum")
    # the diagonal shape has no constant term, so the origin is a zero
    return _orbits(_character_sum_zeros(*shape, p) - 1, p - 1)


def count_family(family, psi, p: int) -> CountResult:
    """Exact point count of the family's printed ambient model at psi,
    graded by its polytope's vertex kernel."""
    fam = get_family(family)
    psi = rational(psi)
    if fam.model is None:
        raise UncountableAmbient(
            f"family {fam.name} has no countable ambient model; use the "
            "Hasse-Witt truncation check instead"
        )
    grading = vertex_kernel(fam.polytope).basis
    count = count_graded(fam.model_polynomial(psi), grading, p)
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
    psi = rational(psi)
    if not fam.is_smooth_model(psi):
        raise SingularMember(
            f"{fam.name} printed model at psi = {psi} is singular"
        )
    require_psi_mod_p(psi, p)
    result = count_family(fam, psi, p)
    trunc = truncated_pFq(fam.model_hg, psi, p).value
    sign = -1 if (fam.polytope.dim - 1) % 2 else 1
    return (result.count % p == (1 + sign * trunc) % p, result.count, trunc)
