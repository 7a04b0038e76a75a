"""Reference implementations that the tests compare the package with.

Each is independent of the engine it checks:

- ``zero_sum_exponents``, a depth-first search over every exponent
  coordinate, against the kernel-lattice walk of ``hwmt.hasse_witt``: its
  runs expanded into vectors by ``kernel_points``, and its runs folded
  into weights mod p and into exact multinomial sums;
- ``member_terms``, the vertex pencil member at psi written out as
  (exponent, coefficient) terms, the input of the constant-term checks;
- ``pochhammer_mod_p`` and ``_series_term``, the term by term series,
  against the one-pass ``hwmt.hypergeometric.truncated_pFq``;
- ``argument_at``, a pFq argument c * psi^e evaluated in Fractions,
  against the integer smoothness tests of ``hwmt.families``;
- ``series_square``, the Cauchy square that states Clausen's identity over
  Q;
- ``hnf_facets`` and ``hnf_polytope``, facets by an HNF left kernel per
  vertex subset, against the cofactor normals of ``hwmt.polytope.facets``
  and the facets a polar dual inherits;
- ``poly_product`` and ``evaluate``, the schoolbook product and Horner
  evaluation of polynomials and rational functions, and the rest of the
  arithmetic on Fraction polynomials (``poly_degree``, ``poly_sum``,
  ``poly_times``, ``poly_divmod``, ``poly_gcd``, ``poly_scale_variable``,
  ``poly_power_substitute`` and ``poly_reversed_to``), which
  ``hwmt.ratfunc`` leaves out: its maps on integer coefficients are
  checked against Euclid on polynomials built here, its integer Euclid
  against Euclid over Q, and the Picard-Fuchs tests evaluate the systems'
  entries pointwise;
- ``cofactor_char_poly``, the characteristic polynomial by cofactor
  expansion, against the Faddeev-LeVerrier ``hwmt.intlinalg.char_poly``
  and the integer polynomial that ``hwmt.picard_fuchs`` searches;
- ``adjugate_det``, the adjugate by cofactors, for the lattice maps below;
- ``frac_rank``, the rank over Q, against the vertex checks of
  ``hwmt.polytope`` and the kernels and Hermite forms of
  ``hwmt.intlinalg``;
- the backtracking bijection search, against the relations that
  ``hwmt.polytope`` decides and witnesses by canonical vertex orders;
- ``tuple_canonical_orders`` and ``min_order_normal_form``, the canonical
  order search with tuple rows built from the facets and the least HNF
  over every canonical order, against the packed search, the inherited
  pairing matrix of a polar dual and the one-HNF normal form of a
  saturated reflexive polytope;
- ``P1_X_P1``, the Cox grading of P1 x P1 on (x0, x1, y0, y1), which the
  point-count tests pass to ``hwmt.point_count.count_graded``.

A vertex bijection of P onto Q is face-respecting when it maps the facet
family of P onto that of Q.  The search yields those bijections in
lexicographic order; the kernel pairs are the ones for which every basis
row of ker(P) annihilates the reordered vertices of Q, and a lattice
isomorphism is the first of them whose map on a vertex basis is integral
and unimodular.  Nothing here reads the package's pairing matrix or normal
form.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from typing import Iterator, Optional, Tuple

from hwmt.errors import (
    BadDenominator,
    DegeneratePolytope,
    DegreeTooSmall,
    NotAPowerFunction,
    ZeroDenominator,
)
from hwmt.hasse_witt import _kernel_plan, _kernel_runs
from hwmt.hypergeometric import HypergeometricData, require_prime
from hwmt.intlinalg import det, hnf_rows, left_kernel, vec_primitive
from hwmt.ratfunc import Poly, RatFunc
from hwmt.polytope import (
    CACHE_SIZE,
    FacetInequality,
    LatticePolytope,
    _require_reflexive,
    facets,
    polar_dual,
    vertex_facet_sets,
    vertex_kernel,
)

P1_X_P1 = ((1, 1, 0, 0), (0, 0, 1, 1))


def member_terms(delta, psi):
    """(exponent, coefficient) terms of the vertex pencil member at psi:
    the polar dual's vertices with coefficient 1, then psi on the origin."""
    terms = [(m, Fraction(1)) for m in polar_dual(delta).vertices]
    return terms + [((0,) * delta.dim, Fraction(psi))]


def zero_sum_exponents(exponents, e):
    """Yield all nonnegative integer vectors a with sum(a) = e and
    sum_i a_i * exponents[i] = 0.

    Reference enumerator for the runs of ``hwmt.hasse_witt._kernel_runs``.
    The search fixes a_i coordinate by coordinate; a branch survives only
    while each lattice coordinate of the running sum can still be pulled
    back to zero by the remaining budget.
    """
    k = len(exponents)
    if k == 0:
        return
    n = len(exponents[0])
    # per-coordinate min/max over the suffix of terms i..k-1
    lo_suffix = [None] * k
    hi_suffix = [None] * k
    lo_suffix[k - 1] = list(exponents[k - 1])
    hi_suffix[k - 1] = list(exponents[k - 1])
    for i in range(k - 2, -1, -1):
        lo_suffix[i] = [
            min(exponents[i][c], lo_suffix[i + 1][c]) for c in range(n)
        ]
        hi_suffix[i] = [
            max(exponents[i][c], hi_suffix[i + 1][c]) for c in range(n)
        ]

    a = [0] * k
    partial = [0] * n

    def rec(i, budget):
        if i == k - 1:
            for c in range(n):
                if partial[c] + budget * exponents[i][c] != 0:
                    return
            a[i] = budget
            yield tuple(a)
            a[i] = 0
            return
        w = exponents[i]
        for ai in range(budget + 1):
            rem = budget - ai
            ok = True
            for c in range(n):
                s = partial[c] + ai * w[c]
                if s + rem * lo_suffix[i + 1][c] > 0 or s + rem * hi_suffix[i + 1][c] < 0:
                    ok = False
                    break
            if ok:
                a[i] = ai
                for c in range(n):
                    partial[c] += ai * w[c]
                yield from rec(i + 1, rem)
                for c in range(n):
                    partial[c] -= ai * w[c]
                a[i] = 0

    yield from rec(0, e)


def kernel_points(exps, e):
    """Every nonnegative integer vector a with sum_i a_i exps[i] = 0 and
    sum(a) <= e, as a list of tuples: the runs of the walk, expanded, for
    comparison with ``zero_sum_exponents``."""
    plan = _kernel_plan(tuple(exps))
    where = [0] * len(exps)  # a[j] = (prefix + varying values)[where[j]]
    for s, j in enumerate(plan.fixed + plan.varying):
        where[j] = s
    out = []
    for prefix, count, starts in _kernel_runs(plan, e):
        for i in range(count):
            vals = prefix + [v + i * inc for v, inc in zip(starts, plan.incs)]
            out.append(tuple(vals[s] for s in where))
    return out


def pochhammer_mod_p(a, n: int, p: int) -> int:
    """(a)_n = a (a+1) ... (a+n-1) mod p for rational a = r/s with p not
    dividing s."""
    require_prime(p)
    a = Fraction(a)
    r, s = a.numerator, a.denominator
    if s % p == 0:
        raise BadDenominator(f"parameter {a} has denominator divisible by {p}")
    prod = 1
    for j in range(n):
        prod = prod * (r + j * s) % p
    return prod * pow(s, -n, p) % p


def _series_term(data: HypergeometricData, n: int, z: int, p: int,
                 factorials) -> int:
    # beyond degree p-1 the n! in the denominator is not invertible, so the
    # term must never be evaluated silently
    if n >= p:
        raise ValueError(f"term {n} requested beyond truncation at {p - 1}")
    num = 1
    for a in data.numerators:
        num = num * pochhammer_mod_p(a, n, p) % p
    den = factorials[n]
    for b in data.denominators:
        den = den * pochhammer_mod_p(b, n, p) % p
    if den == 0:
        raise BadDenominator(
            f"lower-parameter Pochhammer vanishes mod {p} at term {n}"
        )
    return num * pow(den, -1, p) * pow(z, n, p) % p


def argument_at(data: HypergeometricData, psi) -> Fraction:
    """The argument c * psi^e of a pFq at psi."""
    c, e = data.argument
    return c * Fraction(psi) ** e


def series_square(coeffs):
    """Cauchy square of a truncated power series."""
    n = len(coeffs)
    return [
        sum(coeffs[i] * coeffs[k - i] for i in range(k + 1)) for k in range(n)
    ]


def hnf_facets(dim, vertices):
    """All facet inequalities of the polytope with these vertices, each with
    primitive normal: the normal of every hyperplane through dim vertices
    is the HNF left kernel of its edge vectors, and the supporting ones are
    kept."""
    n = dim
    verts = vertices
    if n == 1:
        lo = min(v[0] for v in verts)
        hi = max(v[0] for v in verts)
        return (FacetInequality((-1,), hi), FacetInequality((1,), -lo))
    seen = {}
    for sub in combinations(range(len(verts)), n):
        base = verts[sub[0]]
        diffs = [tuple(verts[i][j] - base[j] for j in range(n)) for i in sub[1:]]
        normals = left_kernel(tuple(zip(*diffs))) if diffs else ()
        if len(normals) != 1:
            continue
        normal = vec_primitive(normals[0])
        c = sum(normal[j] * base[j] for j in range(n))
        vals = [sum(normal[j] * v[j] for j in range(n)) for v in verts]
        if all(val >= c for val in vals):
            pass
        elif all(val <= c for val in vals):
            normal = tuple(-x for x in normal)
            c = -c
        else:
            continue
        seen[(normal, c)] = FacetInequality(normal, -c)
    return tuple(sorted(seen.values(), key=lambda f: (f.normal, f.offset)))


def hnf_polytope(dim, points):
    """(facets, vertex-facet sets) of the listed points by ``hnf_facets``,
    or the DegeneratePolytope that ``LatticePolytope(dim, points)`` raises:
    duplicates, a rank below dim, or a point that the facets through it do
    not pin down."""
    if len(set(points)) != len(points):
        raise DegeneratePolytope("duplicate vertices")
    if len(hnf_rows([[x - y for x, y in zip(v, points[0])] for v in points[1:]])) < dim:
        raise DegeneratePolytope("vertex list is not full-dimensional")
    fts = hnf_facets(dim, points)
    fsets = tuple(
        frozenset(i for i, v in enumerate(points)
                  if sum(a * x for a, x in zip(f.normal, v)) == -f.offset)
        for f in fts
    )
    for i, v in enumerate(points):
        through = [f for f in fsets if i in f]
        if [j for j in range(len(points)) if all(j in f for f in through)] != [i]:
            raise DegeneratePolytope(f"point {v} is not a vertex")
    return fts, fsets


def poly_product(p: Poly, q: Poly) -> Poly:
    """p * q by the schoolbook convolution of the coefficients."""
    out = [Fraction(0)] * max(len(p.coeffs) + len(q.coeffs) - 1, 0)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return Poly(tuple(out))


def poly_degree(p: Poly) -> int:
    """The degree of p, -1 for the zero polynomial."""
    return len(p.coeffs) - 1


def poly_sum(p: Poly, q: Poly) -> Poly:
    """p + q."""
    a, b = p.coeffs, q.coeffs
    return Poly(tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                      for i in range(max(len(a), len(b)))))


def poly_times(p: Poly, c) -> Poly:
    """p * c for a number c."""
    return Poly(tuple(a * c for a in p.coeffs))


def poly_divmod(p: Poly, q: Poly):
    """(quotient, remainder) of p by q over Q, by long division."""
    if q.is_zero():
        raise ZeroDenominator("polynomial division by zero")
    rem = list(p.coeffs)
    quot = [Fraction(0)] * max(len(rem) - len(q.coeffs) + 1, 0)
    d = q.coeffs
    while len(rem) >= len(d) and any(rem):
        if rem[-1] == 0:
            rem.pop()
            continue
        shift = len(rem) - len(d)
        c = rem[-1] / d[-1]
        quot[shift] = c
        for i, b in enumerate(d):
            rem[shift + i] -= c * b
        rem.pop()
    return Poly(tuple(quot)), Poly(tuple(rem))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """The monic gcd of p and q over Q by Euclid's algorithm (0 for two
    zeros)."""
    while not q.is_zero():
        p, q = q, poly_divmod(p, q)[1]
    return p if p.is_zero() else poly_times(p, 1 / p.coeffs[-1])


def poly_scale_variable(p: Poly, c) -> Poly:
    """p(c*t)."""
    c = Fraction(c)
    return Poly(tuple(a * c**i for i, a in enumerate(p.coeffs)))


def poly_power_substitute(p: Poly, k: int) -> Poly:
    """q with p = q(t^k); NotAPowerFunction if there is none."""
    if any(c and i % k for i, c in enumerate(p.coeffs)):
        raise NotAPowerFunction(f"{p} is not a polynomial in t^{k}")
    return Poly(p.coeffs[::k])


def poly_reversed_to(p: Poly, degree: int) -> Poly:
    """t^degree * p(1/t); degree must be >= deg p."""
    if degree < poly_degree(p):
        raise DegreeTooSmall(f"cannot reverse {p} to degree {degree}")
    return Poly((Fraction(0),) * (degree - poly_degree(p)) + p.coeffs[::-1])


def evaluate(f, x) -> Fraction:
    """f(x) for a Poly or a RatFunc f, by Horner's rule; a RatFunc at a
    pole raises ZeroDivisionError."""
    if isinstance(f, RatFunc):
        return evaluate(f.num, x) / evaluate(f.den, x)
    total = Fraction(0)
    for c in reversed(f.coeffs):
        total = total * x + c
    return total


def cofactor_char_poly(matrix) -> Poly:
    """det(x I - A) for a matrix of Fractions, as a Poly in x, by cofactor
    expansion along the first row over Poly entries (n! products)."""
    n = len(matrix)
    entries = [
        [Poly.of(-matrix[i][j]) if i != j else Poly.of(-matrix[i][j], 1)
         for j in range(n)]
        for i in range(n)
    ]

    def det(rows, cols):
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        total = Poly(())
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = poly_product(entries[rows[0]][c], minor)
            total = poly_sum(total, term if k % 2 == 0 else poly_times(term, -1))
        return total

    # det of the 0 x 0 matrix is the empty product 1
    return det(tuple(range(n)), tuple(range(n))) if n else Poly.of(1)


def adjugate_det(m):
    """(adj(m), det(m)) of a square integer matrix, in integers.

    adj(m) @ m == m @ adj(m) == det(m) * I, singular m included; so m is
    invertible over Z exactly when det(m) is +-1, and adj(m) @ b is
    divisible by det(m) exactly when m^-1 @ b is integral.  Each cofactor is
    a Bareiss determinant.
    """
    n = len(m)
    adj = tuple(
        tuple(
            (-1) ** (i + j)
            * det([r[:i] + r[i + 1:] for t, r in enumerate(m) if t != j])
            for j in range(n)
        )
        for i in range(n)
    )
    return adj, det(m)


def frac_rank(rows):
    """Rank over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            c = m[r][col] / m[rank][col]
            m[r] = [x - c * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


@lru_cache(maxsize=CACHE_SIZE)
def _incidence(p: LatticePolytope):
    """Vertex-facet incidence laid out for the bijection search: each
    vertex's degree (the sorted sizes of its facets), the set of facets as
    vertex bitmasks, and for each vertex the facets whose highest-index
    vertex it is."""
    fsets = vertex_facet_sets(p)
    degrees = tuple(
        tuple(sorted(len(f) for f in fsets if i in f)) for i in range(p.nvertices)
    )
    masks = frozenset(sum(1 << v for v in f) for f in fsets)
    closing = tuple(
        tuple(tuple(f) for f in fsets if max(f) == i) for i in range(p.nvertices)
    )
    return degrees, masks, closing


def combinatorial_bijections(
    p: LatticePolytope, q: LatticePolytope
) -> Iterator[Tuple[int, ...]]:
    """Yield every vertex bijection inducing a face-lattice isomorphism, in
    lexicographic order.

    For polytopes the face lattice is determined by vertex-facet incidence,
    so a bijection qualifies iff it maps the facet family of p onto that
    of q.  Backtracking over the vertices of p in index order, each tried
    only on vertices of q of the same degree; a facet of p is checked once,
    when its highest-index vertex is assigned.  Once every facet lands on a
    facet of q the families are equal: sigma is injective and both have
    the same number of facets.
    """
    k = p.nvertices
    if k != q.nvertices:
        return
    pdeg, _, closing = _incidence(p)
    qdeg, qmasks, _ = _incidence(q)
    # equal degree multisets give equal numbers of facets of each size
    if sorted(pdeg) != sorted(qdeg):
        return
    options = [[j for j in range(k) if qdeg[j] == d] for d in pdeg]
    sigma = [0] * k
    bits = [0] * k  # bits[v] = 1 << sigma[v]
    used = [False] * k

    def extend(i):
        if i == k:
            yield tuple(sigma)
            return
        for j in options[i]:
            if used[j]:
                continue
            sigma[i], bits[i] = j, 1 << j
            for f in closing[i]:
                image = 0
                for v in f:
                    image |= bits[v]
                if image not in qmasks:
                    break
            else:
                used[j] = True
                yield from extend(i + 1)
                used[j] = False

    yield from extend(0)


def combinatorially_equivalent(
    p: LatticePolytope, q: LatticePolytope
) -> Optional[Tuple[int, ...]]:
    """A face-lattice-respecting vertex bijection, or None."""
    return next(combinatorial_bijections(p, q), None)


def _kernel_bijections(
    p: LatticePolytope, q: LatticePolytope
) -> Iterator[Tuple[int, ...]]:
    """Yield, in lexicographic order, each face-respecting vertex bijection
    sigma for which every basis row of ker(P) annihilates Q o sigma.

    For P of rank n that says Q o sigma = P @ U for a rational U; for
    reflexive P and Q it says ker(Q o sigma) == ker(P).  The test is sound
    only between vertex sets of equal dimension, so pairs of different
    dimension or vertex count yield nothing.
    """
    if p.dim != q.dim or p.nvertices != q.nvertices:
        return
    kp = vertex_kernel(p).basis
    for sigma in combinatorial_bijections(p, q):
        image = [q.vertices[j] for j in sigma]
        if all(
            sum(a * v[c] for a, v in zip(row, image) if a) == 0
            for row in kp
            for c in range(p.dim)
        ):
            yield sigma


def is_kernel_pair(
    p: LatticePolytope, q: LatticePolytope
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Decide whether p and q are a kernel pair; return a witness bijection.

    True iff p and q are combinatorially equivalent and some face-respecting
    vertex bijection sigma makes the vertex-matrix kernels equal as
    submodules of Z^k; the witness is the first such sigma in
    lexicographic order.
    """
    _require_reflexive(p)
    _require_reflexive(q)
    sigma = next(_kernel_bijections(p, q), None)
    return sigma is not None, sigma


def lattice_isomorphism(
    p: LatticePolytope, q: LatticePolytope
) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """A GL(n,Z) matrix U with v @ U mapping vertices(p) onto vertices(q),
    compatibly with some face-lattice bijection; None if there is none."""
    n = p.dim
    kp = vertex_kernel(p).basis
    # a kernel vector vanishing on every pivot column is zero, so the
    # vertices on the other n columns are a basis
    pivots = {next(j for j, x in enumerate(row) if x) for row in kp}
    base = [i for i in range(p.nvertices) if i not in pivots]
    # U = M_p^-1 @ M_q on that vertex basis of p; M_p^-1 = adj / det
    adj, d = adjugate_det(tuple(p.vertices[i] for i in base))
    for sigma in _kernel_bijections(p, q):
        m_q = tuple(q.vertices[sigma[i]] for i in base)
        u = [
            [sum(adj[r][t] * m_q[t][c] for t in range(n)) for c in range(n)]
            for r in range(n)
        ]
        if any(x % d for row in u for x in row):
            continue
        uint = tuple(tuple(x // d for x in row) for row in u)
        if abs(det(uint)) == 1:
            return uint
    return None


def pairing_rows(p: LatticePolytope):
    """The pairing matrix of p from its facets: the row of facet F holds
    <n_F, v> + offset_F for each vertex v in order."""
    return tuple(
        tuple(sum(a * x for a, x in zip(f.normal, v)) + f.offset for v in p.vertices)
        for f in facets(p)
    )


def tuple_canonical_orders(p: LatticePolytope):
    """(code, orders) of p by the level-by-level search with tuple rows:
    at each length keep every vertex-order prefix whose descending-sorted
    facet rows are lexicographically greatest."""
    k = p.nvertices
    pairing = pairing_rows(p)
    level = [((), [()] * len(pairing))]
    for _ in range(k):
        best, survivors = None, []
        for order, rows in level:
            for v in range(k):
                if v in order:
                    continue
                ext = [r + (f[v],) for r, f in zip(rows, pairing)]
                code = sorted(ext, reverse=True)
                if best is None or code > best:
                    best, survivors = code, []
                if code == best:
                    survivors.append((order + (v,), ext))
        level = survivors
    return tuple(best), tuple(order for order, _ in level)


def min_order_normal_form(p: LatticePolytope):
    """(dim, code, vertex part) with the vertex part the least row HNF of
    the transposed vertex matrix over every canonical order."""
    code, orders = tuple_canonical_orders(p)
    verts = min(hnf_rows(tuple(zip(*(p.vertices[i] for i in order))))
                for order in orders)
    return p.dim, code, verts
