"""Exact lattice-polytope toolkit.

Polar duals, reflexivity, lattice-point enumeration, integer kernels of
vertex matrices, normal forms, and the kernel-pair predicates.  All
arithmetic is in integers; polytopes are immutable and hashable, so every
operation is safe to call concurrently.

Conventions: a polytope stores an ordered tuple of vertices (order is
significant -- the vertex-matrix kernel lives in Z^k indexed by that order).
A facet inequality <normal, x> >= -offset has a primitive integer normal.

``import hwmt`` runs this module, ``errors``, ``intlinalg`` and ``census``
and no other layer, so their value types import no ``dataclasses``, which
would bring ``inspect`` with it and cost about a third of importing hwmt
and loading the bundled fixtures: ``FacetInequality`` and ``KernelLattice``
are named tuples, and ``LatticePolytope`` is a plain class that computes
its hash once, for the per-polytope caches below to read.  The lazy layers
keep their dataclasses, which load only with them.

Facets and the pairing matrix are found once per duality pair.  The
pairing matrix M of P has the entry <n_F, v> + offset_F for facet F and
vertex v, rows in facet order.  For P the facets come from the hyperplanes
through dim vertices: the normal is the vector of signed maximal minors of
the dim-1 edge vectors, in closed form up to dimension 3 ((1,), (a2, -a1)
and the cross product) and by Bareiss determinants from dimension 4, with
no HNF.  A vertex subset already inside the tight set of a facet found
earlier is skipped, and the values of the vertices on a facet's
hyperplane, which decide that it is a facet, are also its row of M.  The
polar dual of a reflexive P inherits its facets, <v, w> >= -1 for the
vertices v of P, and M(P*) = M(P)^T: its rows follow the sorted vertices
of P, its facet order, and its columns follow the facets of P, its sorted
vertices.  So building and validating P*, its vertex-facet incidences and
its canonical orders compute no inner product.

Per-polytope results (facets and pairing matrix, lattice points,
vertex-facet incidences, vertex kernels, the polar dual, the canonical
vertex orders, the normal form and the kernel invariant) are memoized in
bounded caches of ``CACHE_SIZE`` entries, so a census builds each of them
once however many pairs it appears in.  The facets also validate a vertex list: it is
full-dimensional iff it has a facet and no facet is tight on every listed
point, and a listed point is a vertex iff the facets through it meet in
that point alone.

One normal form serves both equivalences (after PALP, Kreuzer-Skarke
math/0204356, and Grinis-Kasprzyk arXiv:1301.6641).  A level-by-level
search over vertex orders sigma keeps, at each length, every prefix whose
descending-sorted facet rows of M are lexicographically greatest; the
orders that survive are the canonical labelings, a coset of the
automorphisms of M, and the last sorted rows are the code: M up to row
order, with its columns in a canonical order.  The normal form is the
dimension, the code and the least row HNF of the transposed vertex matrix
of P o sigma over the canonical sigma.

- Equal normal forms is GL(n,Z) isomorphism, for any polytopes: a lattice
  map leaves M unchanged, so the canonical labelings correspond, and the
  HNF is the vertex matrix up to GL(n,Z).
- Equal (dim, code) is the kernel-pair relation, for reflexive P and Q.
  There every offset is 1 and the dual vertices N have rank n, so
  M = N V^T + J and ker(V) = ker(M - J): the code fixes the vertex kernel of
  P o sigma.  Conversely a bijection with ker(Q o sigma) = ker(P) gives
  Q o sigma = P @ U for a rational U, which sends facets at distance 1 to
  facets at distance 1 and so preserves M.
- One HNF suffices for a reflexive P whose first canonical order gives an
  HNF H with every pivot 1.  The row lattice L_sigma of the transposed
  vertex matrix of P o sigma lies in S_sigma, the integer vectors
  orthogonal to ker(P o sigma), with index the gcd of its maximal minors.
  The minor of H on its pivot columns is 1, so that first lattice is all
  of its S.  Every other L_sigma is it with permuted columns, so it has
  the same minors up to sign and is all of its S_sigma too; and for
  reflexive P the code fixes ker(P o sigma), so every S_sigma is the same.
  Every canonical order therefore gives the lattice of H.  Off reflexive
  polytopes the code does not fix the kernel, and the least HNF over the
  orders can be smaller than a first H with every pivot 1.

The canonical labelings also witness the kernel-pair relation.  If pi is
the first canonical order of P and tau runs over those of Q, the
bijections sigma with sigma(pi_i) = tau_i are exactly those under which
Q o sigma has the pairing matrix of P, and ``is_kernel_pair`` returns the
least of them.
"""

import operator
from functools import lru_cache
from itertools import combinations, product
from math import prod
from typing import NamedTuple, Optional, Tuple

from .errors import (
    BudgetExceeded,
    DegeneratePolytope,
    NonLatticeDual,
    NotInteriorOrigin,
    NotReflexive,
)
from .intlinalg import det, hnf_rows, left_kernel, vec_primitive

LatticePoint = Tuple[int, ...]

# entries in each per-polytope cache; a census of the bundled fixtures
# touches about 150 distinct polytopes and duals
CACHE_SIZE = 1024

# The most lattice points of its bounding box that ``lattice_points`` may
# enumerate over.  In a fresh process on a 2-vCPU machine with Python 3.11,
# a box at the bound full of points took 0.17-0.24 s and 114 MB peak RSS
# (a 1000 x 1000 square), and 0.22 s and 105 MB (a 100^3 cube); the
# triangle (s,0), (0,s), (-s,-s) at s = 1000 (a box of 4 * 10^6, 1.5 * 10^6
# points, 0.37 s and 178 MB) is refused.  The largest box of the bundled
# fixtures, the families and their polar duals holds 4,590.
LATTICE_BOX_BUDGET = 10**6


class FacetInequality(NamedTuple):
    """<normal, x> >= -offset, valid on the whole polytope, tight on a facet."""

    normal: LatticePoint
    offset: int


class KernelLattice(NamedTuple):
    """Integer kernel {a in Z^k : sum a_i v_i = 0} of a vertex matrix.

    The basis is the row Hermite normal form of any generating set, so two
    KernelLattice values are equal exactly when they are the same submodule
    of Z^k.
    """

    ambient_rank: int
    basis: Tuple[LatticePoint, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


class LatticePolytope:
    """Full-dimensional lattice polytope given by its ordered vertices.

    Immutable: assignment and deletion raise AttributeError.  Equality and
    the hash read (dim, vertices) and ignore id; the hash is computed once,
    as every per-polytope cache looks the polytope up by it.
    """

    # (facets, pairing matrix), set only by polar_dual: not an argument, so
    # no caller can pass facets that ``_pairing`` would then cache for every
    # equal polytope
    _known_pairing = None

    def __init__(self, dim: int, vertices: Tuple[LatticePoint, ...],
                 id: Optional[int] = None):
        try:
            dim = operator.index(dim)
        except TypeError:
            raise DegeneratePolytope(f"dim {dim!r} is not an integer") from None
        try:
            verts = tuple(tuple(map(_coordinate, v)) for v in vertices)
        except TypeError:
            raise DegeneratePolytope(
                f"vertices {vertices!r} are not a sequence of points") from None
        for name, value in (("dim", dim), ("vertices", verts), ("id", id),
                            ("_hash", hash((dim, verts)))):
            object.__setattr__(self, name, value)
        if dim < 1 or not verts:
            raise DegeneratePolytope("a polytope needs dimension >= 1 and a vertex")
        if any(len(v) != dim for v in verts):
            raise DegeneratePolytope("vertex length does not match dimension")
        if len(set(verts)) != len(verts):
            raise DegeneratePolytope("duplicate vertices")
        # points in a proper affine subspace span no facet (codimension >= 2)
        # or one facet, their own hyperplane, tight on every point
        fsets = vertex_facet_sets(self)
        listed = set(range(len(verts)))
        if not fsets or listed in fsets:
            raise DegeneratePolytope("vertex list is not full-dimensional")
        # a listed point is a vertex iff the facets through it meet in that
        # point alone: a non-vertex lies in the relative interior of a face
        # with at least two vertices, all of them listed
        for i, v in enumerate(verts):
            if len(listed.intersection(*(f for f in fsets if i in f))) != 1:
                raise DegeneratePolytope(f"point {v} is not a vertex")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dim, self.vertices) == (other.dim, other.vertices)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (f"{type(self).__qualname__}(dim={self.dim!r}, "
                f"vertices={self.vertices!r}, id={self.id!r})")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a polytope is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: a polytope is immutable")

    @property
    def nvertices(self) -> int:
        return len(self.vertices)


def _coordinate(x) -> int:
    """x as an int, refusing what int() would truncate or parse."""
    try:
        return operator.index(x)
    except TypeError:
        raise DegeneratePolytope(f"coordinate {x!r} is not an integer") from None


def _normal(edges):
    """The signed maximal minors (-1)^j det(edges without column j) of the
    dim-1 edge vectors, a normal of the hyperplane they span, zero when they
    are dependent.  In closed form in dimensions 1 to 3: (1,), (a2, -a1) and
    the cross product; Bareiss determinants from dimension 4."""
    if len(edges) == 2:
        (a1, a2, a3), (b1, b2, b3) = edges
        return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    if len(edges) == 1:
        a1, a2 = edges[0]
        return (a2, -a1)
    if not edges:
        return (1,)
    return tuple((-1) ** j * det([e[:j] + e[j + 1:] for e in edges])
                 for j in range(len(edges) + 1))


@lru_cache(maxsize=CACHE_SIZE)
def _pairing(p: LatticePolytope):
    """(facets, M) of p: the facet inequalities, each with primitive normal,
    sorted, and the pairing matrix, whose row for facet F holds
    <n_F, v> + offset_F for each vertex v in order.

    A polar dual carries both from construction.  Otherwise every
    dim-subset of vertices spans a candidate hyperplane whose normal is the
    vector of signed maximal minors of its dim-1 edge vectors (zero when
    they are dependent; see ``_normal``), and the supporting ones are
    facets, each row read off the values of the vertices on its
    hyperplane.  A subset inside the tight set of a facet already found
    spans that facet again, so it is skipped and each facet is found once.
    """
    if p._known_pairing is not None:
        return p._known_pairing
    n, verts = p.dim, p.vertices
    found, tight_sets = [], []
    for sub in combinations(range(len(verts)), n):
        if any(tight.issuperset(sub) for tight in tight_sets):
            continue
        base = verts[sub[0]]
        normal = vec_primitive(_normal(
            [[x - y for x, y in zip(verts[i], base)] for i in sub[1:]]))
        if not any(normal):
            continue
        vals = [sum(map(operator.mul, normal, v)) for v in verts]
        c = vals[sub[0]]
        if c != min(vals):
            if c != max(vals):
                continue
            normal, vals, c = tuple(-a for a in normal), [-val for val in vals], -c
        row = tuple(val - c for val in vals)
        tight_sets.append({i for i, x in enumerate(row) if not x})
        found.append((FacetInequality(normal, -c), row))
    found.sort(key=lambda fr: fr[0].normal)
    return tuple(f for f, _ in found), tuple(r for _, r in found)


@lru_cache(maxsize=CACHE_SIZE)
def facets(p: LatticePolytope) -> Tuple[FacetInequality, ...]:
    """All facet inequalities, each with primitive normal, sorted; see
    ``_pairing``."""
    return _pairing(p)[0]


def has_interior_origin(p: LatticePolytope) -> bool:
    return all(f.offset >= 1 for f in facets(p))


def _name(p):
    return f"polytope {p.id if p.id is not None else p.vertices}"


def _require_interior_origin(p):
    if not has_interior_origin(p):
        raise NotInteriorOrigin(f"origin is not strictly interior to {_name(p)}")


def is_reflexive(p: LatticePolytope) -> bool:
    """True iff every facet has lattice distance 1 from the origin."""
    _require_interior_origin(p)
    return all(f.offset == 1 for f in facets(p))


def _require_reflexive(p):
    if not is_reflexive(p):
        raise NotReflexive(f"{_name(p)} is not reflexive")


@lru_cache(maxsize=CACHE_SIZE)
def polar_dual(p: LatticePolytope) -> LatticePolytope:
    """Polar polytope {w : <v, w> >= -1 for all v}, vertices sorted lex.

    Raises NonLatticeDual when some dual vertex is non-integral, which is
    exactly the non-reflexive case.  The dual is built with its facets,
    one per vertex of p, and its pairing matrix, the transpose of p's, so
    it needs no facet enumeration and no inner product of its own.
    Memoized: the dual carries no id, so one dual serves every id of p;
    errors are raised on every call.
    """
    _require_interior_origin(p)
    if p.dim > 4:
        raise DegeneratePolytope("polar_dual supports dimension <= 4")
    fs, rows = _pairing(p)
    for f in fs:
        if f.offset != 1:
            raise NonLatticeDual(
                f"facet {f.normal} has lattice distance {f.offset} != 1"
            )
    # dual vertex j is the normal of facet j, as the facets are sorted by
    # normal.  The dual's facets are <v, w> >= -1 for the vertices v of p
    # in sorted order, primitive because the dual's lattice points on that
    # facet give it the value -1, and the row of v is column v of p's
    # matrix.  Both are set before __init__ validates the dual, so the
    # validation enumerates nothing.
    where = sorted(range(p.nvertices), key=p.vertices.__getitem__)
    cols = tuple(zip(*rows))
    dual = object.__new__(LatticePolytope)
    object.__setattr__(dual, "_known_pairing", (
        tuple(FacetInequality(p.vertices[i], 1) for i in where),
        tuple(cols[i] for i in where)))
    dual.__init__(p.dim, tuple(f.normal for f in fs))
    return dual


@lru_cache(maxsize=CACHE_SIZE)
def lattice_points(p: LatticePolytope) -> Tuple[LatticePoint, ...]:
    """All lattice points of the polytope (boundary included), in lex order.
    BudgetExceeded, before any work, when the bounding box holds more than
    LATTICE_BOX_BUDGET lattice points."""
    n = p.dim
    lo = [min(v[j] for v in p.vertices) for j in range(n)]
    hi = [max(v[j] for v in p.vertices) for j in range(n)]
    box = prod(h - l + 1 for l, h in zip(lo, hi))
    if box > LATTICE_BOX_BUDGET:
        raise BudgetExceeded(
            f"the bounding box of a {n}D polytope holds {box} lattice points, "
            f"above {LATTICE_BOX_BUDGET}")
    fts = facets(p)
    points = []
    for head in product(*(range(lo[j], hi[j] + 1) for j in range(n - 1))):
        # remaining last coordinate must satisfy every facet inequality
        lo_z, hi_z = lo[n - 1], hi[n - 1]
        feasible = True
        for f in fts:
            partial = sum(f.normal[j] * head[j] for j in range(n - 1))
            a = f.normal[n - 1]
            rhs = -f.offset - partial
            if a == 0:
                if partial < -f.offset:
                    feasible = False
                    break
            elif a > 0:
                lo_z = max(lo_z, -(-rhs // a))  # ceil(rhs / a)
            else:
                hi_z = min(hi_z, rhs // a)  # floor(rhs / a) with a < 0
        if feasible:
            points.extend(head + (z,) for z in range(lo_z, hi_z + 1))
    return tuple(points)


@lru_cache(maxsize=CACHE_SIZE)
def vertex_kernel(p: LatticePolytope) -> KernelLattice:
    """Canonical basis of {a in Z^k : sum_i a_i v_i = 0}."""
    return KernelLattice(p.nvertices, left_kernel(p.vertices))


@lru_cache(maxsize=CACHE_SIZE)
def vertex_facet_sets(p: LatticePolytope) -> Tuple[frozenset, ...]:
    """Facets as frozensets of vertex indices: the zeros of the pairing
    matrix's rows."""
    return tuple(frozenset(i for i, x in enumerate(row) if not x)
                 for row in _pairing(p)[1])


@lru_cache(maxsize=CACHE_SIZE)
def _canonical_orders(p: LatticePolytope):
    """(code, orders) of p: the canonical vertex orders, found by a
    level-by-level search over the pairing matrix, and the code, the
    pairing matrix's facet rows under them sorted descending; see the
    module docstring.

    A prefix of a row is packed into one int, its entries read as digits
    in base 1 + the largest entry, so that prefixes of one length compare
    as the tuples do; the winning rows are unpacked once at the end."""
    k = p.nvertices
    matrix = _pairing(p)[1]
    base = 1 + max(map(max, matrix))
    cols = tuple(zip(*matrix))
    # (vertex order, packed facet rows cut to it): the rows stay in facet
    # order so that extending a prefix appends one column
    level = [((), (0,) * len(matrix))]
    for _ in range(k):
        best, survivors = None, []
        for order, rows in level:
            for v in range(k):
                if v in order:
                    continue
                ext = [r * base + x for r, x in zip(rows, cols[v])]
                code = sorted(ext, reverse=True)
                if best is None or code > best:
                    best, survivors = code, []
                if code == best:
                    survivors.append((order + (v,), ext))
        level = survivors
    powers = [base ** e for e in range(k - 1, -1, -1)]
    return (tuple(tuple(r // b % base for b in powers) for r in best),
            tuple(order for order, _ in level))


@lru_cache(maxsize=CACHE_SIZE)
def normal_form(p: LatticePolytope):
    """(dim, code, vertex part) of p, equal for p and q exactly when some U
    in GL(n,Z) maps the vertices of p onto those of q; see the module
    docstring.  The vertex part of a reflexive p whose first canonical
    order gives an HNF with every pivot 1 is that HNF (see there too)."""
    code, orders = _canonical_orders(p)

    def hnf(order):
        return hnf_rows(tuple(zip(*(p.vertices[i] for i in order))))

    first = hnf(orders[0])
    if (all(f.offset == 1 for f in facets(p))
            and all(next(filter(None, r)) == 1 for r in first)):
        return p.dim, code, first
    return p.dim, code, min([first, *map(hnf, orders[1:])])


@lru_cache(maxsize=CACHE_SIZE)
def kernel_invariant(p: LatticePolytope):
    """(dim, code) of the normal form, equal for reflexive p and q exactly
    when they are a kernel pair.  Memoized; NotReflexive and
    NotInteriorOrigin are raised on every call, as errors are not cached."""
    _require_reflexive(p)
    return p.dim, _canonical_orders(p)[0]


def _pairing_bijections(p: LatticePolytope, q: LatticePolytope):
    """The vertex bijections sigma, in lexicographic order, under which
    Q o sigma has the pairing matrix of P, for p and q of equal code: the
    first canonical order of p sent onto each canonical order of q."""
    _, orders = _canonical_orders(p)
    _, q_orders = _canonical_orders(q)
    # position of each vertex of p in its first canonical order
    where = sorted(range(p.nvertices), key=orders[0].__getitem__)
    return sorted(tuple(order[i] for i in where) for order in q_orders)


def is_kernel_pair(
    p: LatticePolytope, q: LatticePolytope
) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Decide whether p and q are a kernel pair; return a witness bijection.

    True iff their kernel invariants are equal; the witness is the first
    bijection sigma, in lexicographic order, with ker(Q o sigma) == ker(P)
    as submodules of Z^k.
    """
    if kernel_invariant(p) != kernel_invariant(q):
        return False, None
    return True, _pairing_bijections(p, q)[0]


def is_mirror_kernel_pair(p: LatticePolytope, q: LatticePolytope) -> bool:
    """Kernel pair that is also a polar-dual pair.

    True iff q is GL(n,Z)-isomorphic to the polar dual of p, (p, q) is a
    kernel pair, and (polar_dual(p), polar_dual(q)) is a kernel pair.  The
    third condition follows from the first two: the kernel-pair relation
    is symmetric and unchanged by GL(n,Z) maps and vertex reordering, and
    q* is isomorphic to p** = p for reflexive p (Batyrev), so
    KP(p*, q*) = KP(p*, p) = KP(p, p*) = KP(p, q).  Both remaining
    conditions are equalities of normal forms.
    """
    return (
        normal_form(polar_dual(p)) == normal_form(q)
        and kernel_invariant(p) == kernel_invariant(q)
    )
