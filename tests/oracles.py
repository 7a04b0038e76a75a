"""Backtracking bijection search: the tests' independent reference for the
relations that ``hwmt.polytope`` decides and witnesses by canonical vertex
orders.

A vertex bijection of P onto Q is face-respecting when it maps the facet
family of P onto that of Q.  The search yields those bijections in
lexicographic order; the kernel pairs are the ones for which every basis
row of ker(P) annihilates the reordered vertices of Q, and a lattice
isomorphism is the first of them whose map on a vertex basis is integral
and unimodular.  Nothing here reads the pairing matrix or the normal form.
"""

from functools import lru_cache
from typing import Iterator, Optional, Tuple

from hwmt.intlinalg import adjugate_det, det
from hwmt.polytope import (
    CACHE_SIZE,
    LatticePolytope,
    _require_reflexive,
    vertex_facet_sets,
    vertex_kernel,
)


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
