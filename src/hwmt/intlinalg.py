"""Exact integer linear algebra.

Vectors are tuples of ints; matrices are tuples of row tuples.  Everything
here is dimension-generic and allocation-light: the polytopes in this
package have at most ~14 vertices in dimension <= 4.  One row Hermite
elimination gives canonical lattice bases, the transform and integer
kernels; ``det`` (Bareiss) gives the signed maximal minors that are the
facet normals of ``hwmt.polytope`` in dimension >= 4 (below that they are
in closed form there); ``char_poly`` (Faddeev-LeVerrier)
gives the polynomials whose rational roots are the Picard-Fuchs exponents.
"""

from math import gcd


def vec_primitive(v):
    """Divide an integer vector by the gcd of its entries (zero vector is
    returned unchanged)."""
    g = gcd(*v)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def _hermite(rows, ncols):
    """Row Hermite normal form of rows with pivots sought only in the first
    ncols columns; the later columns follow the same row operations."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivot = 0
    for col in range(ncols):
        if pivot >= nrows:
            break
        # euclidean elimination in this column, rows pivot..nrows-1
        while True:
            # the first row of least nonzero |entry| becomes the pivot row
            i0, least = None, 0
            for i in range(pivot, nrows):
                x = abs(m[i][col])
                if x and (not least or x < least):
                    i0, least = i, x
            if i0 is None:
                break
            if i0 != pivot:
                m[pivot], m[i0] = m[i0], m[pivot]
            prow = m[pivot]
            a = prow[col]
            done = True
            for i in range(pivot + 1, nrows):
                row = m[i]
                if row[col]:
                    c = row[col] // a
                    if c:
                        m[i] = row = [x - c * y for x, y in zip(row, prow)]
                    if row[col]:
                        done = False
            if done:
                break
        prow = m[pivot]
        a = prow[col]
        if a:
            if a < 0:
                m[pivot] = prow = [-x for x in prow]
                a = -a
            for i in range(pivot):
                c = m[i][col] // a
                if c:
                    m[i] = [x - c * y for x, y in zip(m[i], prow)]
            pivot += 1
    return tuple(tuple(r) for r in m)


def _with_identity(rows):
    """[rows | I]: each row followed by its unit vector."""
    return [tuple(r) + tuple(int(i == j) for j in range(len(rows)))
            for i, r in enumerate(rows)]


def hermite_row(rows):
    """Row-style Hermite normal form with transform.

    Returns (H, U) with U unimodular and U @ rows == H, where H has positive
    pivots, zeros below each pivot, entries above a pivot reduced into
    [0, pivot), and zero rows at the bottom.  H is the unique HNF of the row
    lattice for the given row span, so lattice equality is tuple equality.
    H and U are the left and right blocks of [rows | I] after the row
    operations that put its left block in HNF.
    """
    ncols = len(rows[0]) if rows else 0
    hu = _hermite(_with_identity(rows), ncols)
    return (tuple(r[:ncols] for r in hu), tuple(r[ncols:] for r in hu))


def hnf_rows(rows):
    """Row HNF with zero rows dropped (canonical basis of the row lattice)."""
    h = _hermite(rows, len(rows[0]) if rows else 0)
    return tuple(r for r in h if any(r))


def left_kernel(rows):
    """Canonical basis of {a : a @ rows == 0} as rows of an HNF matrix.

    In the full HNF of [rows | I] the rows that vanish on rows' columns
    are the transforms a with a @ rows == 0, a basis of the kernel, and
    they are put in HNF by the same elimination on the identity columns."""
    ncols = len(rows[0]) if rows else 0
    hu = _hermite(_with_identity(rows), ncols + len(rows))
    return tuple(r[ncols:] for r in hu if not any(r[:ncols]))


def det(m):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination: every intermediate entry is a minor, so each division is
    exact."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            piv = next((r for r in range(k + 1, n) if a[r][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        ak, pk = a[k], a[k][k]
        for i in range(k + 1, n):
            ai, c = a[i], a[i][k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pk - c * ak[j]) // prev
        prev = pk
    return sign * a[-1][-1] if n else 1


def char_poly(m):
    """Ascending integer coefficients c_0, ..., c_n = 1 of det(x I - m) for a
    square integer matrix, by the Faddeev-LeVerrier recurrence
    M_k = m M_(k-1) + c_(n-k+1) I, c_(n-k) = -tr(m M_k) / k from M_0 = 0:
    every c is an integer, so each division is exact."""
    n = len(m)
    c = [0] * n + [1]
    prod = [[0] * n for _ in range(n)]  # m M_(k-1)
    for k in range(1, n + 1):
        mk = [[x + c[n - k + 1] * (i == j) for j, x in enumerate(row)]
              for i, row in enumerate(prod)]
        prod = [[sum(a * b for a, b in zip(row, col)) for col in zip(*mk)]
                for row in m]
        c[n - k] = -sum(prod[i][i] for i in range(n)) // k
    return c
