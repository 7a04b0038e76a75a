#!/usr/bin/env python3
"""Regenerate the bundled polytope fixtures.

2D: brute-force enumeration of all reflexive polygons up to GL(2,Z)
    (there are 16), ids assigned in a deterministic canonical order.

3D: the 58 polytopes appearing in the mirror-kernel-pair classification,
    regenerated from first principles: for each of the 14 Gorenstein
    weight systems the reflexive simplices sharing that kernel are the
    intermediate lattices between the vertex lattice and its reflexive
    closure; the two non-simplex groups are grown the same way from their
    printed representatives, together with polar duals.  Database-style id
    labels are then attached so that every published pair (a, b) is a
    polar-dual pair, anchored at the printed representatives for ids 0, 2,
    3 and 10.  Coordinates are canonical GL(3,Z) representatives, not
    database-verbatim; every structural claim (kernels, pairings, counts)
    is verified before writing.

Run from the repo root:  python tools/make_fixtures.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from hwmt.intlinalg import det, hermite_row, hnf_rows
from hwmt.polytope import (
    LatticePolytope,
    is_reflexive,
    lattice_points,
    polar_dual,
    vertex_kernel,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "hwmt" / "data"


def _check(ok, claim):
    """Raise unless ok: a structural claim that python -O keeps, unlike an
    assert, so no fixture is written without its checks."""
    if not ok:
        raise RuntimeError(f"fixture check failed: {claim}")


# --------------------------------------------------------------------------
# canonical form up to GL(n,Z) and vertex relabeling
# --------------------------------------------------------------------------

def _col_hnf(rows):
    h, _ = hermite_row(tuple(zip(*rows)))
    return tuple(zip(*h))

def normal_form(poly):
    """Complete invariant of (GL(n,Z), vertex permutation) equivalence."""
    from itertools import permutations
    verts = poly.vertices
    best = None
    for perm in permutations(range(len(verts))):
        cand = _col_hnf([verts[i] for i in perm])
        flat = tuple(x for row in cand for x in row)
        if best is None or flat < best:
            best = flat
    return best


# --------------------------------------------------------------------------
# 2D enumeration
# --------------------------------------------------------------------------

def _turn(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def enumerate_reflexive_polygons(box=3):
    """All reflexive polygons up to GL(2,Z), as LatticePolytope values.

    DFS over strictly convex counterclockwise vertex chains (lex-smallest
    vertex first, so each vertex set appears once).  The origin must lie
    strictly left of every directed edge, the running doubled area may not
    exceed 9, and a closed chain is accepted iff Pick's theorem gives
    exactly one interior point -- in dimension two that is equivalent to
    reflexivity.  Vertices of such polygons are primitive, which trims the
    candidate set.
    """
    from math import gcd

    pts = [
        (x, y)
        for x in range(-box, box + 1)
        for y in range(-box, box + 1)
        if gcd(x, y) == 1
    ]
    found = {}

    def winds_once(chain):
        # left turns alone allow the chain to wrap twice around the origin;
        # a genuine convex polygon has exactly one angular wrap in its
        # cyclic edge-direction sequence
        k = len(chain)
        dirs = [
            (chain[(i + 1) % k][0] - chain[i][0], chain[(i + 1) % k][1] - chain[i][1])
            for i in range(k)
        ]

        def before(a, b):
            ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
            hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
            if ha != hb:
                return ha < hb
            return a[0] * b[1] - a[1] * b[0] > 0

        wraps = sum(0 if before(dirs[i], dirs[(i + 1) % k]) else 1 for i in range(k))
        return wraps == 1

    def accept(chain):
        if not winds_once(chain):
            return
        doubled = 0
        boundary = 0
        k = len(chain)
        for i in range(k):
            x0, y0 = chain[i]
            x1, y1 = chain[(i + 1) % k]
            doubled += x0 * y1 - x1 * y0
            boundary += gcd(abs(x1 - x0), abs(y1 - y0))
        if doubled != boundary:  # Pick: exactly one interior point
            return
        poly = LatticePolytope(2, tuple(chain))
        _check(is_reflexive(poly), f"polygon {chain} is reflexive")
        nf = normal_form(poly)
        # keep the most readable representative of each class
        beauty = (
            max(abs(x) for v in poly.vertices for x in v),
            sum(abs(x) for v in poly.vertices for x in v),
            poly.vertices,
        )
        if nf not in found or beauty < found[nf][0]:
            found[nf] = (beauty, poly)

    def dfs(chain, doubled):
        v0 = chain[0]
        last = chain[-1]
        if len(chain) >= 3:
            # try to close: convex turns at last->v0->second, origin left
            if (
                _turn(chain[-2], last, v0) > 0
                and _turn(last, v0, chain[1]) > 0
                and last[0] * v0[1] - last[1] * v0[0] > 0
            ):
                accept(chain)
        for w in pts:
            if w <= v0 or w in chain:
                continue
            if last[0] * w[1] - last[1] * w[0] <= 0:  # origin left of edge
                continue
            if len(chain) >= 2 and _turn(chain[-2], last, w) <= 0:
                continue
            d2 = doubled + (last[0] * w[1] - last[1] * w[0])
            if d2 > 9:
                continue
            chain.append(w)
            dfs(chain, d2)
            chain.pop()

    for v0 in pts:
        dfs([v0], 0)
    return sorted(
        (poly for _, poly in found.values()),
        key=lambda p: (len(lattice_points(p)), p.nvertices, normal_form(p)),
    )


# --------------------------------------------------------------------------
# 3D: intermediate-lattice growth
# --------------------------------------------------------------------------

def minimal_simplex(weights):
    """Reflexive simplex of the weighted projective space P(weights).

    Vertices are the images of the standard basis of Z^4 in Z^4 / Z*weights;
    the vertex matrix kernel is generated by the weight vector itself.
    """
    h, u = hermite_row(tuple((w,) for w in weights))
    _check(h[0] == (1,) and all(r == (0,) for r in h[1:]),
           f"weights {weights} are coprime")
    verts = tuple(tuple(u[r][i] for r in range(1, 4)) for i in range(4))
    poly = LatticePolytope(3, verts)
    _check(vertex_kernel(poly).basis == (tuple(weights),),
           f"the simplex of {weights} has kernel {weights}")
    _check(is_reflexive(poly), f"the simplex of {weights} is reflexive")
    return poly


def _upper_hnfs(max_det):
    """All row-HNF bases of finite-index sublattices of Z^3, index <= max_det."""
    for a in range(1, max_det + 1):
        for b in range(1, max_det // a + 1):
            for c in range(1, max_det // (a * b) + 1):
                for s in range(b):
                    for t in range(c):
                        for v in range(c):
                            yield ((a, s, t), (0, b, v), (0, 0, c))


def _adjugate(m):
    """adj(m) of a square integer matrix by cofactors: adj(m) @ m = det(m) I."""
    n = len(m)
    return tuple(
        tuple((-1) ** (i + j)
              * det([r[:i] + r[i + 1:] for t, r in enumerate(m) if t != j])
              for j in range(n))
        for i in range(n))


def refinements(poly):
    """The polytope re-read in every lattice between Z^3 and its reflexive
    closure (the dual of the lattice generated by the polar vertices)."""
    dual = polar_dual(poly)
    b = hnf_rows(dual.vertices)                      # basis of M_min, rows
    _check(len(b) == 3, f"the polar vertices of {poly.vertices} span rank 3")
    d = tuple(zip(*b))                               # D = B^T = C^{-1}
    index = abs(det(d))
    out = []
    for h in _upper_hnfs(index):
        # H^{-1} = adj(H) / det(H); det(H) > 0 (positive HNF diagonal)
        adj, hdet = _adjugate(h), det(h)
        # L' = rowspan(H) must contain rowspan(D): D adj(H) divisible by det(H)
        dh = [
            [sum(d[r][k] * adj[k][c] for k in range(3)) for c in range(3)]
            for r in range(3)
        ]
        if any(x % hdet for row in dh for x in row):
            continue
        new_verts = []
        ok = True
        for v in poly.vertices:
            vd = [sum(v[k] * d[k][c] for k in range(3)) for c in range(3)]
            y = [sum(vd[k] * adj[k][c] for k in range(3)) for c in range(3)]
            if any(x % hdet for x in y):
                ok = False
                break
            new_verts.append(tuple(x // hdet for x in y))
        _check(ok, "vertices are integral in every intermediate lattice")
        cand = LatticePolytope(3, tuple(new_verts))
        _check(is_reflexive(cand), f"refinement {cand.vertices} is reflexive")
        _check(vertex_kernel(cand).basis == vertex_kernel(poly).basis,
               f"refinement {cand.vertices} keeps the kernel of {poly.vertices}")
        out.append(cand)
    return out


def grow_type(rep):
    """Members of the kernel type of rep: lattice refinements and their
    polar duals, deduplicated up to GL(3,Z)."""
    pool = {}
    for member in refinements(rep):
        for poly in (member, polar_dual(member)):
            nf = normal_form(poly)
            if nf not in pool:
                pool[nf] = poly
    return pool


# --------------------------------------------------------------------------
# published classification tables
# --------------------------------------------------------------------------

SIMPLEX_ROWS = [
    ((1, 1, 1, 1), [(0, 4311), (8, 3313), (427, 427), (429, 429)]),
    ((1, 1, 1, 3), [(2, 4317), (85, 3726), (741, 1943)]),
    ((1, 1, 2, 2), [(1, 4281), (742, 742), (743, 744)]),
    ((1, 1, 2, 4), [(9, 4312), (428, 3315), (430, 3312), (431, 3314)]),
    ((1, 1, 4, 6), [(88, 4318), (1946, 3725)]),
    ((1, 2, 2, 5), [(31, 4255)]),
    ((1, 2, 3, 6), [(89, 4228), (1944, 1948), (1947, 1947)]),
    ((1, 2, 6, 9), [(745, 4282)]),
    ((1, 3, 4, 4), [(87, 3727)]),
    ((1, 3, 8, 12), [(1949, 4229)]),
    ((1, 4, 5, 10), [(1114, 3993)]),
    ((1, 6, 14, 21), [(4080, 4080)]),
    ((2, 3, 3, 4), [(86, 1945)]),
    ((2, 3, 10, 15), [(3038, 3038)]),
]

GROUP_ROWS = [
    ("I", ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, -1), (-1, -1, 0)),
     [(3, 4283), (753, 754)]),
    ("II", ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 0, -1), (-2, -1, 0)),
     [(10, 4314), (433, 3316), (436, 3321)]),
]

PRINTED_ANCHORS = {
    0: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    2: ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -1, -1)),
    3: GROUP_ROWS[0][1],
    10: GROUP_ROWS[1][1],
}


def assign_ids(pool, table_pairs):
    """Attach published ids to generated members of one kernel type.

    The polar-duality involution on the members must have the same shape as
    the published pair list; smaller ids go to members with fewer lattice
    points (the published numbering grows with lattice point count).
    """
    members = list(pool.values())
    nf_to_idx = {normal_form(m): i for i, m in enumerate(members)}
    paired = set()
    self_dual, proper = [], []
    for i, m in enumerate(members):
        if i in paired:
            continue
        j = nf_to_idx[normal_form(polar_dual(m))]
        paired.update((i, j))
        if i == j:
            self_dual.append(i)
        else:
            proper.append((i, j) if _size_key(members[i]) <= _size_key(members[j])
                          else (j, i))
    table_self = sorted(a for a, b in table_pairs if a == b)
    table_proper = sorted(((a, b) for a, b in table_pairs if a != b))
    _check(len(table_self) == len(self_dual), "self-dual counts match")
    _check(len(table_proper) == len(proper), "pair counts match")
    self_dual.sort(key=lambda i: _size_key(members[i]))
    proper.sort(key=lambda ij: (_size_key(members[ij[0]]), _size_key(members[ij[1]])))
    assignment = {}
    for pid, i in zip(table_self, self_dual):
        assignment[pid] = members[i]
    for (pa, pb), (i, j) in zip(table_proper, proper):
        assignment[pa] = members[i]
        assignment[pb] = members[j]
    return assignment


def _size_key(poly):
    return (len(lattice_points(poly)), normal_form(poly))


def build_3d_records():
    records = {}
    for weights, pairs in SIMPLEX_ROWS:
        rep = minimal_simplex(weights)
        pool = grow_type(rep)
        expected = len({i for pr in pairs for i in pr})
        _check(len(pool) == expected,
               f"weights {weights}: {len(pool)} members, expected {expected}")
        records.update(assign_ids(pool, pairs))
        print(f"weights {weights}: {len(pool)} members ok")
    for name, verts, pairs in GROUP_ROWS:
        rep = LatticePolytope(3, verts)
        pool = grow_type(rep)
        expected = len({i for pr in pairs for i in pr})
        _check(len(pool) == expected,
               f"group {name}: {len(pool)} members, expected {expected}")
        records.update(assign_ids(pool, pairs))
        print(f"group {name}: {len(pool)} members ok")
    # pin printed representatives where the publication spells them out
    for pid, verts in PRINTED_ANCHORS.items():
        printed = LatticePolytope(3, verts)
        _check(normal_form(printed) == normal_form(records[pid]),
               f"id {pid} is its printed representative")
        records[pid] = printed
    # structural verification: every published pair is a polar-dual pair
    for _, pairs in SIMPLEX_ROWS:
        _check_pairs(records, pairs)
    for _, _, pairs in GROUP_ROWS:
        _check_pairs(records, pairs)
    return records


def _check_pairs(records, pairs):
    for a, b in pairs:
        _check(normal_form(polar_dual(records[a])) == normal_form(records[b]),
               f"the dual of {a} is {b}")
        _check(normal_form(polar_dual(records[b])) == normal_form(records[a]),
               f"the dual of {b} is {a}")


# --------------------------------------------------------------------------
# writing
# --------------------------------------------------------------------------

def write_fixture(path, records, header):
    lines = [f"# {line}" for line in header] + [""]
    for pid in sorted(records):
        poly = records[pid]
        lines.append(f"{pid} {poly.dim} {poly.nvertices}")
        lines.extend(" ".join(str(x) for x in v) for v in poly.vertices)
        lines.append("")
    path.write_text("\n".join(lines))
    print(f"wrote {path} ({len(records)} records)")


def main():
    DATA_DIR.mkdir(parents=True, exist_ok=True)

    polygons = enumerate_reflexive_polygons()
    _check(len(polygons) == 16, f"16 reflexive polygons, got {len(polygons)}")
    write_fixture(
        DATA_DIR / "polygons2d.txt",
        {i: p for i, p in enumerate(polygons)},
        [
            "All 16 reflexive polygons up to GL(2,Z), regenerated by brute-force",
            "enumeration (tools/make_fixtures.py); ids are ordered by lattice",
            "point count, then vertex count, then canonical form.",
        ],
    )

    records = build_3d_records()
    write_fixture(
        DATA_DIR / "tables3d.txt",
        records,
        [
            "The 58 three-dimensional reflexive polytopes of the mirror-kernel-",
            "pair classification, regenerated from the 14 Gorenstein weight",
            "systems and the two non-simplex groups (tools/make_fixtures.py).",
            "Coordinates are canonical GL(3,Z) representatives anchored at the",
            "printed vertex matrices for ids 0, 2, 3 and 10; every published",
            "pair (a, b) is verified to be a polar-dual pair before writing.",
        ],
    )


if __name__ == "__main__":
    main()
