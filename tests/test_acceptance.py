"""Acceptance suite: one test per criterion, one pass/fail line each.

Every expected value here is a frozen literal (published vertex data,
parameter tables, display matrices), independent of the package's own
stored family data.  Timing limits are asserted where the criterion states
them.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import random
import time
from fractions import Fraction
from math import comb

import pytest

from hwmt.census import fixture_path, load_polytopes, run_census
from hwmt.families import get_family
from hwmt.hasse_witt import (
    hasse_witt,
    hasse_witt_polynomial,
    key_lemma_check,
    period_coefficients,
)
from hwmt.hypergeometric import (
    HypergeometricData,
    frac_mod,
    pfq_taylor,
    quadratic_residue_check,
    series_square,
    truncated_pFq,
)
from hwmt.pencil import build_vertex_pencil
from hwmt.picard_fuchs import analyze_family
from hwmt.point_count import (
    congruence_check,
    P1_X_P1,
    count_graded,
)
from hwmt.polytope import LatticePolytope, polar_dual, vertex_kernel
from hwmt.ratfunc import Poly, RatFunc

F = Fraction

P113 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -1, -1))
P113_DUAL = ((1, -1, -1), (-1, 5, -1), (-1, -1, 5), (-1, -1, -1))


def _report(n, label, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.4f}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {n} {status}: {label}{timing}")
    assert ok, f"criterion {n} failed: {label}"


@pytest.fixture(scope="module")
def census3d():
    return run_census(load_polytopes(fixture_path("tables3d.txt")))


@pytest.fixture(scope="module")
def census2d():
    return run_census(load_polytopes(fixture_path("polygons2d.txt")))


def test_criterion_1_polar_dual_reproduction():
    poly = LatticePolytope(3, P113)
    t0 = time.perf_counter()
    # the memoized polar_dual could answer from its cache; time the
    # computation itself
    dual = polar_dual.__wrapped__(poly)
    elapsed = time.perf_counter() - t0
    ok = sorted(dual.vertices) == sorted(P113_DUAL) and elapsed < 0.001
    _report(1, "polar dual of the P(1,1,1,3) simplex", ok, elapsed)


def test_criterion_2_kernel_pair_example():
    simplex = LatticePolytope(3, P113)
    dual = LatticePolytope(3, P113_DUAL)  # published vertex order
    ok = (
        vertex_kernel(simplex).basis == ((3, 1, 1, 1),)
        and vertex_kernel(dual).basis == ((3, 1, 1, 1),)
    )
    _report(2, "both kernels canonicalize to the lattice of (3,1,1,1)", ok)


def test_criterion_3_census_counts():
    t0 = time.perf_counter()
    result = run_census(load_polytopes(fixture_path("tables3d.txt")))
    elapsed = time.perf_counter() - t0
    ok = (
        len(result.pairs) == 32
        and len(result.self_dual) == 6
        and len(result.types) == 16
        and elapsed < 10.0
    )
    _report(3, "3D census: 32 pairs, 6 self-dual, 16 types", ok, elapsed)


def test_criterion_4_2d_inventory(census2d):
    by_id = {r.id: r.polytope for r in census2d.records}
    shapes = sorted((by_id[a].nvertices, a == b) for a, b in census2d.pairs)
    ok = shapes == [
        (3, False), (3, False),   # two mirror pairs of triangles
        (3, True),                # self-dual triangle
        (4, False),               # the P1xP1 quadrilateral pair
        (4, True),                # self-dual quadrilateral
        (5, True),                # self-dual pentagon
        (6, True),                # self-dual hexagon
    ]
    _report(4, "2D inventory: triangles, quadrilaterals, pentagon, hexagon", ok)


def test_criterion_5_key_lemma_sweep(census3d):
    by_id = {r.id: r.polytope for r in census3d.records}
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for a, b in census3d.pairs:
        if by_id[a].nvertices > 6 or by_id[b].nvertices > 6:
            continue
        for p in (5, 7, 11, 13):
            for psi in (1, 2, 3):
                match, _, _ = key_lemma_check(by_id[a], by_id[b], psi, p)
                ok &= match
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 32 * 4 * 3 and elapsed < 60.0
    _report(5, f"Key Lemma sweep ({checked} cases)", ok, elapsed)


MAIN_THEOREM_ROWS = {
    "quartic": HypergeometricData(
        (F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)
    ),
    "sextic": HypergeometricData(
        (F(1, 2), F(1, 6), F(5, 6)), (F(1), F(1)), (F(1728), -6)
    ),
    "group1": HypergeometricData(
        (F(1, 2), F(1, 3), F(2, 3)), (F(1), F(1)), (F(-108), -3)
    ),
    "group2": HypergeometricData(
        (F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)
    ),
}


def test_criterion_6_main_theorem_truncations():
    ok = True
    for name, row in MAIN_THEOREM_ROWS.items():
        pencil = get_family(name).vertex_pencil()
        for p in (5, 7, 11, 13, 17):
            for psi in (1, 2, 3):
                hw = hasse_witt(pencil, psi, p).value
                ok &= hw == truncated_pFq(row, psi, p).value
    _report(6, "Hasse-Witt == table truncation for the 4 K3 types", ok)


def test_criterion_7_elliptic_proposition():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    fam = get_family("elliptic")
    for p in (5, 7, 11, 13):
        for psi in (0, 1, 2, 3):
            if not fam.is_smooth_model(psi):  # psi = 0 is a singular fiber
                continue
            match, _, _ = congruence_check(fam, psi, p)
            ok &= match
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 12 and elapsed < 5.0
    # note: the curve congruence carries the sign N == 1 - [truncation];
    # see the decisions ledger for the published-sign counterexample
    _report(7, f"elliptic P1xP1 counts match truncation ({checked} smooth cases)",
            ok, elapsed)


def test_criterion_8_quartic_sextic_propositions():
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for name in ("quartic", "sextic"):
        fam = get_family(name)
        for p in (5, 7, 11, 13):
            for psi in (1, 2):
                if not fam.is_smooth_model(psi):
                    continue  # printed quartic is singular at psi^4 = 1
                match, _, _ = congruence_check(fam, psi, p)
                ok &= match
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 12 and elapsed < 120.0
    _report(8, f"quartic and sextic count congruences ({checked} smooth cases)",
            ok, elapsed)


def _rf(num, den=(1,)):
    return RatFunc(Poly.of(*num), Poly.of(*den))


ELLIPTIC_DISPLAYS = {
    # displayed matrices of the elliptic-pencil computation
    "companion": [
        [_rf((0,)), _rf((1,))],
        [_rf((0, -1), (0, -16, 0, 1)), _rf((16, 0, -3), (0, -16, 0, 1))],
    ],
    "sheared": [
        [_rf((0,)), _rf((1,))],
        [_rf((0, 0, -1), (-16, 0, 1)), _rf((0, 0, -2), (-16, 0, 1))],
    ],
    "powered": [
        [_rf((0,)), _rf((F(1, 2),))],
        [_rf((0, -1), (-32, 2)), _rf((0, -1), (-16, 1))],
    ],
    "rescaled": [
        [_rf((0,)), _rf((F(1, 2),))],
        [_rf((0, -1), (-2, 2)), _rf((0, -1), (-1, 1))],
    ],
    "inverted": [
        [_rf((0,)), _rf((F(-1, 2),))],
        [_rf((1,), (2, -2)), _rf((1,), (1, -1))],
    ],
    "residue_zero": ((F(0), F(1, 2)), (F(0), F(0))),
    "residue_infinity": ((F(0), F(-1, 2)), (F(1, 2), F(1))),
}

SEXTIC_DISPLAYS = {
    "companion": [
        [_rf((0,)), _rf((1,)), _rf((0,))],
        [_rf((0,)), _rf((0,)), _rf((1,))],
        [_rf((0, 0, 0, -1), (-1728, 0, 0, 0, 0, 0, 1)),
         _rf((5184, 0, 0, 0, 0, 0, -7), (0, 0, -1728, 0, 0, 0, 0, 0, 1)),
         _rf((-5184, 0, 0, 0, 0, 0, -6), (0, -1728, 0, 0, 0, 0, 0, 1))],
    ],
    "sheared": [
        [_rf((0,)), _rf((1,)), _rf((0,))],
        [_rf((0,)), _rf((1,)), _rf((1,))],
        [_rf((0, 0, 0, 0, 0, 0, -1), (-1728, 0, 0, 0, 0, 0, 1)),
         _rf((5184, 0, 0, 0, 0, 0, -7), (-1728, 0, 0, 0, 0, 0, 1)),
         _rf((-8640, 0, 0, 0, 0, 0, -4), (-1728, 0, 0, 0, 0, 0, 1))],
    ],
    "powered": [
        [_rf((0,)), _rf((F(1, 6),)), _rf((0,))],
        [_rf((0,)), _rf((F(1, 6),)), _rf((F(1, 6),))],
        [_rf((0, -1), (-6 * 1728, 6)),
         _rf((5184, -7), (-6 * 1728, 6)),
         _rf((-8640, -4), (-6 * 1728, 6))],
    ],
    "rescaled": [
        [_rf((0,)), _rf((F(1, 6),)), _rf((0,))],
        [_rf((0,)), _rf((F(1, 6),)), _rf((F(1, 6),))],
        [_rf((0, -1), (-6, 6)), _rf((3, -7), (-6, 6)), _rf((-5, -4), (-6, 6))],
    ],
    "inverted": [
        [_rf((0,)), _rf((F(-1, 6),)), _rf((0,))],
        [_rf((0,)), _rf((F(-1, 6),)), _rf((F(-1, 6),))],
        [_rf((1,), (6, -6)), _rf((7, -3), (6, -6)), _rf((4, 5), (6, -6))],
    ],
    "residue_zero": (
        (F(0), F(1, 6), F(0)), (F(0), F(1, 6), F(1, 6)), (F(0), F(-1, 2), F(5, 6)),
    ),
    "residue_infinity": (
        (F(0), F(-1, 6), F(0)), (F(0), F(-1, 6), F(-1, 6)),
        (F(1, 6), F(7, 6), F(2, 3)),
    ),
}

FINAL_PARAMETERS = {
    "elliptic": HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(1, 16), 2)),
    "sextic": MAIN_THEOREM_ROWS["sextic"],
    "group1": MAIN_THEOREM_ROWS["group1"],
    "group2": MAIN_THEOREM_ROWS["group2"],
}


def test_criterion_9_picard_fuchs_pipeline():
    ok = True
    for name, displays in (("elliptic", ELLIPTIC_DISPLAYS),
                           ("sextic", SEXTIC_DISPLAYS)):
        rep = analyze_family(name)
        for stage in ("companion", "sheared", "powered", "rescaled", "inverted"):
            system = getattr(rep, stage)
            expected = displays[stage]
            for i in range(system.size):
                for j in range(system.size):
                    ok &= system.matrix[i][j] == expected[i][j]
        ok &= rep.residue_zero == displays["residue_zero"]
        ok &= rep.residue_infinity == displays["residue_infinity"]
    for name, expected in FINAL_PARAMETERS.items():
        ok &= analyze_family(name).final == expected
    _report(9, "Picard-Fuchs displays entry-for-entry + final parameters", ok)


def test_criterion_10_quadratic_residue_remark():
    ok = True
    for psi in (1, 5, 8, 12):
        value = hasse_witt("group2", psi, 13).value
        ok &= quadratic_residue_check(value, 13) == "nonresidue"
    _report(10, "Group II Hasse-Witt values at p=13 are nonresidues", ok)


def test_criterion_11_property_suites(census3d):
    rng = random.Random(20260808)
    by_id = {r.id: r.polytope for r in census3d.records}
    ids = sorted(by_id)
    ok = True

    # degree bound: symbolic Hasse-Witt has degree <= p-1 and evaluates
    # consistently
    families = ["elliptic", "quartic", "sextic", "group1", "group2"]
    for _ in range(100):
        fam = get_family(rng.choice(families))
        p = rng.choice([5, 7, 11, 13])
        coeffs = hasse_witt_polynomial(fam, p)
        ok &= len(coeffs) == p
        psi = rng.randint(1, 3)
        value = sum(c * pow(psi, d, p) for d, c in enumerate(coeffs)) % p
        ok &= value == hasse_witt(fam.vertex_pencil(), psi, p).value

    # involution (dual of dual) under random GL(3,Z) changes of basis
    for _ in range(100):
        poly = by_id[rng.choice(ids)]
        u = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
        for _ in range(4):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for r in range(3):
                u[r][j] += c * u[r][i]
        moved = LatticePolytope(
            3,
            tuple(
                tuple(sum(v[k] * u[k][j] for k in range(3)) for j in range(3))
                for v in poly.vertices
            ),
        )
        ok &= sorted(polar_dual(polar_dual(moved)).vertices) == sorted(
            moved.vertices
        )

    # ambient count sanity for the zero polynomial
    for _ in range(100):
        p = rng.choice([3, 5, 7])
        n = rng.randint(1, 3)
        ok &= count_graded([], ((1,) * (n + 1),), p) == (
            (p ** (n + 1) - 1) // (p - 1)
        )
        weights = tuple(rng.randint(1, 4) for _ in range(n + 1))
        ok &= count_graded([], (weights,), p) == (
            (p ** (n + 1) - 1) // (p - 1)
        )
        ok &= count_graded([], P1_X_P1, p) == (p + 1) ** 2

    # binomial period identity for random fixture pencils
    for _ in range(100):
        poly = by_id[rng.choice(ids)]
        p = rng.choice([5, 7])
        psi = rng.randint(1, 5)
        hw = hasse_witt(build_vertex_pencil(poly), psi, p).value
        b = period_coefficients(poly, p - 1).values
        psi_mod = frac_mod(F(psi), p)
        rhs = sum(
            comb(p - 1, n) * (b[n] % p) * pow(psi_mod, p - 1 - n, p)
            for n in range(p)
        ) % p
        ok &= hw == rhs

    # Clausen's identity over Q through degree 10, random parameters
    for _ in range(100):
        a = F(rng.randint(-6, 6), rng.randint(1, 6))
        b = F(rng.randint(-6, 6), rng.randint(1, 6))
        c = a + b + F(1, 2)
        two_ab = 2 * a + 2 * b
        if (c.denominator == 1 and c <= 0) or (
            two_ab.denominator == 1 and two_ab <= 0
        ):
            continue
        lhs = series_square(pfq_taylor((a, b), (c,), 11))
        rhs = pfq_taylor((2 * a, 2 * b, a + b), (two_ab, c), 11)
        ok &= lhs == rhs

    _report(11, "property suites (degree bound, involution, ambient counts, "
                "period identity, Clausen over Q)", ok)
