"""Lattice polytope toolkit: duals, kernels, equivalence, kernel pairs."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmt.errors import (
    BudgetExceeded,
    DegeneratePolytope,
    NonLatticeDual,
    NotInteriorOrigin,
    NotReflexive,
)
from hwmt.hasse_witt import (
    _hw_coefficients,
    _inverse_factorials,
    _kernel_plan,
    hasse_witt_polynomial,
)
from hwmt import polytope
from hwmt.census import fixture_path, load_polytopes
from hwmt.intlinalg import det, hnf_rows
from hwmt.polytope import (
    _canonical_orders,
    _pairing,
    FacetInequality,
    KernelLattice,
    LatticePolytope,
    vertex_facet_sets,
    facets,
    has_interior_origin,
    is_kernel_pair,
    is_mirror_kernel_pair,
    is_reflexive,
    kernel_invariant,
    lattice_points,
    normal_form,
    polar_dual,
    vertex_kernel,
)

import oracles

P113 = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -1, -1))
P113_DUAL = ((1, -1, -1), (-1, 5, -1), (-1, -1, 5), (-1, -1, -1))


def brute_force_points(poly):
    """Independent oracle: full bounding-box scan with facet inequalities."""
    n = poly.dim
    lo = [min(v[j] for v in poly.vertices) for j in range(n)]
    hi = [max(v[j] for v in poly.vertices) for j in range(n)]
    fts = facets(poly)
    out = []
    for pt in product(*(range(lo[j], hi[j] + 1) for j in range(n))):
        if all(sum(f.normal[j] * pt[j] for j in range(n)) >= -f.offset for f in fts):
            out.append(pt)
    return sorted(out)


class TestPolarDual:
    def test_p113_example(self, p113_simplex):
        dual = polar_dual(p113_simplex)
        assert sorted(dual.vertices) == sorted(P113_DUAL)

    def test_cross_square(self, cross_polytope):
        assert sorted(polar_dual(cross_polytope).vertices) == [
            (-1, -1), (-1, 1), (1, -1), (1, 1),
        ]

    def test_square_back_to_cross(self, unit_square):
        assert sorted(polar_dual(unit_square).vertices) == [
            (-1, 0), (0, -1), (0, 1), (1, 0),
        ]

    def test_involution_on_fixture(self, records3d):
        for rec in list(records3d.values())[::7]:
            again = polar_dual(polar_dual(rec.polytope))
            assert sorted(again.vertices) == sorted(rec.polytope.vertices)

    def test_not_interior_origin(self):
        shifted = LatticePolytope(2, ((1, 0), (2, 1), (1, 2)))
        with pytest.raises(NotInteriorOrigin):
            polar_dual(shifted)

    def test_non_lattice_dual(self):
        big = LatticePolytope(2, ((2, 2), (-2, 2), (-2, -2), (2, -2)))
        with pytest.raises(NonLatticeDual):
            polar_dual(big)

    def test_facet_vertex_duality(self, records3d):
        for rec in list(records3d.values())[::5]:
            assert len(facets(rec.polytope)) == polar_dual(rec.polytope).nvertices


class TestReflexive:
    def test_examples(self, p113_simplex, cross_polytope):
        assert is_reflexive(p113_simplex)
        assert is_reflexive(cross_polytope)
        assert not is_reflexive(
            LatticePolytope(2, ((2, 2), (-2, 2), (-2, -2), (2, -2)))
        )

    def test_requires_interior_origin(self):
        with pytest.raises(NotInteriorOrigin):
            is_reflexive(LatticePolytope(2, ((1, 0), (2, 1), (1, 2))))

    @pytest.mark.parametrize("pid", [0, 7, None])
    def test_errors_name_the_polytope(self, pid):
        # by its id when it has one, id 0 included, else by its vertices
        shifted = LatticePolytope(2, ((1, 0), (2, 1), (1, 2)), pid)
        big = LatticePolytope(2, ((2, 2), (-2, 2), (-2, -2), (2, -2)), pid)
        with pytest.raises(NotInteriorOrigin) as exc:
            is_reflexive(shifted)
        name = shifted.vertices if pid is None else pid
        assert str(exc.value) == f"origin is not strictly interior to polytope {name}"
        with pytest.raises(NotReflexive) as exc:
            kernel_invariant(big)
        name = big.vertices if pid is None else pid
        assert str(exc.value) == f"polytope {name} is not reflexive"


class TestLatticePoints:
    def test_square_nine(self, unit_square):
        assert len(lattice_points(unit_square)) == 9

    def test_p3_simplex_five(self, p3_simplex):
        pts = lattice_points(p3_simplex)
        assert len(pts) == 5
        assert (0, 0, 0) in pts

    def test_quartic_simplex_35(self, p3_simplex):
        # 35 = number of degree-4 monomials in 4 variables
        assert len(lattice_points(polar_dual(p3_simplex))) == 35

    def test_oracle_equivalence_2d(self, records2d):
        for rec in records2d.values():
            assert list(lattice_points(rec.polytope)) == brute_force_points(
                rec.polytope
            )

    @pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
    def test_box_bound_is_inclusive(self, slack, refused, monkeypatch):
        # the triangle (2,0), (0,2), (-2,-2) has a 5 x 5 box and 10 points
        monkeypatch.setattr(polytope, "LATTICE_BOX_BUDGET", 25 + slack)
        lattice_points.cache_clear()
        triangle = LatticePolytope(2, ((2, 0), (0, 2), (-2, -2)))
        if refused:
            with pytest.raises(BudgetExceeded, match="holds 25 lattice points, above 24"):
                lattice_points(triangle)
        else:
            assert list(lattice_points(triangle)) == brute_force_points(triangle)


class TestVertexKernel:
    def test_p113(self, p113_simplex):
        assert vertex_kernel(p113_simplex).basis == ((3, 1, 1, 1),)

    def test_p113_dual_printed_order(self):
        dual = LatticePolytope(3, P113_DUAL)
        assert vertex_kernel(dual).basis == ((3, 1, 1, 1),)

    def test_4d_weighted(self):
        poly = LatticePolytope(
            4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
                (-5, -2, -1, -1))
        )
        assert vertex_kernel(poly).basis == ((5, 2, 1, 1, 1),)

    def test_cross(self, cross_polytope):
        assert vertex_kernel(cross_polytope).basis == ((1, 0, 1, 0), (0, 1, 0, 1))

    def test_kernel_annihilates_vertices(self, records3d):
        for rec in records3d.values():
            verts = rec.polytope.vertices
            for a in vertex_kernel(rec.polytope).basis:
                combo = [
                    sum(a[i] * verts[i][j] for i in range(len(verts)))
                    for j in range(3)
                ]
                assert combo == [0, 0, 0]

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=50, deadline=None)
    def test_gl_invariance(self, rng):
        # kernels are untouched by a common GL(n,Z) map of all vertices
        base = LatticePolytope(3, P113)
        u = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(3):
            i, j = rng.sample(range(3), 2)
            c = rng.randint(-2, 2)
            for r in range(3):
                u[r][j] += c * u[r][i]
        moved = LatticePolytope(
            3,
            tuple(
                tuple(sum(v[k] * u[k][j] for k in range(3)) for j in range(3))
                for v in base.vertices
            ),
        )
        assert vertex_kernel(moved).basis == vertex_kernel(base).basis


class TestCombinatorialEquivalence:
    """The oracles' face-lattice search."""

    def test_any_two_simplices(self, p3_simplex, p113_simplex):
        assert oracles.combinatorially_equivalent(p3_simplex, p113_simplex) is not None

    def test_quadrilaterals(self, cross_polytope, unit_square):
        assert oracles.combinatorially_equivalent(cross_polytope, unit_square) is not None

    def test_triangle_vs_square(self, unit_square):
        tri = LatticePolytope(2, ((1, 0), (0, 1), (-1, -1)))
        assert oracles.combinatorially_equivalent(tri, unit_square) is None

    def test_bijections_respect_facets(self, cross_polytope, unit_square):
        qf = set(vertex_facet_sets(unit_square))
        for sigma in oracles.combinatorial_bijections(cross_polytope, unit_square):
            for f in vertex_facet_sets(cross_polytope):
                assert frozenset(sigma[i] for i in f) in qf


class TestKernelPairs:
    def test_p113_and_dual(self, p113_simplex):
        ok, witness = is_kernel_pair(p113_simplex, polar_dual(p113_simplex))
        assert ok and witness is not None

    def test_self_pair_identity(self, p113_simplex):
        # the identity is first in lexicographic order
        ok, witness = is_kernel_pair(p113_simplex, p113_simplex)
        assert ok and witness == (0, 1, 2, 3)

    def test_cross_square_pair(self, cross_polytope, unit_square):
        # the cyclic relabeling matches opposite-vertex relations on both
        # sides, making the quadrilateral mirror pair a kernel pair
        ok, witness = is_kernel_pair(cross_polytope, unit_square)
        assert ok
        reordered = tuple(unit_square.vertices[i] for i in witness)
        assert vertex_kernel(
            LatticePolytope(2, reordered)
        ).basis == vertex_kernel(cross_polytope).basis

    def test_symmetry_and_reflexivity(self, records3d):
        sample = [records3d[i].polytope for i in (0, 8, 2, 3)]
        for p in sample:
            assert is_kernel_pair(p, p)[0]
        for p in sample:
            for q in sample:
                assert is_kernel_pair(p, q)[0] == is_kernel_pair(q, p)[0]

    def test_different_weights_not_pair(self, p3_simplex, p113_simplex):
        assert not is_kernel_pair(p3_simplex, p113_simplex)[0]


class TestMirrorKernelPairs:
    def test_p113_pair(self, p113_simplex):
        assert is_mirror_kernel_pair(p113_simplex, polar_dual(p113_simplex))

    def test_self_dual_427(self, records3d):
        poly = records3d[427].polytope
        assert is_mirror_kernel_pair(poly, poly)

    def test_triangle_hexagon_false(self, records2d):
        tri = LatticePolytope(2, ((1, 0), (0, 1), (-1, -1)))
        hexagon = next(
            r.polytope for r in records2d.values() if r.polytope.nvertices == 6
        )
        assert not is_mirror_kernel_pair(tri, hexagon)

    def test_not_mirror_within_type(self, records3d):
        # 0 and 8 share the (1,1,1,1) kernel but are not polar duals
        assert not is_mirror_kernel_pair(
            records3d[0].polytope, records3d[8].polytope
        )


def _image(data, p):
    """g.p for a drawn unimodular g: the vertices of p under elementary
    integer row operations and sign flips, in a drawn order."""
    n = p.dim
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    steps = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(-2, 2))
    for i, j, c in data.draw(st.lists(steps, max_size=6)):
        if i == j:
            u[i] = [-x for x in u[i]]
        else:
            u[i] = [x + c * y for x, y in zip(u[i], u[j])]
    verts = [tuple(sum(v[t] * u[t][c] for t in range(n)) for c in range(n))
             for v in p.vertices]
    order = data.draw(st.permutations(range(p.nvertices)))
    return LatticePolytope(n, tuple(verts[i] for i in order))


@pytest.fixture(scope="module")
def reflexive_pool(records2d, records3d):
    """The 2D and 3D fixtures and their polar duals, by (dim, nvertices)."""
    polys = [r.polytope for recs in (records2d, records3d) for r in recs.values()]
    shapes = {}
    for poly in polys + [polar_dual(d) for d in polys]:
        shapes.setdefault((poly.dim, poly.nvertices), []).append(poly)
    return shapes


def _draw(data, pool, shape=None):
    """A pool member of the given shape, or of a drawn one: drawing the
    shape first keeps the few shapes of the polygons frequent."""
    shape = shape or data.draw(st.sampled_from(sorted(pool)))
    return data.draw(st.sampled_from(pool[shape]))


def _draw_related(data, pool, p):
    """A drawn image of p half of the time, else a pool member of its
    shape, so that kernel pairs are frequent."""
    if data.draw(st.booleans()):
        return _image(data, p)
    return _draw(data, pool, (p.dim, p.nvertices))


class TestKernelPairLemma:
    """The kernel-pair relation is reflexive, symmetric and invariant under
    GL(n,Z) maps and vertex reordering, so the mirror test's third
    condition, (p*, q*) a kernel pair, follows from the other two."""

    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_image_is_kernel_pair(self, reflexive_pool, data):
        p = _draw(data, reflexive_pool)
        assert is_kernel_pair(p, _image(data, p))[0]

    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_verdict_symmetric_and_invariant(self, reflexive_pool, data):
        p = _draw(data, reflexive_pool)
        q = _draw_related(data, reflexive_pool, p)
        verdict = is_kernel_pair(p, q)[0]
        assert is_kernel_pair(q, p)[0] == verdict
        assert is_kernel_pair(_image(data, p), _image(data, q))[0] == verdict

    @given(data=st.data())
    @settings(max_examples=60, derandomize=True, deadline=None)
    def test_mirror_matches_three_conditions(self, reflexive_pool, data):
        p = _draw(data, reflexive_pool)
        p_dual = polar_dual(p)
        q = _draw_related(data, reflexive_pool, p_dual)
        oracle = (oracles.lattice_isomorphism(p_dual, q) is not None
                  and oracles.is_kernel_pair(p, q)[0]
                  and oracles.is_kernel_pair(p_dual, polar_dual(q))[0])
        assert is_mirror_kernel_pair(p, q) == oracle

    @given(data=st.data())
    @settings(max_examples=40, derandomize=True, deadline=None)
    def test_mirror_invariant_under_image_of_dual(self, reflexive_pool, data):
        p = _draw(data, reflexive_pool)
        p_dual = polar_dual(p)
        assert (is_mirror_kernel_pair(p, _image(data, p_dual))
                == is_mirror_kernel_pair(p, p_dual))


class TestNormalForm:
    """The normal form and its kernel invariant decide, and the canonical
    orders witness, the relations that the oracles' bijection search
    decides and witnesses: the same verdicts and kernel-pair witnesses."""

    def test_invariants_match_search_on_fixtures(self, reflexive_pool):
        # every same-dimension ordered pair of the fixtures and their duals
        polys = [p for shape in sorted(reflexive_pool) for p in reflexive_pool[shape]]
        verdicts = []
        for p in polys:
            for q in polys:
                if p.dim != q.dim:
                    continue
                kernel_pair = kernel_invariant(p) == kernel_invariant(q)
                witnessed = oracles.is_kernel_pair(p, q)
                assert kernel_pair == witnessed[0], (p, q)
                assert is_kernel_pair(p, q) == witnessed, (p, q)
                isomorphic = normal_form(p) == normal_form(q)
                u = oracles.lattice_isomorphism(p, q)
                assert isomorphic == (u is not None), (p, q)
                verdicts.append((kernel_pair, isomorphic))
        assert len(verdicts) == 14480
        # isomorphic polytopes are kernel pairs; the converse fails often
        assert {v: verdicts.count(v) for v in set(verdicts)} == {
            (True, True): 296, (True, False): 912, (False, False): 13272}

    def test_normal_form_matches_search_off_reflexive(self, gl_image):
        # every pair of one dimension and vertex count
        shapes = {}
        for poly in off_reflexive_polytopes(gl_image):
            shapes.setdefault((poly.dim, poly.nvertices), []).append(poly)
        found = []
        for group in shapes.values():
            for p in group:
                for q in group:
                    isomorphic = normal_form(p) == normal_form(q)
                    u = oracles.lattice_isomorphism(p, q)
                    assert isomorphic == (u is not None), (p, q)
                    found.append(isomorphic)
        polys = [p for group in shapes.values() for p in group]
        assert sum(has_interior_origin(p) and is_reflexive(p) for p in polys) < 10
        # more isomorphic pairs than each polytope with itself and its image
        assert 2 * len(polys) < found.count(True) < len(found) // 4

    def test_search_and_hnf_match_oracles(self, reflexive_pool, gl_image):
        # the packed search against the tuple rows, and the normal form
        # against the least HNF over every canonical order, on the fixtures
        # and their duals, seeded images of them, and the polytopes of the
        # test above
        pool = [p for shape in sorted(reflexive_pool) for p in reflexive_pool[shape]]
        rng = random.Random(2525)
        images = [gl_image(rng, rng.choice(pool)) for _ in range(200)]
        saturated = 0
        for p in pool + images + list(off_reflexive_polytopes(gl_image)):
            code, orders = oracles.tuple_canonical_orders(p)
            assert _canonical_orders(p) == (code, orders), p
            assert normal_form(p) == oracles.min_order_normal_form(p), p
            first = hnf_rows(tuple(zip(*(p.vertices[i] for i in orders[0]))))
            saturated += (len(orders) > 1 and normal_form(p)[2] == first
                          and all(next(filter(None, r)) == 1 for r in first))
        # the one-HNF case is common among the fixtures
        assert saturated > 20

    def test_first_order_hnf_is_not_enough_off_reflexive(self):
        # the origin is a vertex: every pivot of the first order's HNF is 1,
        # but a later order gives a smaller HNF, and it makes the two
        # isomorphic triangles equal
        p = LatticePolytope(2, ((1, -2), (0, 0), (1, -1)))
        q = LatticePolytope(2, ((-1, 0), (-1, -1), (0, 0)))
        _, orders = _canonical_orders(p)
        first = hnf_rows(tuple(zip(*(p.vertices[i] for i in orders[0]))))
        assert first == ((1, 0, 0), (0, 0, 1))
        assert normal_form(p)[2] == ((0, 1, 0), (0, 0, 1)) < first
        assert normal_form(p) == normal_form(q) == oracles.min_order_normal_form(q)
        assert oracles.lattice_isomorphism(p, q) is not None

    def test_dual_enumerates_nothing(self, records3d, monkeypatch):
        # the dual's pairing matrix is p's transposed: its validation, its
        # canonical orders and its normal form enumerate no facet hyperplane,
        # so they compute no inner product
        p = records3d[427].polytope
        for cached in (_pairing, facets, vertex_facet_sets, polar_dual,
                       _canonical_orders, normal_form):
            cached.cache_clear()
        _pairing(p)
        monkeypatch.setattr(polytope, "combinations", None)
        dual = polar_dual(p)
        assert _pairing(dual) is dual._known_pairing
        assert normal_form(dual) == oracles.min_order_normal_form(dual)

    def test_kernel_invariant_requires_reflexive(self):
        # memoized, but an error is not cached: raised on every call
        p = LatticePolytope(2, ((2, 0), (0, 2), (-2, -2)))
        for _ in range(3):
            with pytest.raises(NotReflexive):
                kernel_invariant(p)
        reflexive = LatticePolytope(2, ((1, 0), (0, 1), (-1, -1)))
        assert kernel_invariant(reflexive) is kernel_invariant(reflexive)

    @given(data=st.data())
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_invariant_under_image(self, reflexive_pool, data):
        p = _draw(data, reflexive_pool)
        assert normal_form(_image(data, p)) == normal_form(p)


class TestKeyLemmaProperty:
    """The Key Lemma as a property: g.P is a kernel pair of P for every
    g in GL(3,Z) and vertex order, so their vertex pencils have the same
    Hasse-Witt polynomial (the invariant at every psi at once)."""

    @given(data=st.data())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_hw_invariant_under_image(self, records3d, data):
        p = data.draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
        delta = records3d[data.draw(st.sampled_from(sorted(records3d)))].polytope
        image = _image(data, delta)
        assert hasse_witt_polynomial(image, p) == hasse_witt_polynomial(delta, p)


class TestCaches:
    def test_polar_dual_memoized_across_ids(self, p113_simplex):
        renamed = LatticePolytope(3, p113_simplex.vertices, 7)
        assert polar_dual(renamed) is polar_dual(p113_simplex)
        assert polar_dual(p113_simplex).id is None

    def test_polar_dual_errors_raised_every_call(self):
        square = LatticePolytope(2, ((2, 0), (0, 2), (-2, 0), (0, -2)))
        for _ in range(2):
            with pytest.raises(NonLatticeDual):
                polar_dual(square)

    def test_facets_cannot_be_passed_in(self):
        # facets handed to the constructor would be cached for every equal
        # polytope; only polar_dual sets them, and only true ones
        verts = ((1, 0), (0, 1), (-1, -1))
        doubled = tuple(FacetInequality(tuple(2 * a for a in f.normal),
                                        2 * f.offset)
                        for f in oracles.hnf_facets(2, verts))
        facets.cache_clear()
        with pytest.raises(TypeError):
            LatticePolytope(2, verts, known_facets=doubled)
        p = LatticePolytope(2, verts)
        assert facets(p) == oracles.hnf_facets(2, verts)
        assert is_reflexive(p)
        assert facets(polar_dual(p)) == oracles.hnf_facets(
            2, polar_dual(p).vertices)

    def test_fixture_loads_compute_no_determinant(self, monkeypatch):
        # loading the bundled polytopes and building their duals finds every
        # normal in closed form; a determinant serves dimension 4 and above
        calls = []

        def counted(m):
            calls.append(len(m))
            return det(m)

        monkeypatch.setattr(polytope, "det", counted)
        for cached in (_pairing, facets, vertex_facet_sets, polar_dual):
            cached.cache_clear()
        for name in ("polygons2d.txt", "tables3d.txt"):
            for record in load_polytopes(fixture_path(name)):
                polar_dual(record.polytope)
        assert calls == []
        LatticePolytope(4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
                            (0, 0, 0, 1), (-1, -1, -1, -1)))
        assert calls and set(calls) == {3}

    def test_every_cache_is_bounded(self, records2d, records3d):
        # a census touches every fixture polytope and its dual
        distinct = 2 * (len(records2d) + len(records3d))
        for cached in (_pairing, facets, lattice_points, vertex_facet_sets,
                       polar_dual, vertex_kernel, _canonical_orders, normal_form,
                       kernel_invariant, _kernel_plan, _inverse_factorials,
                       _hw_coefficients):
            maxsize = cached.cache_info().maxsize
            assert maxsize is not None and maxsize >= distinct


class TestValueType:
    TRIANGLE = ((1, 0), (0, 1), (-1, -1))

    def test_repr(self):
        assert repr(LatticePolytope(2, self.TRIANGLE, 5)) == (
            "LatticePolytope(dim=2, vertices=((1, 0), (0, 1), (-1, -1)), id=5)")
        assert repr(LatticePolytope(2, [[1, 0], [0, 1], [-1, -1]])) == (
            "LatticePolytope(dim=2, vertices=((1, 0), (0, 1), (-1, -1)), id=None)")

    def test_equality_ignores_id(self):
        p, q = LatticePolytope(2, self.TRIANGLE, 5), LatticePolytope(2, self.TRIANGLE)
        assert p == q and hash(p) == hash(q) == hash((2, self.TRIANGLE))
        assert p != LatticePolytope(2, self.TRIANGLE[::-1], 5)
        assert p != (2, self.TRIANGLE) and p != self.TRIANGLE
        assert len({p, q}) == 1 and {p: 0}[q] == 0

    def test_immutable(self):
        p = LatticePolytope(2, self.TRIANGLE, 5)
        for name in ("dim", "vertices", "id", "_known_pairing", "other"):
            with pytest.raises(AttributeError):
                setattr(p, name, None)
            with pytest.raises(AttributeError):
                delattr(p, name)
        assert (p.dim, p.vertices, p.id) == (2, self.TRIANGLE, 5)

    @pytest.mark.parametrize("clone", [
        lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy,
    ], ids=["pickle", "copy", "deepcopy"])
    def test_round_trip(self, clone):
        p = LatticePolytope(2, self.TRIANGLE, 5)
        for value in (p, polar_dual(p)):
            twin = clone(value)
            assert (twin, hash(twin), repr(twin)) == (value, hash(value), repr(value))
            assert facets(twin) == facets(value)
            with pytest.raises(AttributeError):
                twin.id = 6

    def test_facet_and_kernel_values(self):
        f = FacetInequality((1, 0), 1)
        k = vertex_kernel(LatticePolytope(2, self.TRIANGLE))
        assert (f.normal, f.offset, k.ambient_rank, k.basis, k.rank) == (
            (1, 0), 1, 3, ((1, 1, 1),), 1)
        assert k == KernelLattice(3, ((1, 1, 1),))
        for value, name in ((f, "offset"), (k, "basis")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)


# coordinates other than an int: a bool, read as 0 or 1, and values refused
COORDINATES = st.one_of(st.booleans(), st.floats(),
                        st.fractions(max_denominator=3), st.text(max_size=2),
                        st.none())


@st.composite
def shapes(draw):
    """(dim, vertices): integer points, or such points with one part spoilt."""
    n = draw(st.integers(1, 4))
    verts = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                          min_size=n + 1, max_size=n + 2, unique_by=tuple))
    spoil = draw(st.sampled_from(["none", "none", "dim", "vertices", "point",
                                  "coordinate"]))
    i = draw(st.integers(0, len(verts) - 1))
    if spoil == "dim":
        n = draw(st.one_of(st.integers(-1, 5), COORDINATES))
    elif spoil == "vertices":
        verts = draw(COORDINATES)
    elif spoil == "point":  # ragged, nested or not a sequence
        verts[i] = draw(st.one_of(
            st.lists(COORDINATES, max_size=5),
            st.lists(st.lists(st.integers(-1, 1), max_size=2), max_size=3),
            COORDINATES))
    elif spoil == "coordinate":
        verts[i][draw(st.integers(0, len(verts[i]) - 1))] = draw(COORDINATES)
    return n, verts


@settings(max_examples=150, derandomize=True, deadline=None)
@given(shapes())
def test_constructor_builds_or_refuses(shape):
    dim, vertices = shape
    try:
        p = LatticePolytope(dim, vertices)
    except DegeneratePolytope:
        return
    rebuilt = LatticePolytope(p.dim, p.vertices)
    assert rebuilt == p and hash(rebuilt) == hash(p)


class TestValidation:
    def test_duplicate_vertices(self):
        with pytest.raises(DegeneratePolytope):
            LatticePolytope(2, ((1, 0), (1, 0), (0, 1)))

    def test_not_full_dimensional(self):
        with pytest.raises(DegeneratePolytope):
            LatticePolytope(2, ((1, 0), (-1, 0)))

    def test_non_vertex_point(self):
        with pytest.raises(DegeneratePolytope):
            LatticePolytope(2, ((1, 1), (-1, 1), (-1, -1), (1, -1), (0, 0)))

    @pytest.mark.parametrize("bad", [1.9, Fraction(3, 2), "1"],
                             ids=["float", "Fraction", "str"])
    def test_non_integer_coordinate_is_refused(self, bad):
        # int() would truncate 1.9 to the vertex (1, 0) of a valid triangle
        with pytest.raises(DegeneratePolytope) as exc:
            LatticePolytope(2, ((bad, 0), (0, 1), (-1, -1)))
        assert str(exc.value) == f"coordinate {bad!r} is not an integer"

    @pytest.mark.parametrize("dim, vertices, message", [
        (2, (1, 2), "vertices (1, 2) are not a sequence of points"),
        (2, None, "vertices None are not a sequence of points"),
        ("2", ((1, 0), (0, 1), (-1, -1)), "dim '2' is not an integer"),
    ], ids=["flat-vertices", "no-vertices", "str-dim"])
    def test_malformed_shape_is_refused(self, dim, vertices, message):
        with pytest.raises(DegeneratePolytope) as exc:
            LatticePolytope(dim, vertices)
        assert str(exc.value) == message


# points in an affine subspace of codimension >= 2 span no facet; the other
# sets span one hyperplane that is tight on every point
LOW_DIMENSIONAL = {
    "collinear-3d": (3, ((0, 0, 0), (1, 1, 1), (-1, -1, -1), (2, 2, 2))),
    "triangle-4d": (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, 0))),
    "point-1d": (1, ((3,),)),
    "point-3d": (3, ((1, -1, 2),)),
    "dim-points-2d": (2, ((1, 0), (0, 1))),
    "dim-points-4d": (4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))),
    "square-in-3d": (3, ((1, 1, 0), (-1, 1, 0), (-1, -1, 0), (1, -1, 0))),
}


@pytest.mark.parametrize("dim, pts", LOW_DIMENSIONAL.values(), ids=LOW_DIMENSIONAL)
def test_low_dimensional_vertex_lists_are_refused(dim, pts):
    message = rank_vertex_oracle(dim, pts)
    assert message == "vertex list is not full-dimensional"
    with pytest.raises(DegeneratePolytope) as exc:
        LatticePolytope(dim, pts)
    assert str(exc.value) == message


def laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def rank_vertex_oracle(dim, points):
    """The DegeneratePolytope message LatticePolytope should raise, or None.

    A listed point is a vertex iff the normals of the supporting
    hyperplanes through it span: hyperplanes through dim affinely
    independent listed points, normals by cofactors, ranks by Fraction
    elimination.
    """
    if len(set(points)) != len(points):
        return "duplicate vertices"
    diffs = [tuple(x - y for x, y in zip(v, points[0])) for v in points[1:]]
    if oracles.frac_rank(diffs) < dim:
        return "vertex list is not full-dimensional"
    supporting = []
    for sub in combinations(points, dim):
        rows = [tuple(x - y for x, y in zip(v, sub[0])) for v in sub[1:]]
        normal = tuple((-1) ** j * laplace_det([r[:j] + r[j + 1:] for r in rows])
                       for j in range(dim))
        if not any(normal):
            continue
        vals = [sum(a * x for a, x in zip(normal, v)) for v in points]
        c = vals[points.index(sub[0])]
        if min(vals) == c or max(vals) == c:
            supporting.append((normal, c))
    for v in points:
        tight = [a for a, c in supporting
                 if sum(x * y for x, y in zip(a, v)) == c]
        if oracles.frac_rank(tight) < dim:
            return f"point {v} is not a vertex"
    return None


def off_reflexive_polytopes(gl_image):
    """Seeded lattice polytopes in dimensions 1-4, mostly not reflexive,
    each followed by an image."""
    rng = random.Random(2424)
    for dim, pts in random_point_sets(200):
        try:
            p = LatticePolytope(dim, pts)
        except DegeneratePolytope:
            continue
        yield p
        yield gl_image(rng, p)


def random_point_sets(count, seed=2121):
    """Seeded point sets in dimensions 1-4 with lattice midpoints of random
    pairs mixed in: edge, facet and interior points, some duplicates, and
    some sets that are not full-dimensional."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 4)
        pts = [tuple(rng.randint(-2, 2) for _ in range(dim))
               for _ in range(rng.randint(dim + 1, dim + 4))]
        if rng.random() < 0.1:  # squash onto the hyperplane x_0 = x_(dim-1)
            pts = [(v[-1],) + v[1:] for v in pts]
        for _ in range(rng.randint(0, 2)):
            a, b = rng.sample(pts, 2)
            if all((x + y) % 2 == 0 for x, y in zip(a, b)):
                pts.append(tuple((x + y) // 2 for x, y in zip(a, b)))
        if rng.random() > 0.1:
            pts = list(dict.fromkeys(pts))
        rng.shuffle(pts)
        yield dim, tuple(pts)


def test_vertex_validation_matches_rank_oracle():
    outcomes = []
    for dim, pts in random_point_sets(600):
        try:
            LatticePolytope(dim, pts)
            got = None
        except DegeneratePolytope as exc:
            got = str(exc)
        assert got == rank_vertex_oracle(dim, pts), (dim, pts)
        outcomes.append(got.split(" ")[0] if got else "ok")
    # every outcome occurs, non-vertex points in many sets
    assert outcomes.count("point") > 150 and outcomes.count("ok") > 150
    assert outcomes.count("duplicate") > 5 and outcomes.count("vertex") > 5
