"""Vertex pencils, homogeneous forms, specialization, smoothness."""

from fractions import Fraction

import pytest

from hwmt.errors import UnknownFamily, UnsupportedMonomial
from hwmt.families import FAMILIES, get_family
from hwmt.pencil import (
    build_vertex_pencil,
    homogeneous_form,
    specialize,
)
from hwmt.polytope import polar_dual


def exponent_set(pencil):
    return {t.exponent for t in pencil.terms if t.psi_coeff == 0}


class TestBuildVertexPencil:
    def test_exponents_are_dual_vertices(self, p3_simplex):
        pencil = build_vertex_pencil(p3_simplex)
        assert exponent_set(pencil) == set(polar_dual(p3_simplex).vertices)
        origin = pencil.terms[-1]
        assert origin.exponent == (0, 0, 0)
        assert origin.psi_coeff == 1 and origin.const == 0

    def test_fermat_laurent_form(self, p3_simplex):
        # the pencil with monomials x, y, z, 1/(xyz) + psi belongs to the
        # polytope whose polar dual is the P^3 simplex
        quartic_monomials = polar_dual(p3_simplex)
        pencil = build_vertex_pencil(quartic_monomials)
        assert exponent_set(pencil) == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
        }

    def test_cross_polytope(self, cross_polytope):
        pencil = build_vertex_pencil(cross_polytope)
        assert exponent_set(pencil) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_p113_dual_exponents(self, p113_simplex):
        pencil = build_vertex_pencil(p113_simplex)
        assert exponent_set(pencil) == {
            (1, -1, -1), (-1, 5, -1), (-1, -1, 5), (-1, -1, -1),
        }


class TestPencilInvariants:
    def test_valid(self, records2d, records3d):
        # build_vertex_pencil is the only constructor: every pencil it builds
        # has distinct exponents and psi only on the origin, as its last term
        polys = [r.polytope for recs in (records2d, records3d) for r in recs.values()]
        polys += [fam.polytope for fam in FAMILIES.values()]
        for delta in polys:
            pencil = build_vertex_pencil(delta)
            exps = [t.exponent for t in pencil.terms]
            assert len(set(exps)) == len(exps) == polar_dual(delta).nvertices + 1
            *vertex_terms, origin = pencil.terms
            assert origin.exponent == (0,) * delta.dim
            assert (origin.const, origin.psi_coeff) == (0, 1)
            assert all(t.psi_coeff == 0 for t in vertex_terms)


class TestHomogeneousForm:
    def test_quartic(self, p3_simplex):
        coeffs = {v: Fraction(1) for v in polar_dual(p3_simplex).vertices}
        coeffs[(0, 0, 0)] = Fraction(1)
        form = homogeneous_form(p3_simplex, coeffs)
        monos = {exps for exps, _ in form}
        assert monos == {
            (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1),
        }

    def test_sextic_weighted(self, p113_simplex):
        coeffs = {v: Fraction(1) for v in polar_dual(p113_simplex).vertices}
        coeffs[(0, 0, 0)] = Fraction(1)
        form = homogeneous_form(p113_simplex, coeffs)
        monos = sorted(exps for exps, _ in form)
        assert monos == sorted(
            [(2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6), (1, 1, 1, 1)]
        )

    def test_origin_gives_product_of_all_variables(self, p3_simplex):
        form = homogeneous_form(p3_simplex, {(0, 0, 0): Fraction(1)})
        assert form == (((1,) * p3_simplex.nvertices, Fraction(1)),)

    def test_unsupported_monomial(self, p3_simplex):
        with pytest.raises(UnsupportedMonomial):
            homogeneous_form(p3_simplex, {(9, 9, 9): Fraction(1)})


class TestSpecialize:
    def test_at_zero_drops_origin(self, p3_simplex):
        quartic_side = build_vertex_pencil(polar_dual(p3_simplex))
        poly = specialize(quartic_side, 0)
        assert all(e != (0, 0, 0) for e, _ in poly.terms)

    def test_psi_three_halves(self, p3_simplex):
        quartic_side = build_vertex_pencil(polar_dual(p3_simplex))
        poly = specialize(quartic_side, Fraction(3, 2))
        const = dict(poly.terms)[(0, 0, 0)]
        assert const == Fraction(3, 2)


class TestSmoothness:
    @pytest.mark.parametrize("psi,expected", [(4, False), (-4, False),
                                              (1, True), (0, False)])
    def test_elliptic(self, psi, expected):
        assert get_family("elliptic").is_smooth(psi) is expected

    @pytest.mark.parametrize("psi", [4, -4])
    def test_group2_singular_at_fourth_roots_of_256(self, psi):
        assert not get_family("group2").is_smooth(psi)

    def test_quartic_vertex_convention_smooth_at_one(self):
        # 256/psi^4 = 256 != 1 at psi = 1 in the vertex-pencil convention
        assert get_family("quartic").is_smooth(1)

    def test_printed_quartic_model_singular_at_one(self):
        assert not get_family("quartic").is_smooth_model(1)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            get_family("septic").is_smooth(1)


class TestKernelPairNaturality:
    def test_pencil_exponent_relations_coincide(self, records3d):
        # for a mirror kernel pair the dual polytopes are again a kernel
        # pair, so the pencils' exponent vectors satisfy the same Z-linear
        # relations under the witness bijection
        from hwmt.intlinalg import left_kernel
        from hwmt.polytope import is_kernel_pair

        a, b = records3d[2].polytope, records3d[4317].polytope
        dual_a, dual_b = polar_dual(a), polar_dual(b)
        ok, witness = is_kernel_pair(dual_a, dual_b)
        assert ok
        exps_a = [t.exponent for t in build_vertex_pencil(a).terms
                  if any(t.exponent)]
        exps_b_all = [t.exponent for t in build_vertex_pencil(b).terms
                      if any(t.exponent)]
        # pencil exponents are the dual vertices, in dual vertex order
        assert tuple(exps_a) == dual_a.vertices
        reordered = tuple(exps_b_all[witness[i]] for i in range(len(witness)))
        assert left_kernel(tuple(exps_a)) == left_kernel(reordered)
