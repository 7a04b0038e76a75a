"""Vertex pencils, homogeneous forms, specialization, smoothness."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import hwmt
from hwmt.errors import MalformedPencil, UnknownFamily, UnsupportedMonomial
from hwmt.families import get_family
from hwmt.pencil import (
    LaurentPencil,
    LaurentTerm,
    build_vertex_pencil,
    homogeneous_form,
    specialize,
)
from hwmt.polytope import lattice_points, polar_dual


def exponent_set(pencil):
    return {t.exponent for t in pencil.terms if t.psi_coeff == 0}


class TestBuildVertexPencil:
    def test_exponents_are_dual_vertices(self, p3_simplex):
        pencil = build_vertex_pencil(p3_simplex)
        assert exponent_set(pencil) == set(polar_dual(p3_simplex).vertices)
        origin = pencil.terms[pencil.psi_term_index]
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
    TERMS = (LaurentTerm((1,), Fraction(1)), LaurentTerm((-1,), Fraction(1)),
             LaurentTerm((0,), Fraction(0), Fraction(1)))

    def test_valid(self):
        assert LaurentPencil(1, self.TERMS, 2).psi_term_index == 2

    @pytest.mark.parametrize("terms,index", [
        (TERMS + (LaurentTerm((1,), Fraction(2)),), 2),  # repeated exponent
        (TERMS, 0),                                      # psi term off the origin
        (TERMS[:2] + (LaurentTerm((0,), Fraction(1)),), 2),  # no psi coefficient
        (TERMS, 3),                                      # index out of range
        (TERMS[:2] + (LaurentTerm((0,), Fraction(0), Fraction(2)),), 2),  # 2 psi
        (TERMS[:2] + (LaurentTerm((0,), Fraction(1), Fraction(1)),), 2),  # 1 + psi
        ((LaurentTerm((1,), Fraction(1), Fraction(1)),) + TERMS[1:], 2),  # psi on x
    ])
    def test_malformed(self, terms, index):
        with pytest.raises(MalformedPencil):
            LaurentPencil(1, terms, index)

    def test_checked_under_optimize(self):
        # python -O strips asserts; the invariants must still be enforced
        code = (
            "from fractions import Fraction as F\n"
            "from hwmt.errors import MalformedPencil\n"
            "from hwmt.pencil import LaurentPencil, LaurentTerm\n"
            "t = (LaurentTerm((1,), F(1)), LaurentTerm((1,), F(2)),\n"
            "     LaurentTerm((0,), F(0), F(1)))\n"
            "for terms, index in ((t, 2), (t[:1] + t[2:], 0)):\n"
            "    try:\n"
            "        LaurentPencil(1, terms, index)\n"
            "    except MalformedPencil:\n"
            "        print('rejected')\n"
        )
        src = str(Path(hwmt.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, env={"PYTHONPATH": src}, check=True)
        assert out.stdout.split() == ["rejected", "rejected"]


class TestHomogeneousForm:
    def test_quartic(self, p3_simplex):
        coeffs = {v: Fraction(1) for v in polar_dual(p3_simplex).vertices}
        coeffs[(0, 0, 0)] = Fraction(1)
        form = homogeneous_form(p3_simplex, coeffs, points=p3_simplex.vertices)
        monos = {exps for exps, _ in form}
        assert monos == {
            (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4), (1, 1, 1, 1),
        }

    def test_sextic_weighted(self, p113_simplex):
        coeffs = {v: Fraction(1) for v in polar_dual(p113_simplex).vertices}
        coeffs[(0, 0, 0)] = Fraction(1)
        form = homogeneous_form(
            p113_simplex, coeffs, points=p113_simplex.vertices
        )
        monos = sorted(exps for exps, _ in form)
        assert monos == sorted(
            [(2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6), (1, 1, 1, 1)]
        )

    def test_origin_gives_product_of_all_variables(self, p3_simplex):
        form = homogeneous_form(p3_simplex, {(0, 0, 0): Fraction(1)})
        nvars = len(
            [v for v in lattice_points(p3_simplex) if v != (0, 0, 0)]
        )
        assert form == (((1,) * nvars, Fraction(1)),)

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
