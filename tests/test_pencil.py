"""Vertex pencils as `pencil build` prints them, the printed models'
homogeneous forms, specialization, smoothness."""

import json
from fractions import Fraction

import pytest

from hwmt.cli import main
from hwmt.errors import UnknownFamily
from hwmt.families import FAMILIES, get_family
from hwmt.polytope import polar_dual

ORIGIN_ROW = {"coeff": "0", "has_psi": True}


def build(capsys, *argv):
    """Rows that `pencil build` prints for these selector arguments."""
    assert main(["pencil", "build", *argv]) == 0
    return json.loads(capsys.readouterr().out)


def pencil_rows(capsys, delta, *argv):
    verts = ";".join(",".join(map(str, v)) for v in delta.vertices)
    return build(capsys, f"--vertices={verts}", *argv)


def exponent_set(rows):
    return {tuple(r["exponent"]) for r in rows if not r["has_psi"]}


class TestBuildVertexPencil:
    def test_exponents_are_dual_vertices(self, capsys, p3_simplex):
        rows = pencil_rows(capsys, p3_simplex)
        assert exponent_set(rows) == set(polar_dual(p3_simplex).vertices)
        assert rows[-1] == {"exponent": [0, 0, 0], **ORIGIN_ROW}

    def test_fermat_laurent_form(self, capsys, p3_simplex):
        # the pencil with monomials x, y, z, 1/(xyz) + psi belongs to the
        # polytope whose polar dual is the P^3 simplex
        rows = pencil_rows(capsys, polar_dual(p3_simplex))
        assert exponent_set(rows) == {
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1),
        }

    def test_cross_polytope(self, capsys, cross_polytope):
        rows = pencil_rows(capsys, cross_polytope)
        assert exponent_set(rows) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_p113_dual_exponents(self, capsys, p113_simplex):
        rows = pencil_rows(capsys, p113_simplex)
        assert exponent_set(rows) == {
            (1, -1, -1), (-1, 5, -1), (-1, -1, 5), (-1, -1, -1),
        }


class TestPencilInvariants:
    def test_valid(self, capsys, records2d, records3d):
        # for every fixture and family the rows are the dual vertices, in
        # dual vertex order with coefficient 1, then the origin carrying psi
        cases = [(r.polytope, pencil_rows(capsys, r.polytope))
                 for recs in (records2d, records3d) for r in recs.values()]
        cases += [(fam.polytope, build(capsys, "--family", name))
                  for name, fam in FAMILIES.items()]
        for delta, rows in cases:
            *vertex_rows, origin = rows
            assert [tuple(r["exponent"]) for r in vertex_rows] == list(
                polar_dual(delta).vertices)
            assert all((r["coeff"], r["has_psi"]) == ("1", False)
                       for r in vertex_rows)
            assert origin == {"exponent": [0] * delta.dim, **ORIGIN_ROW}


class TestHomogeneousForm:
    def test_quartic(self):
        form = get_family("quartic").model_polynomial(1)
        assert dict((exps, c) for c, exps in form) == {
            (4, 0, 0, 0): 1, (0, 4, 0, 0): 1, (0, 0, 4, 0): 1, (0, 0, 0, 4): 1,
            (1, 1, 1, 1): -4,
        }

    def test_sextic_weighted(self):
        form = get_family("sextic").model_polynomial(1)
        monos = sorted(exps for _, exps in form)
        assert monos == sorted(
            [(2, 0, 0, 0), (0, 6, 0, 0), (0, 0, 6, 0), (0, 0, 0, 6), (1, 1, 1, 1)]
        )

    def test_origin_gives_product_of_all_variables(self):
        # the origin comes last, as the product of all variables, with the
        # printed psi coefficient; at psi = 0 it is dropped
        psi = Fraction(3, 2)
        for fam in FAMILIES.values():
            ones = (1,) * fam.polytope.nvertices
            assert fam.model_polynomial(psi)[-1] == (fam.model_psi_coeff * psi, ones)
            assert all(exps != ones for _, exps in fam.model_polynomial(0))


class TestSpecialize:
    def test_at_zero_drops_origin(self, capsys, p3_simplex):
        rows = pencil_rows(capsys, polar_dual(p3_simplex), "--psi", "0")
        assert len(rows) == 4
        assert all(r["exponent"] != [0, 0, 0] for r in rows)

    def test_psi_three_halves(self, capsys, p3_simplex):
        rows = pencil_rows(capsys, polar_dual(p3_simplex), "--psi", "3/2")
        assert rows[-1] == {"exponent": [0, 0, 0], "coeff": "3/2", "has_psi": False}


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
    def test_pencil_exponent_relations_coincide(self, capsys, records3d):
        # for a mirror kernel pair the dual polytopes are again a kernel
        # pair, so the pencils' exponent vectors satisfy the same Z-linear
        # relations under the witness bijection
        from hwmt.intlinalg import left_kernel
        from hwmt.polytope import is_kernel_pair

        a, b = records3d[2].polytope, records3d[4317].polytope
        dual_a, dual_b = polar_dual(a), polar_dual(b)
        ok, witness = is_kernel_pair(dual_a, dual_b)
        assert ok
        exps_a = [tuple(r["exponent"]) for r in build(capsys, "--id", "2")
                  if any(r["exponent"])]
        exps_b_all = [tuple(r["exponent"]) for r in build(capsys, "--id", "4317")
                      if any(r["exponent"])]
        # pencil exponents are the dual vertices, in dual vertex order
        assert tuple(exps_a) == dual_a.vertices
        reordered = tuple(exps_b_all[witness[i]] for i in range(len(witness)))
        assert left_kernel(tuple(exps_a)) == left_kernel(reordered)
