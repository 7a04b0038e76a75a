"""Family data: the printed-model target and smoothness are derived from
the stored vertex-pencil target and the printed coefficient on psi."""

from dataclasses import fields, replace
from fractions import Fraction

import pytest

from hwmt.families import FAMILIES, FamilyTag, get_family
from hwmt.hypergeometric import HypergeometricData
from hwmt.polytope import vertex_kernel

from oracles import argument_at

F = Fraction

# the paper's printed targets for the model equations
PRINTED = {
    "quartic": (HypergeometricData((F(1, 4), F(1, 2), F(3, 4)), (1, 1), (1, -4)),
                "3F2(1/4,1/2,3/4;1,1 | 1/psi^4)"),
    "sextic": (HypergeometricData((F(1, 6), F(1, 2), F(5, 6)), (1, 1), (1728, -6)),
               "3F2(1/6,1/2,5/6;1,1 | 1728/psi^6)"),
}


def test_model_hg_is_not_stored():
    assert "model_hg" not in {f.name for f in fields(FamilyTag)}


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_model_hg_is_built_once_per_tag(name, monkeypatch):
    fam = replace(get_family(name))  # a fresh tag, nothing cached yet
    built = []
    post_init = HypergeometricData.__post_init__
    monkeypatch.setattr(HypergeometricData, "__post_init__",
                        lambda self: built.append(1) or post_init(self))
    assert fam.model_hg is fam.model_hg and len(built) == 1
    assert fam == get_family(name) and hash(fam) == hash(get_family(name))


@pytest.mark.parametrize("name", sorted(PRINTED))
def test_derived_target_is_the_printed_one(name):
    data, text = PRINTED[name]
    target = get_family(name).model_hg
    assert target == data
    assert str(target) == text


@pytest.mark.parametrize("name", ["elliptic", "group1", "group2"])
def test_unit_psi_coefficient_keeps_the_vertex_target(name):
    fam = get_family(name)
    assert fam.model_psi_coeff == 1 and fam.model_hg == fam.hg


def _stored_rule(fam, psi):
    """Smoothness of the printed model as the families once stored it: the
    printed target's argument must differ from 1."""
    if psi == 0:
        return False
    if fam.name in PRINTED:
        return argument_at(PRINTED[fam.name][0], psi) != 1
    return fam.is_smooth(psi)


@pytest.mark.parametrize("psi", [0, 1, -1, 4, -4, F(1, 2), 3])
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_is_smooth_model_matches_stored_rule(name, psi):
    fam = get_family(name)
    assert fam.is_smooth_model(psi) == _stored_rule(fam, F(psi))


# signed integers and fractions; the rational conifold values (c psi^e = 1)
# are +-4 for elliptic, quartic and group2, and sextic and group1 have none
SMOOTHNESS_GRID = sorted({F(a, b) for a in range(-20, 21)
                          for b in (1, 2, 3, 4, 5, 16)})
CONIFOLD = {"elliptic": (4, -4), "quartic": (4, -4), "group2": (4, -4)}


@pytest.mark.parametrize("argument", [
    None, (F(1), 0), (F(2), 0), (F(-1), 1), (F(8), -3), (F(-27, 8), 3),
    (F(-16, 81), -4), (F(9, 4), 2),
], ids=str)
@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_is_smooth_in_integers_matches_argument_at(name, argument):
    fam = get_family(name)
    if argument is not None:
        fam = replace(fam, hg=replace(fam.hg, argument=argument))
    singular = 0
    for psi in SMOOTHNESS_GRID:
        expected = psi != 0 and argument_at(fam.hg, psi) != 1
        assert fam.is_smooth(psi) is expected
        assert fam.is_smooth(str(psi)) is expected
        if psi.denominator == 1:
            assert fam.is_smooth(int(psi)) is expected
        singular += not expected
    # psi = 0, and each rational conifold value the grid holds
    if argument is None:
        assert singular == 1 + len(CONIFOLD.get(name, ()))
        assert not any(fam.is_smooth(psi) for psi in CONIFOLD.get(name, ()))


def test_elliptic_vertices_are_in_ruling_order():
    # the model's variables (x0, x1, y0, y1) are the polytope's vertices
    fam = get_family("elliptic")
    assert vertex_kernel(fam.polytope).basis == ((1, 1, 0, 0), (0, 0, 1, 1))
    for _, exps in fam.model_polynomial(3):
        assert (exps[0] + exps[1], exps[2] + exps[3]) == (2, 2)
