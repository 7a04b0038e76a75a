"""Exact point counts over F_p and the N == 1 +- truncation congruences."""

import time
from fractions import Fraction

import pytest

from hwmt.errors import (
    BudgetExceeded,
    NonBihomogeneous,
    NonHomogeneous,
    NonWeightedHomogeneous,
    SingularMember,
    UncountableAmbient,
)
from hwmt.families import get_family
from hwmt.hypergeometric import truncated_pFq
from hwmt.point_count import (
    congruence_check,
    count_biprojective,
    count_family,
    count_projective,
    count_weighted_projective,
)

F = Fraction


class TestProjective:
    def test_hyperplane_p3(self):
        assert count_projective([(1, (1, 0, 0, 0))], 3, 5) == 31

    def test_smooth_quadric_surface(self):
        poly = [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)),
                (1, (0, 0, 0, 2))]
        # smooth quadric has (p+1)^2 points
        assert count_projective(poly, 3, 3) == 16

    def test_whole_space_sanity(self):
        assert count_projective([], 3, 5) == (5**4 - 1) // 4

    def test_fermat_quartic_congruence(self):
        fam = get_family("quartic")
        ok, count, trunc = congruence_check(fam, 2, 5)
        assert ok
        assert count % 5 == (1 + trunc) % 5

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NonHomogeneous):
            count_projective([(1, (1, 0)), (1, (2, 0))], 1, 5)


class TestWeightedProjective:
    def test_whole_space_equals_projective_count(self):
        assert count_weighted_projective([], (1, 1, 1, 3), 5) == 156

    def test_weight3_coordinate_hyperplane(self):
        # x_0 = 0 inside P(3,1,1,1) leaves a P(1,1,1) = P^2
        assert count_weighted_projective([(1, (1, 0, 0, 0))], (3, 1, 1, 1), 5) == 31

    def test_sextic_congruence(self):
        ok, count, trunc = congruence_check("sextic", 1, 7)
        assert ok and count % 7 == (1 + trunc) % 7

    def test_rejects_wrong_weights(self):
        with pytest.raises(NonWeightedHomogeneous):
            count_weighted_projective(
                [(1, (2, 0, 0, 0)), (1, (0, 6, 0, 0))], (1, 1, 1, 3), 5
            )


class TestBiprojective:
    def test_two_rulings(self):
        # x0 * y0 = 0 is a union of two rulings: 2(p+1) - 1 points
        assert count_biprojective([(1, (1, 0, 1, 0))], 5) == 11

    def test_whole_space(self):
        assert count_biprojective([], 5) == 36

    def test_rejects_unbalanced(self):
        with pytest.raises(NonBihomogeneous):
            count_biprojective([(1, (2, 0, 1, 0)), (1, (1, 0, 2, 0))], 5)


class TestCongruences:
    @pytest.mark.parametrize("psi,p", [(1, 5), (2, 7), (3, 11), (1, 13)])
    def test_elliptic(self, psi, p):
        ok, count, trunc = congruence_check("elliptic", psi, p)
        assert ok

    def test_elliptic_curve_sign(self):
        # the curve congruence is N == 1 - [truncation]: Katz's formula
        # puts the Hasse-Witt factor in H^1, flipping the sign relative to
        # the K3 surfaces.  At p = 5, psi = 1 the curve has 10 points while
        # the truncation is 1, so the "+" form fails and the "-" form holds.
        fam = get_family("elliptic")
        count = count_family(fam, 1, 5).count
        trunc = truncated_pFq(fam.hg, 1, 5).value
        assert count == 10 and trunc == 1
        assert count % 5 != (1 + trunc) % 5
        assert count % 5 == (1 - trunc) % 5

    @pytest.mark.parametrize("family,psi,p", [
        ("quartic", 2, 7),
        ("sextic", 2, 5),
        ("sextic", 1, 13),
    ])
    def test_k3_models(self, family, psi, p):
        ok, _, _ = congruence_check(family, psi, p)
        assert ok

    def test_group_families_uncountable(self):
        with pytest.raises(UncountableAmbient):
            count_family("group1", 1, 5)

    def test_singular_member_rejected(self):
        with pytest.raises(SingularMember):
            congruence_check("quartic", 1, 5)  # printed model: 1/psi^4 = 1

    @pytest.mark.parametrize("family,p", [
        ("quartic", 101), ("quartic", 211), ("sextic", 101), ("sextic", 211),
        ("elliptic", 1009),
    ])
    def test_large_primes(self, family, p):
        # beyond the reach of a p^(n-1) fibered scan of the K3 models
        for psi in (2, 3):
            ok, count, trunc = congruence_check(family, psi, p)
            assert ok, (family, psi, p, count, trunc)


class TestBudget:
    def test_fibered_scan_refused_up_front(self):
        # x0^3 x1 takes the quartic off the character-sum shape; the fibered
        # scan would visit 1009^3 prefixes
        poly = [(1, e) for e in ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0),
                                 (0, 0, 0, 4), (3, 1, 0, 0))]
        poly.append((-8, (1, 1, 1, 1)))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            count_projective(poly, 3, 1009)
        assert time.perf_counter() - start < 1

    def test_character_sum_refused_up_front(self):
        # 4 * 1601^2 character-sum steps
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            count_family("quartic", 2, 1601)
        assert time.perf_counter() - start < 1
