"""Exact point counts over F_p and the N == 1 +- truncation congruences."""

import time
import tracemalloc
from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmt.errors import (
    BudgetExceeded,
    NonHomogeneous,
    SingularMember,
    UncountableAmbient,
)
from hwmt.families import FAMILIES, get_family
from hwmt.hypergeometric import truncated_pFq
from hwmt.point_count import (
    congruence_check,
    count_family,
    count_graded,
)
from hwmt.polytope import vertex_kernel

from oracles import P1_X_P1

F = Fraction
P3 = ((1, 1, 1, 1),)


class TestProjective:
    def test_hyperplane_p3(self):
        assert count_graded([(1, (1, 0, 0, 0))], P3, 5) == 31

    def test_smooth_quadric_surface(self):
        poly = [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 0, 2, 0)),
                (1, (0, 0, 0, 2))]
        # smooth quadric has (p+1)^2 points
        assert count_graded(poly, P3, 3) == 16

    def test_whole_space_sanity(self):
        assert count_graded([], P3, 5) == (5**4 - 1) // 4

    def test_fermat_quartic_congruence(self):
        fam = get_family("quartic")
        ok, count, trunc = congruence_check(fam, 2, 5)
        assert ok
        assert count % 5 == (1 + trunc) % 5

    def test_rejects_inhomogeneous(self):
        with pytest.raises(NonHomogeneous):
            count_graded([(1, (1, 0)), (1, (2, 0))], ((1, 1),), 5)


class TestWeightedProjective:
    def test_whole_space_equals_projective_count(self):
        assert count_graded([], ((1, 1, 1, 3),), 5) == 156

    def test_weight3_coordinate_hyperplane(self):
        # x_0 = 0 inside P(3,1,1,1) leaves a P(1,1,1) = P^2
        assert count_graded([(1, (1, 0, 0, 0))], ((3, 1, 1, 1),), 5) == 31

    def test_sextic_congruence(self):
        ok, count, trunc = congruence_check("sextic", 1, 7)
        assert ok and count % 7 == (1 + trunc) % 7

    def test_rejects_wrong_weights(self):
        with pytest.raises(NonHomogeneous):
            count_graded(
                [(1, (2, 0, 0, 0)), (1, (0, 6, 0, 0))], ((1, 1, 1, 3),), 5
            )


class TestBiprojective:
    def test_two_rulings(self):
        # x0 * y0 = 0 is a union of two rulings: 2(p+1) - 1 points
        assert count_graded([(1, (1, 0, 1, 0))], P1_X_P1, 5) == 11

    def test_whole_space(self):
        assert count_graded([], P1_X_P1, 5) == 36

    def test_rejects_unbalanced(self):
        with pytest.raises(NonHomogeneous):
            count_graded([(1, (2, 0, 1, 0)), (1, (1, 0, 2, 0))], P1_X_P1, 5)


class TestGrading:
    @pytest.mark.parametrize("name,grading", [
        ("quartic", ((1, 1, 1, 1),)),
        ("sextic", ((3, 1, 1, 1),)),
        ("elliptic", ((1, 1, 0, 0), (0, 0, 1, 1))),
    ])
    def test_family_grading_is_its_vertex_kernel(self, name, grading):
        assert vertex_kernel(get_family(name).polytope).basis == grading

    @pytest.mark.parametrize("name", ["group1", "group2"])
    def test_group_gradings_are_uncountable(self, name):
        fam = get_family(name)
        grading = vertex_kernel(fam.polytope).basis
        with pytest.raises(UncountableAmbient):
            count_graded(fam.model_polynomial(2), grading, 5)

    @pytest.mark.parametrize("name", sorted(FAMILIES))
    def test_model_names_the_graded_ambient(self, name):
        # `model` is printed output; it must name the ambient the grading
        # selects
        fam = get_family(name)
        grading = vertex_kernel(fam.polytope).basis
        if grading == P1_X_P1:
            ambient = "biprojective"
        elif len(grading) == 1:
            ambient = ("projective" if set(grading[0]) == {1}
                       else "weighted_projective")
        else:
            ambient = None
        assert fam.model == ambient

    @pytest.mark.parametrize("grading", [P3, P1_X_P1])
    def test_rejects_a_monomial_off_the_grading_width(self, grading):
        with pytest.raises(NonHomogeneous):
            count_graded([(1, (1, 0, 1))], grading, 5)

    def test_rejects_a_nonpositive_weight(self):
        with pytest.raises(UncountableAmbient):
            count_graded([(1, (1, 1))], ((1, -1),), 5)

    @pytest.mark.parametrize("grading", [
        ((1, 1, 0), (0, 1, 1)),
        ((1, 1, 0),),
        ((1, 1), (0, 0)),
        (),
    ], ids=["rows-overlap", "unweighted-variable", "empty-row", "no-rows"])
    def test_rejects_a_grading_that_is_no_product(self, grading):
        # countable: every variable has a positive weight in exactly one row
        with pytest.raises(UncountableAmbient):
            count_graded([], grading, 5)

    def test_interleaved_rulings_are_p1_x_p1(self):
        # x0 * x1 = 0 with x0, x1 in different rows: two rulings again
        grading = ((1, 0, 1, 0), (0, 1, 0, 1))
        assert count_graded([(1, (1, 1, 0, 0))], grading, 5) == 11


@cache
def _weighted_monomials(weights, degree):
    return [e for e in product(*(range(degree // w + 1) for w in weights))
            if sum(w * a for w, a in zip(weights, e)) == degree]


@st.composite
def _graded_counts(draw):
    """(p, weights, poly, perm): a weighted-homogeneous polynomial, half of
    the time of the diagonal-plus-monomial shape the character sums take,
    and a permutation of its variables."""
    p = draw(st.sampled_from((3, 5, 7)))
    weights = tuple(draw(st.lists(st.sampled_from((1, 2, 3)),
                                  min_size=2, max_size=4)))
    n = len(weights)
    degree = lcm(*weights) * draw(st.sampled_from((1, 2)))
    monomials = _weighted_monomials(weights, degree)
    full = [e for e in monomials if min(e) > 0]
    if full and draw(st.booleans()):
        chosen = [tuple(degree // w if j == i else 0 for j in range(n))
                  for i, w in enumerate(weights)]
        chosen.append(draw(st.sampled_from(full)))
    else:
        chosen = draw(st.lists(st.sampled_from(monomials),
                               min_size=1, max_size=5))
    coeffs = draw(st.lists(st.integers(1, p - 1),
                           min_size=len(chosen), max_size=len(chosen)))
    perm = draw(st.permutations(range(n)))
    return p, weights, list(zip(coeffs, chosen)), perm


@settings(derandomize=True, deadline=None)
@given(_graded_counts())
def test_permuting_variables_with_the_grading_keeps_the_count(case):
    p, weights, poly, perm = case
    moved = [(c, tuple(e[i] for i in perm)) for c, e in poly]
    moved_weights = tuple(weights[i] for i in perm)
    assert (count_graded(poly, (weights,), p)
            == count_graded(moved, (moved_weights,), p))


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
        # x0^3 x1 takes the quartic off the character-sum shape; the strata
        # of P^3 would visit 1009^2 + 1009 + 1 prefixes, and each fiber of
        # degree 4 in x3 costs up to 1009 evaluations
        poly = [(1, e) for e in ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0),
                                 (0, 0, 0, 4), (3, 1, 0, 0))]
        poly.append((-8, (1, 1, 1, 1)))
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            count_graded(poly, P3, 1009)
        assert time.perf_counter() - start < 1

    def test_quadratic_fibers_refused_by_their_prefix_count(self):
        # a quadric's fibers are closed-form lookups, one step each; the
        # strata of P^3 would visit 3163^2 + 3163 + 1 = 10,007,733 prefixes
        poly = [(1, (2, 0, 0, 0)), (1, (0, 2, 0, 0)), (1, (0, 1, 1, 0)),
                (3, (0, 0, 0, 2))]
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="10007733 steps"):
            count_graded(poly, P3, 3163)
        assert time.perf_counter() - start < 1

    def test_fibered_count_memory_is_its_tables(self):
        # the elliptic model's fibers are quadratics, each a Legendre lookup
        # with nothing cached, so per residue a count holds one machine
        # integer per power column, a Legendre byte and the prefix values:
        # about 66 bytes at p = 4999
        count_family("elliptic", 2, 5)  # the family's own caches
        p = 4999
        tracemalloc.start()
        try:
            count = count_family("elliptic", 2, p).count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 5096
        assert peak < 100 * p

    def test_character_sum_refused_up_front(self):
        # 4 * 1601^2 character-sum steps
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            count_family("quartic", 2, 1601)
        assert time.perf_counter() - start < 1
