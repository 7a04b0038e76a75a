"""Truncated pFq mod p, Pochhammer, Clausen identities, quadratic residues."""

import time
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmt import hypergeometric as HG_MODULE
from hwmt.errors import BadDenominator, BudgetExceeded, PsiNotInvertible
from hwmt.families import get_family
from hwmt.hasse_witt import hasse_witt
from hwmt.hypergeometric import (
    HypergeometricData,
    clausen_check,
    is_prime,
    pfq_taylor,
    quadratic_residue_check,
    truncated_pFq,
)

from oracles import _series_term, pochhammer_mod_p, series_square

F = Fraction


def test_is_prime_matches_every_divisor():
    for n in range(-3, 3000):
        assert is_prime(n) == (n > 1 and all(n % d for d in range(2, n)))


class TestPochhammer:
    @pytest.mark.parametrize("a", [F(1, 2), F(3), F(-2, 5)])
    def test_n_zero_is_one(self, a):
        assert pochhammer_mod_p(a, 0, 7) == 1

    @given(st.integers(0, 10))
    @settings(deadline=None)
    def test_one_gives_factorial(self, n):
        assert pochhammer_mod_p(F(1), n, 13) == factorial(n) % 13

    def test_half_squared(self):
        # (1/2)_2 = 3/4; 4^{-1} = 2 mod 7, so 3*2 = 6
        assert pochhammer_mod_p(F(1, 2), 2, 7) == 6

    def test_bad_denominator(self):
        with pytest.raises(BadDenominator):
            pochhammer_mod_p(F(1, 7), 2, 7)


class TestTruncatedPFQ:
    def test_legendre_at_one_p5(self):
        data = HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(1), 0))
        # 1 + 4 + 1 + 0 + 0 = 6 == 1 mod 5
        assert truncated_pFq(data, 1, 5).value == 1

    def test_zero_argument_is_one(self):
        data = HypergeometricData((F(1, 2), F(1, 3)), (F(1),), (F(0), 1))
        for p in (5, 7, 11):
            assert truncated_pFq(data, 3, p).value == 1

    def test_quartic_row_matches_hw(self):
        data = HypergeometricData(
            (F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)
        )
        assert truncated_pFq(data, 1, 5).value == 0
        assert hasse_witt("quartic", 1, 5).value == 0

    def test_psi_not_invertible(self):
        data = HypergeometricData(
            (F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)
        )
        with pytest.raises(PsiNotInvertible):
            truncated_pFq(data, 5, 5)

    def test_terms_used_is_p(self):
        data = HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(1), 0))
        assert truncated_pFq(data, 1, 7).terms_used == 7

    def test_truncation_guard(self):
        # the term by term reference refuses a degree past the truncation,
        # where n! is not invertible mod p
        data = HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(1), 0))
        with pytest.raises(ValueError):
            _series_term(data, 7, 1, 7, [1] * 7)

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_parameter_permutation_symmetry(self, rng):
        nums = [F(1, 2), F(1, 4), F(3, 4)]
        rng.shuffle(nums)
        data = HypergeometricData(tuple(nums), (F(1), F(1)), (F(2), 1))
        base = HypergeometricData(
            (F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(2), 1)
        )
        assert truncated_pFq(data, 3, 11).value == truncated_pFq(base, 3, 11).value


class TestSeriesBudget:
    def test_refused_before_the_pass(self, monkeypatch):
        # the quartic's 3F2 at p = 10^9 + 7 stops at its upper factor 1/4,
        # after 250000001 steps of 3 + 2 + 4 products; the pass is
        # truncated_pFq's only range()
        def refuse(*args):
            raise AssertionError("the series pass started before the budget")

        monkeypatch.setattr(HG_MODULE, "range", refuse, raising=False)
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="250000001 steps of 9 products, "
                                                 "2250000009 above 10000000"):
            truncated_pFq(get_family("quartic").hg, 1, 1000000007)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
    def test_bound_is_inclusive(self, slack, refused, monkeypatch):
        # 1/4, 1/2, 3/4 are 10, 7, 4 mod 13: the pass stops at n = 4, after
        # 3 steps of 9 products
        data = get_family("quartic").hg
        value = truncated_pFq(data, 2, 13)
        monkeypatch.setattr(HG_MODULE, "SERIES_STEP_BUDGET", 27 + slack)
        if refused:
            with pytest.raises(BudgetExceeded, match="3 steps of 9 products, 27 above 26"):
                truncated_pFq(data, 2, 13)
        else:
            assert truncated_pFq(data, 2, 13) == value

    def test_each_parameter_adds_to_the_cost(self, monkeypatch):
        # every parameter 1/2, which is 7 mod 13: 6 steps for any pFq, of
        # 7 products for the 2F1 and 51 for the 24F23
        def series(k):
            return HypergeometricData([Fraction(1, 2)] * k, [1] * (k - 1), (1, 1))

        monkeypatch.setattr(HG_MODULE, "SERIES_STEP_BUDGET", 100)
        assert truncated_pFq(series(2), 3, 13).terms_used == 13
        with pytest.raises(BudgetExceeded, match="6 steps of 51 products, 306 above 100"):
            truncated_pFq(series(24), 3, 13)


class TestClausen:
    def test_formal_series_group1(self):
        # 2F1(1/6,1/3;1)^2 == 3F2(1/2,1/3,2/3;1,1) through degree 10 over Q
        small = pfq_taylor((F(1, 6), F(1, 3)), (F(1),), 11)
        big = pfq_taylor((F(1, 2), F(1, 3), F(2, 3)), (F(1), F(1)), 11)
        assert series_square(small) == big

    def test_formal_series_group2(self):
        small = pfq_taylor((F(1, 8), F(3, 8)), (F(1),), 11)
        big = pfq_taylor((F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), 11)
        assert series_square(small) == big

    @given(
        st.fractions(min_value=F(-3), max_value=F(3)),
        st.fractions(min_value=F(-3), max_value=F(3)),
    )
    @settings(max_examples=100, deadline=None)
    def test_formal_clausen_random_parameters(self, a, b):
        # Clausen: 2F1(a,b;a+b+1/2)^2 = 3F2(2a,2b,a+b;2a+2b,a+b+1/2)
        c = a + b + F(1, 2)
        if c.denominator == 1 and c <= 0:
            return
        two_ab = 2 * a + 2 * b
        if two_ab.denominator == 1 and two_ab <= 0:
            return
        small = pfq_taylor((a, b), (c,), 8)
        big = pfq_taylor((2 * a, 2 * b, a + b), (two_ab, c), 8)
        assert series_square(small) == big

    @pytest.mark.parametrize("psi", [1, 5, 8, 12])
    def test_group2_failures_at_13(self, psi):
        assert clausen_check("group2", psi, 13) is False

    def test_vanishing_argument_case_is_unreachable_for_group1(self):
        # the argument -108/psi^3 vanishes mod p only for p | 108, i.e.
        # p in {2, 3}, where the parameters 1/6 and 1/3 themselves are not
        # invertible; the z = 0 -> both sides 1 case cannot occur at a
        # valid prime for these families
        with pytest.raises(BadDenominator):
            clausen_check("group1", 1, 3)

    def test_vanishing_argument_gives_one_for_compatible_parameters(self):
        small = HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(7), 1))
        assert truncated_pFq(small, 0, 7).value == 1  # argument 7*psi == 0

    def test_group1_holds_somewhere(self):
        results = {p: clausen_check("group1", 1, p) for p in (5, 7, 11, 13, 17)}
        assert any(results.values())


class TestQuadraticResidue:
    def test_zero(self):
        assert quadratic_residue_check(0, 13) == "zero"

    def test_four_is_square(self):
        assert quadratic_residue_check(4, 13) == "residue"

    @pytest.mark.parametrize("psi", [1, 5, 8, 12])
    def test_group2_hw_nonresidue_at_13(self, psi):
        value = hasse_witt("group2", psi, 13).value
        assert quadratic_residue_check(value, 13) == "nonresidue"

    @given(st.integers(0, 12))
    @settings(deadline=None)
    def test_euler_criterion_matches_square_table(self, v):
        squares = {x * x % 13 for x in range(1, 13)}
        verdict = quadratic_residue_check(v, 13)
        if v == 0:
            assert verdict == "zero"
        else:
            assert (verdict == "residue") == (v in squares)


class TestDataValidation:
    def test_nonpositive_integer_lower_parameter_rejected(self):
        with pytest.raises(ValueError):
            HypergeometricData((F(1, 2), F(1, 2)), (F(0),), (F(1), 0))
        with pytest.raises(ValueError):
            HypergeometricData((F(1, 2), F(1, 2)), (F(-2),), (F(1), 0))

    def test_pfq_shape_enforced(self):
        with pytest.raises(ValueError):
            HypergeometricData((F(1, 2),), (F(1), F(1)), (F(1), 0))


class TestArgumentString:
    @pytest.mark.parametrize("argument, text", [
        ((F(1), 1), "psi"),
        ((F(1), 3), "psi^3"),
        ((F(1, 256), 4), "psi^4/256"),
        ((F(-1, 4), 2), "-1/4*psi^2"),
        ((F(3, 2), 1), "3/2*psi"),
        ((F(1), -2), "1/psi^2"),
        ((F(-108), -3), "-108/psi^3"),
        ((F(5), 0), "5"),
    ])
    def test_argument_str(self, argument, text):
        data = HypergeometricData((F(1, 2), F(1, 2)), (F(1),), argument)
        assert data.argument_str() == text
        assert str(data) == f"2F1(1/2,1/2;1 | {text})"
