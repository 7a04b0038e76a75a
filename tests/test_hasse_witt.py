"""Constant-term Hasse-Witt invariants, the Key Lemma, and truncations."""

import importlib
import time
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial

import pytest

from hwmt.errors import (
    BudgetExceeded,
    NotKernelPair,
    SingularMember,
    UnknownFamily,
)
from hwmt.families import FAMILIES, get_family
from hwmt.hasse_witt import (
    _hw_coefficients,
    _kernel_plan,
    hasse_witt,
    hasse_witt_polynomial,
    key_lemma_check,
    period_coefficients,
    truncation_relation_check,
)
from hwmt.hypergeometric import truncated_pFq
from hwmt.polytope import LatticePolytope
from hwmt import cli

from oracles import member_terms, zero_sum_exponents

# the module, which the package's hasse_witt function shadows as an attribute
HW_MODULE = importlib.import_module("hwmt.hasse_witt")


def naive_constant_term(terms, e: int):
    """Oracle: expand f^e by repeated dictionary multiplication."""
    origin = (0,) * len(terms[0][0])
    acc = {origin: Fraction(1)}
    for _ in range(e):
        nxt = defaultdict(Fraction)
        for ea, ca in acc.items():
            for eb, cb in terms:
                key = tuple(x + y for x, y in zip(ea, eb))
                nxt[key] += ca * cb
        acc = dict(nxt)
    return acc.get(origin, Fraction(0))


class TestConstantTermPower:
    def test_binomial_middle(self):
        # the segment [-1, 1] is its own dual: the member at psi = 0 is
        # x + 1/x, and the constant term of its square is 2
        segment = LatticePolytope(1, ((1,), (-1,)))
        assert hasse_witt(segment, 0, 3).value == 2

    def test_quartic_psi1_p5(self):
        # contributions: 1 (all psi) + 4!/1^4 = 25 == 0 mod 5
        assert hasse_witt(get_family("quartic").polytope, 1, 5).value == 0

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_oracle_equivalence(self, family, p):
        delta = get_family(family).polytope
        expected = naive_constant_term(member_terms(delta, 2), p - 1)
        assert hasse_witt(delta, 2, p).value == expected % p

    def test_enumerator_against_direct_filter(self):
        exps = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
        found = set(zero_sum_exponents(exps, 6))
        from itertools import product

        direct = set()
        for a in product(range(7), repeat=5):
            if sum(a) == 6 and all(
                sum(ai * w[c] for ai, w in zip(a, exps)) == 0 for c in range(2)
            ):
                direct.add(a)
        assert found == direct


class TestHasseWitt:
    def test_quartic_example(self):
        assert hasse_witt("quartic", 1, 5).value == 0

    def test_katz_projective_rule_cross_check(self):
        # coefficient of (z0 z1 z2 z3)^(p-1) in fhat^(p-1) for the quartic,
        # computed by direct multinomial enumeration over the 5 monomials
        p, psi = 5, 1
        e = p - 1
        target = 0
        for m in range(e // 4 + 1):
            r = e - 4 * m
            # z_i^4 exponents a_i = m each, product term exponent r:
            # column sums m*4 + r = p-1 hold automatically
            coeff = factorial(e) // (factorial(m) ** 4 * factorial(r))
            target += coeff * psi**r
        assert hasse_witt("quartic", psi, p).value == target % p

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_sextic_matches_table_row(self, p):
        fam = get_family("sextic")
        assert hasse_witt(fam, 2, p).value == truncated_pFq(fam.hg, 2, p).value

    def test_singular_member_rejected(self):
        with pytest.raises(SingularMember):
            hasse_witt("elliptic", 4, 7)

    def test_accepts_polytope_input(self, p113_simplex):
        f = member_terms(p113_simplex, 2)
        via_poly = hasse_witt(p113_simplex, 2, 7)
        assert naive_constant_term(f, 6) % 7 == via_poly.value

    def test_pencil_input_is_unknown_family(self, p113_simplex):
        # a list of terms is not an input: a polytope or a family names the
        # vertex pencil
        terms = member_terms(p113_simplex, 2)
        with pytest.raises(UnknownFamily):
            hasse_witt(terms, 2, 7)
        with pytest.raises(UnknownFamily):
            hasse_witt_polynomial(terms, 7)

    def test_family_and_equal_fixture_share_one_entry(self):
        # the memo key is the polytope, and polytope equality ignores the id
        fam = get_family("sextic")
        fixture = LatticePolytope(3, fam.polytope.vertices, 7)
        _hw_coefficients.cache_clear()
        first = hasse_witt(fam, 2, 11).value
        assert hasse_witt(fixture, 2, 11).value == first
        info = _hw_coefficients.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)


class TestSymbolic:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("p", [5, 7])
    def test_degree_bound_and_consistency(self, family, p):
        fam = get_family(family)
        coeffs = hasse_witt_polynomial(fam, p)
        assert len(coeffs) == p  # degree <= p-1
        for psi in (1, 2, 3):
            if not fam.is_smooth(psi):
                continue
            value = sum(c * psi**d for d, c in enumerate(coeffs)) % p
            assert value == hasse_witt(fam, psi, p).value

    def test_quartic_structure(self):
        # only exponents p-1-4m survive for the quartic kernel
        coeffs = hasse_witt_polynomial(get_family("quartic"), 7)
        assert [d for d, c in enumerate(coeffs) if c] == [2, 6]


class TestPeriodCoefficients:
    def test_quartic_multinomials(self, p3_simplex):
        values = period_coefficients(p3_simplex, 9)
        for n in range(10):
            expected = (
                factorial(n) // factorial(n // 4) ** 4 if n % 4 == 0 else 0
            )
            assert values[n] == expected

    def test_cross_binomials(self, cross_polytope):
        values = period_coefficients(cross_polytope, 8)
        for n in range(9):
            expected = comb(n, n // 2) ** 2 if n % 2 == 0 else 0
            assert values[n] == expected

    def test_b0_is_one(self, records3d):
        for rec in list(records3d.values())[::9]:
            assert period_coefficients(rec.polytope, 0)[0] == 1

    def test_takes_a_family_as_hasse_witt_does(self):
        for name, fam in FAMILIES.items():
            by_polytope = period_coefficients(fam.polytope, 12)
            assert period_coefficients(name, 12) == by_polytope
            assert period_coefficients(fam, 12) == by_polytope
        with pytest.raises(UnknownFamily):
            period_coefficients(3, 5)


class TestKeyLemma:
    @pytest.mark.parametrize("pair,psi,p", [((0, 4311), 2, 7), ((2, 4317), 3, 11)])
    def test_table_pairs(self, records3d, pair, psi, p):
        a, b = pair
        ok, hw_a, hw_b = key_lemma_check(
            records3d[a].polytope, records3d[b].polytope, psi, p
        )
        assert ok and hw_a.value == hw_b.value

    def test_self_pair(self, p113_simplex):
        ok, hw_a, hw_b = key_lemma_check(p113_simplex, p113_simplex, 1, 5)
        assert ok

    def test_rejects_non_kernel_pair(self, p3_simplex, p113_simplex):
        with pytest.raises(NotKernelPair):
            key_lemma_check(p3_simplex, p113_simplex, 1, 5)


class TestTruncationRelation:
    @pytest.mark.parametrize("family,psi,p", [
        ("quartic", 2, 7),
        ("group1", 1, 7),
        ("elliptic", 1, 5),
        ("sextic", 3, 11),
        ("group2", 2, 13),
    ])
    def test_families(self, family, psi, p):
        assert truncation_relation_check(family, psi, p)

    def test_plain_polytope_binomial_identity(self, records3d):
        # a polytope outside the named families still satisfies the
        # binomial form of the truncation identity
        poly = records3d[9].polytope  # weights (1,1,2,4)
        assert truncation_relation_check(poly, 2, 7)

    def test_polytope_of_known_family_identified(self, p113_simplex):
        assert truncation_relation_check(p113_simplex, 2, 7)

    def test_a_wrong_inverse_factorial_fails_the_cli_check(self, records3d,
                                                           monkeypatch):
        # the Hasse-Witt side folds the walk with 1/m! mod p, the period side
        # with exact factorials: 1/1! read as 2 must break the identity
        real = HW_MODULE._inverse_factorials

        def wrong(p):
            inv_fact = real(p)
            return [inv_fact[0], 2, *inv_fact[2:]]

        argv = ["verify", "truncation", "--psi", "2", "--primes", "7", "--id"]
        monkeypatch.setattr(HW_MODULE, "_inverse_factorials", wrong)
        _hw_coefficients.cache_clear()
        try:
            failed = [i for i in sorted(records3d) if cli.main(argv + [str(i)]) == 1]
        finally:
            monkeypatch.undo()
            _hw_coefficients.cache_clear()
        assert failed
        assert all(cli.main(argv + [str(i)]) == 0 for i in failed)


class TestErrorPaths:
    def test_not_prime(self):
        with pytest.raises(Exception) as exc:
            hasse_witt("quartic", 1, 6)
        assert "prime" in str(exc.value)

    def test_bad_psi_denominator(self):
        from hwmt.errors import BadDenominator

        with pytest.raises(BadDenominator):
            hasse_witt("quartic", Fraction(1, 5), 5)

    def test_messages_are_the_same_on_a_cache_hit_and_a_miss(self):
        from hwmt.errors import BadDenominator, NotPrime

        cases = [((Fraction(1, 5), 5), BadDenominator,
                  "psi = 1/5 has denominator divisible by 5"),
                 ((2, 6), NotPrime, "6 is not prime"),
                 ((Fraction(1, 6), 6), NotPrime, "6 is not prime")]
        _hw_coefficients.cache_clear()
        for warm in (False, True):
            for args, error, message in cases:
                with pytest.raises(error) as exc:
                    hasse_witt("quartic", *args)
                assert str(exc.value) == message, (warm, args)
            assert _hw_coefficients.cache_info().currsize == warm
            hasse_witt("quartic", 2, 5)


class TestWalkBudget:
    def test_refused_before_the_walk(self, records2d, monkeypatch):
        # the hexagon's dual has a rank 4 kernel: C(1024 + 4, 4) > 4 * 10^10
        walked = []
        monkeypatch.setattr(HW_MODULE, "_walk",
                            lambda plan, e: walked.append(e))
        _hw_coefficients.cache_clear()
        _kernel_plan.cache_clear()
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="46261908225 summands"):
            hasse_witt(records2d[9].polytope, 2, 1009)
        assert time.perf_counter() - start < 0.01
        assert walked == []

    def test_refused_before_the_tables_sized_by_p(self, monkeypatch):
        # the quartic's rank 1 kernel at p = 16777259 bounds C(2^25 + 1, 1)
        # summands; the refusal comes before any list of length p.  The
        # truncation check and the exact periods there are refused first by
        # the periods' bound in bits.
        def refuse(p):
            raise AssertionError("factorial table built before the budget")

        monkeypatch.setattr(HW_MODULE, "_inverse_factorials", refuse)
        _hw_coefficients.cache_clear()
        with pytest.raises(BudgetExceeded, match="33554433 summands"):
            hasse_witt("quartic", 1, 16777259)
        with pytest.raises(BudgetExceeded, match="281476402775822 bits"):
            truncation_relation_check("quartic", 1, 16777259)
        with pytest.raises(BudgetExceeded, match="281476402775822 bits"):
            period_coefficients(get_family("quartic").polytope, 16777258)

    def test_truncation_check_refused_before_the_walk(self, monkeypatch):
        # the walk's budget admits the quartic at p = 1000003, the exact
        # periods' bound in bits does not: the check refuses before walking
        # or building a table of length p
        def refuse(*args):
            raise AssertionError("walked before the periods' bounds")

        monkeypatch.setattr(HW_MODULE, "_kernel_runs", refuse)
        monkeypatch.setattr(HW_MODULE, "_inverse_factorials", refuse)
        _hw_coefficients.cache_clear()
        with pytest.raises(BudgetExceeded, match="1000005000006 bits"):
            truncation_relation_check("quartic", 1, 1000003)

    def test_exact_periods_refused_before_the_walk(self, monkeypatch):
        # the quartic's dual has 4 vertices, so b_0..b_n bound n (n + 1) bits
        def refuse(plan, e):
            raise AssertionError("walked before the bit budget")

        monkeypatch.setattr(HW_MODULE, "_kernel_runs", refuse)
        with pytest.raises(BudgetExceeded, match="1000005000006 bits"):
            period_coefficients(get_family("quartic").polytope, 1000002)

    @pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
    def test_bits_bound_is_inclusive(self, slack, refused, monkeypatch):
        monkeypatch.setattr(HW_MODULE, "PERIOD_BITS_BUDGET", 100 * 101 + slack)
        quartic = get_family("quartic").polytope
        if refused:
            with pytest.raises(BudgetExceeded, match="10100 bits, above 10099"):
                period_coefficients(quartic, 100)
        else:
            assert period_coefficients(quartic, 100)[100] == \
                factorial(100) // factorial(25) ** 4

    def test_exact_period_fold_refused_before_the_walk(self, monkeypatch):
        # elliptic at p = 4093: 1.7 * 10^7 bits pass the bit bound, but a
        # rank 2 fold of C(4094, 2) summands of up to 2 * 4092 bits does not
        def refuse(plan, e):
            raise AssertionError("walked before the fold budget")

        monkeypatch.setattr(HW_MODULE, "_kernel_runs", refuse)
        with pytest.raises(BudgetExceeded,
                           match="8378371 summands of a rank 2 kernel, "
                                 "of up to 8184 bits each"):
            period_coefficients(get_family("elliptic").polytope, 4092)

    @pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
    def test_fold_bound_is_inclusive(self, slack, refused, monkeypatch):
        # elliptic to n = 12: C(14, 2) summands of up to log2(4) * 12 bits
        monkeypatch.setattr(HW_MODULE, "PERIOD_FOLD_BUDGET",
                            comb(14, 2) * 2 * 12 + slack)
        elliptic = get_family("elliptic").polytope
        if refused:
            with pytest.raises(BudgetExceeded,
                               match="91 summands .* 24 bits each, above 2183"):
                period_coefficients(elliptic, 12)
        else:
            assert period_coefficients(elliptic, 12)[12] == comb(12, 6) ** 2

    @pytest.mark.parametrize("slack, refused", [(0, False), (-1, True)])
    def test_bound_is_inclusive(self, slack, refused, monkeypatch):
        # elliptic at p = 13: rank 2, horizon 16, C(18, 2) = 153 summands
        monkeypatch.setattr(HW_MODULE, "KERNEL_WALK_BUDGET",
                            comb(18, 2) + slack)
        _hw_coefficients.cache_clear()
        _kernel_plan.cache_clear()
        if refused:
            with pytest.raises(BudgetExceeded):
                hasse_witt("elliptic", 3, 13)
        else:
            assert hasse_witt("elliptic", 3, 13).value == \
                truncated_pFq(get_family("elliptic").hg, 3, 13).value
