"""The ODE -> companion -> shear -> substitute -> rescale -> residues ->
parameters pipeline, checked entry-for-entry against the published
displays."""

import math
import random
import time
from fractions import Fraction

import pytest

from hwmt.errors import (
    BudgetExceeded,
    IrrationalEigenvalue,
    NoZeroExponent,
    NotAPowerFunction,
    NotMUMAtInfinity,
    PoleAtZero,
)
from hwmt.families import get_family
from hwmt.picard_fuchs import (
    ExponentData,
    FuchsianSystem,
    _char_poly,
    _cleared_char_poly,
    analyze_family,
    companion_matrix,
    extract_parameters,
    gauge_shear,
    invert_system,
    mum_normalize,
    rational_eigenvalues,
    rescale,
    residue_at_zero,
    substitute_power,
)
from hwmt.ratfunc import Poly, RatFunc

from oracles import cofactor_char_poly, evaluate, poly_product

F = Fraction


def rf(num_coeffs, den_coeffs=(1,)):
    return RatFunc(Poly.of(*num_coeffs), Poly.of(*den_coeffs))


def residue_at_point(system, a):
    """Residue of (1/t) M(t) dt at a finite nonzero point a: the value of
    (t - a) M(t) / t at t = a."""
    a = F(a)
    return tuple(
        tuple(evaluate(RatFunc(poly_product(e.num, Poly.of(-a, 1)), e.den), a) / a
              for e in row)
        for row in system.matrix)


def matrices_equal(system, expected):
    """Compare a FuchsianSystem matrix with a matrix of RatFuncs."""
    return all(
        system.matrix[i][j] == expected[i][j]
        for i in range(len(system.matrix))
        for j in range(len(system.matrix))
    )


def eigenvalues_by_evaluation(chi):
    """Roots of chi by the rational-root theorem with Fraction evaluation of
    every candidate, deflated by Poly.divmod; None if one is irrational."""
    roots = []
    while chi.degree > 0:
        lcm = math.lcm(*(c.denominator for c in chi.coeffs))
        a0, an = (abs(int(c * lcm)) for c in (chi.coeffs[0], chi.coeffs[-1]))
        candidates = [F(s * num, den)
                      for num in range(1, a0 + 1) if a0 % num == 0
                      for den in range(1, an + 1) if an % den == 0
                      for s in (1, -1)]
        root = next((x for x in [F(0)] + candidates if evaluate(chi, x) == 0),
                    None)
        if root is None:
            return None
        roots.append(root)
        chi = chi.divmod(Poly.of(-root, 1))[0]
    return tuple(sorted(roots))


def matrix_with_spectrum(rng, eigs):
    """A seeded matrix similar to an upper triangular one with diagonal eigs,
    conjugated by elementary integer matrices I + c e_ij."""
    n = len(eigs)
    a = [[eigs[i] if i == j else F(rng.randint(-2, 2)) if j > i else F(0)
          for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        for k in range(n):
            a[i][k] += c * a[j][k]
        for k in range(n):
            a[k][j] -= c * a[k][i]
    return tuple(map(tuple, a))


class TestCompanion:
    def test_elliptic_display(self):
        sys_ = companion_matrix(get_family("elliptic").pf_ode)
        expected = [
            [rf((0,)), rf((1,))],
            [rf((0, -1), (0, -16, 0, 1)), rf((16, 0, -3), (0, -16, 0, 1))],
        ]
        assert matrices_equal(sys_, expected)

    def test_sextic_last_row(self):
        sys_ = companion_matrix(get_family("sextic").pf_ode)
        last = sys_.matrix[2]
        assert last[0] == rf((0, 0, 0, -1), (-1728, 0, 0, 0, 0, 0, 1))
        assert last[1] == rf((5184, 0, 0, 0, 0, 0, -7),
                             (0, 0, -1728, 0, 0, 0, 0, 0, 1))
        assert last[2] == rf((-5184, 0, 0, 0, 0, 0, -6),
                             (0, -1728, 0, 0, 0, 0, 0, 1))

    def test_trivial_ode(self):
        sys_ = companion_matrix([rf((0,)), rf((0,))])
        assert matrices_equal(sys_, [[rf((0,)), rf((1,))],
                                     [rf((0,)), rf((0,))]])


class TestGaugeShear:
    def test_elliptic_display(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        expected = [
            [rf((0,)), rf((1,))],
            [rf((0, 0, -1), (-16, 0, 1)), rf((0, 0, -2), (-16, 0, 1))],
        ]
        assert sheared.form == "scaled"
        assert matrices_equal(sheared, expected)

    def test_sextic_display(self):
        sheared = gauge_shear(companion_matrix(get_family("sextic").pf_ode))
        d = (-1728, 0, 0, 0, 0, 0, 1)
        expected = [
            [rf((0,)), rf((1,)), rf((0,))],
            [rf((0,)), rf((1,)), rf((1,))],
            [rf((0, 0, 0, 0, 0, 0, -1), d),
             rf((5184, 0, 0, 0, 0, 0, -7), d),
             rf((-8640, 0, 0, 0, 0, 0, -4), d)],
        ]
        assert matrices_equal(sheared, expected)

    def test_trivial_example(self):
        sheared = gauge_shear(companion_matrix([rf((0,)), rf((0,))]))
        assert matrices_equal(sheared, [[rf((0,)), rf((1,))],
                                        [rf((0,)), rf((1,))]])


class TestSubstituteRescale:
    def test_elliptic_power_two(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        powered = substitute_power(sheared, 2)
        expected = [
            [rf((0,)), rf((F(1, 2),))],
            [rf((0, F(-1, 2)), (-16, 1)), rf((0, -1), (-16, 1))],
        ]
        assert matrices_equal(powered, expected)

    def test_k_equals_one_is_identity(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        assert substitute_power(sheared, 1) is sheared

    def test_not_a_power_function(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        with pytest.raises(NotAPowerFunction):
            substitute_power(sheared, 5)

    def test_elliptic_rescale_16(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        rescaled = rescale(substitute_power(sheared, 2), 16)
        expected = [
            [rf((0,)), rf((F(1, 2),))],
            [rf((0, F(-1, 2)), (-1, 1)), rf((0, -1), (-1, 1))],
        ]
        assert matrices_equal(rescaled, expected)

    def test_rescale_by_one_is_identity(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        powered = substitute_power(sheared, 2)
        assert matrices_equal(rescale(powered, 1), list(powered.matrix))

    def test_rescale_zero_rejected(self):
        sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
        with pytest.raises(ZeroDivisionError):
            rescale(sheared, 0)


def _elliptic_lambda_system():
    sheared = gauge_shear(companion_matrix(get_family("elliptic").pf_ode))
    return rescale(substitute_power(sheared, 2), 16)


def _sextic_lambda_system():
    sheared = gauge_shear(companion_matrix(get_family("sextic").pf_ode))
    return rescale(substitute_power(sheared, 6), 1728)


class TestResidues:
    def test_elliptic_residue_zero(self):
        assert residue_at_zero(_elliptic_lambda_system()) == (
            (F(0), F(1, 2)), (F(0), F(0)),
        )

    def test_elliptic_residue_infinity(self):
        assert analyze_family("elliptic").residue_infinity == (
            (F(0), F(-1, 2)), (F(1, 2), F(1)),
        )

    def test_sextic_residue_zero(self):
        assert residue_at_zero(_sextic_lambda_system()) == (
            (F(0), F(1, 6), F(0)),
            (F(0), F(1, 6), F(1, 6)),
            (F(0), F(-1, 2), F(5, 6)),
        )

    def test_sextic_residue_infinity(self):
        assert analyze_family("sextic").residue_infinity == (
            (F(0), F(-1, 6), F(0)),
            (F(0), F(-1, 6), F(-1, 6)),
            (F(1, 6), F(7, 6), F(2, 3)),
        )

    def test_zero_system(self):
        zero = FuchsianSystem(((rf((0,)), rf((0,))),
                               (rf((0,)), rf((0,)))), "scaled")
        assert residue_at_zero(zero) == ((0, 0), (0, 0))
        # the residue at infinity is the value at 0 of the inverted system
        assert residue_at_zero(invert_system(zero)) == ((0, 0), (0, 0))

    def test_pole_at_zero_detected(self):
        bad = FuchsianSystem(((rf((1,), (0, 1)),),), "scaled")
        with pytest.raises(PoleAtZero):
            residue_at_zero(bad)

    def test_constant_terms_match_evaluation_at_zero(self):
        rng = random.Random(1022)
        for _ in range(200):
            entry = rf([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))],
                       [rng.randint(-2, 2) for _ in range(rng.randint(1, 3))] + [1])
            system = FuchsianSystem(((entry,),), "scaled")
            if evaluate(entry.den, 0) == 0:
                with pytest.raises(PoleAtZero):
                    residue_at_zero(system)
            else:
                assert residue_at_zero(system) == ((evaluate(entry, 0),),)

    def test_fuchs_trace_relation(self):
        # residues at 0, 1, infinity sum to trace zero for every family
        for name in ("elliptic", "sextic", "group1", "group2"):
            rep = analyze_family(name)
            tr0 = sum(rep.residue_zero[i][i] for i in range(len(rep.residue_zero)))
            trinf = sum(
                rep.residue_infinity[i][i] for i in range(len(rep.residue_infinity))
            )
            res1 = residue_at_point(rep.rescaled, 1)
            tr1 = sum(res1[i][i] for i in range(len(res1)))
            assert tr0 + tr1 + trinf == 0

    def test_gauge_preserves_exponents_mod_one(self):
        # the 2x2 raw system still has a first-order pole at 0, so its
        # residue eigenvalues exist and must agree with the sheared ones
        # mod 1 (the 3x3 companions have higher-order poles, which is why
        # the shear is needed in the first place)
        fam = get_family("elliptic")
        raw = companion_matrix(fam.pf_ode)
        t = Poly.of(0, 1)
        raw_res = tuple(tuple(evaluate(RatFunc(poly_product(e.num, t), e.den), 0)
                              for e in row) for row in raw.matrix)
        sheared_res = residue_at_zero(gauge_shear(raw))
        raw_eigs = sorted(x % 1 for x in rational_eigenvalues(raw_res))
        new_eigs = sorted(x % 1 for x in rational_eigenvalues(sheared_res))
        assert raw_eigs == new_eigs

    @pytest.mark.parametrize("name", ["elliptic", "sextic", "group1", "group2"])
    @pytest.mark.parametrize("t0", [F(3), F(5, 2), F(-7, 3)])
    def test_gauge_identity_at_regular_points(self, name, t0):
        # solutions transform by u = diag(t^i) y, so the sheared matrix
        # must equal diag(0..n-1) + T (t A(t)) T^{-1} pointwise
        fam = get_family(name)
        raw = companion_matrix(fam.pf_ode)
        sheared = gauge_shear(raw)
        n = len(raw.matrix)
        a_val = [[evaluate(e, t0) for e in row] for row in raw.matrix]
        expected = [
            [
                t0 * a_val[i][j] * t0**i / t0**j + (i if i == j else 0)
                for j in range(n)
            ]
            for i in range(n)
        ]
        actual = [[evaluate(e, t0) for e in row] for row in sheared.matrix]
        assert actual == expected


class TestEigenvalues:
    def test_elliptic_beta(self):
        assert rational_eigenvalues(((F(0), F(1, 2)), (F(0), F(0)))) == (0, 0)

    def test_sextic_beta(self):
        m = ((F(0), F(1, 6), F(0)), (F(0), F(1, 6), F(1, 6)),
             (F(0), F(-1, 2), F(5, 6)))
        assert rational_eigenvalues(m) == (0, F(1, 3), F(2, 3))

    def test_identity(self):
        m = ((F(1), F(0)), (F(0), F(1)))
        assert rational_eigenvalues(m) == (1, 1)

    def test_irrational_rejected(self):
        m = ((F(0), F(2)), (F(1), F(0)))  # eigenvalues +-sqrt(2)
        with pytest.raises(IrrationalEigenvalue):
            rational_eigenvalues(m)

    def test_large_eigenvalues_search_divisors_to_the_square_root(self):
        start = time.perf_counter()
        assert rational_eigenvalues(((F(10**12),),)) == (10**12,)
        assert rational_eigenvalues(((F(1), F(5)), (F(0), F(-10**12, 7)))) == (
            F(-10**12, 7), 1)
        with pytest.raises(IrrationalEigenvalue):
            # x^2 - 2*3*5*7*11*13*17 has 64 divisor pairs and no rational root
            rational_eigenvalues(((F(0), F(510510)), (F(1), F(0))))
        assert time.perf_counter() - start < 10

    def test_large_product_is_refused_before_the_search(self):
        # eigenvalues e and e + 1: the search would run to sqrt(e (e + 1))
        e = 10**7
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded):
            rational_eigenvalues(((F(e), F(1)), (F(0), F(e + 1))))
        assert time.perf_counter() - start < 0.1

    def test_char_poly_matches_cofactor_oracle(self):
        rng = random.Random(1021)
        for _ in range(400):
            n = rng.randint(1, 5)
            m = tuple(tuple(F(rng.randint(-4, 4), rng.randint(1, 4))
                            if rng.random() < 0.7 else F(0) for _ in range(n))
                      for _ in range(n))
            assert _char_poly(m) == cofactor_char_poly(m), m

    def test_cleared_polynomial_matches_cofactor_oracle(self):
        # the searched integer polynomial is the cofactor characteristic
        # polynomial cleared by the lcm of its coefficient denominators
        rng = random.Random(2208)
        for _ in range(1000):
            n = rng.randint(1, 5)
            m = tuple(tuple(F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))
                            if rng.random() < 0.7 else F(0) for _ in range(n))
                      for _ in range(n))
            chi = cofactor_char_poly(m)
            lcm = math.lcm(*(c.denominator for c in chi.coeffs))
            want = tuple(c.numerator * (lcm // c.denominator) for c in chi.coeffs)
            assert _cleared_char_poly(m) == want, m

    def test_matches_evaluation_oracle_on_known_spectra(self):
        rng = random.Random(1019)
        for _ in range(150):
            n = rng.randint(1, 4)
            eigs = tuple(sorted(F(rng.randint(-3, 3), rng.randint(1, 3))
                                for _ in range(n)))
            m = matrix_with_spectrum(rng, eigs)
            assert rational_eigenvalues(m) == eigs
            assert eigenvalues_by_evaluation(_char_poly(m)) == eigs

    def test_matches_evaluation_oracle_on_integer_matrices(self):
        # mostly irrational spectra, some rational
        rng = random.Random(1020)
        rational = 0
        for _ in range(150):
            n = rng.randint(2, 3)
            m = tuple(tuple(F(rng.randint(-3, 3)) for _ in range(n))
                      for _ in range(n))
            want = eigenvalues_by_evaluation(_char_poly(m))
            if want is None:
                with pytest.raises(IrrationalEigenvalue):
                    rational_eigenvalues(m)
            else:
                rational += 1
                assert rational_eigenvalues(m) == want
        assert 10 < rational < 140


class TestParameterExtraction:
    def test_elliptic(self):
        data = extract_parameters(
            ExponentData((F(0), F(0)), (F(1, 2), F(1, 2)))
        )
        assert data.numerators == (F(1, 2), F(1, 2))
        assert data.denominators == (F(1),)

    def test_sextic_one_minus_beta(self):
        data = extract_parameters(
            ExponentData((F(0), F(1, 3), F(2, 3)),
                         (F(1, 6), F(1, 6), F(1, 6)))
        )
        assert data.denominators == (F(1, 3), F(2, 3))

    def test_degenerate_1f0(self):
        data = extract_parameters(ExponentData((F(0),), (F(2, 5),)))
        assert data.numerators == (F(2, 5),) and data.denominators == ()

    def test_requires_zero_exponent(self):
        with pytest.raises(NoZeroExponent):
            extract_parameters(ExponentData((F(1, 3),), (F(1, 2),)))

    def test_round_trip(self):
        exps = ExponentData((F(0), F(1, 3), F(2, 3)),
                            (F(1, 6), F(1, 6), F(1, 6)))
        data = extract_parameters(exps)
        regenerated = ExponentData(
            tuple(sorted((F(0),) + tuple(1 - b for b in data.denominators))),
            data.numerators,
        )
        assert regenerated == exps


class TestMumNormalize:
    def test_sextic(self):
        out = mum_normalize(
            ExponentData((F(0), F(1, 3), F(2, 3)),
                         (F(1, 6), F(1, 6), F(1, 6))),
            (F(1728), 6),
        )
        assert out.numerators == (F(1, 6), F(1, 2), F(5, 6))
        assert out.denominators == (F(1), F(1))
        assert out.argument == (F(1728), -6)

    def test_group2(self):
        out = mum_normalize(
            ExponentData((F(0), F(1, 4), F(1, 2)),
                         (F(1, 4), F(1, 4), F(1, 4))),
            (F(256), 4),
        )
        assert out.numerators == (F(1, 4), F(1, 2), F(3, 4))
        assert out.denominators == (F(1), F(1))

    def test_rejects_non_mum(self):
        with pytest.raises(NotMUMAtInfinity):
            mum_normalize(ExponentData((F(0), F(0)), (F(1, 2), F(1, 3))),
                          (F(16), 2))

    def test_all_lower_parameters_one(self):
        for name in ("elliptic", "sextic", "group1", "group2"):
            final = analyze_family(name).final
            assert all(b == 1 for b in final.denominators)


class TestAnalyzeFamily:
    @pytest.mark.parametrize("name", ["elliptic", "sextic", "group1", "group2"])
    def test_final_matches_stored_family(self, name):
        rep = analyze_family(name)
        assert rep.final == get_family(name).hg

    def test_elliptic_orientation_note(self):
        rep = analyze_family("elliptic")
        assert rep.mum_argument == (F(16), -2)
        assert rep.final.argument == (F(1, 16), 2)
        assert any("orientation" in note for note in rep.notes)

    def test_group1_intermediate_discrepancy_flagged(self):
        rep = analyze_family("group1")
        # computed exponents at zero, not the published intermediate
        assert rep.exponents.exponents_at_zero == (F(0), F(1, 6), F(1, 3))
        assert any("inconsistent" in note for note in rep.notes)

    def test_group1_final(self):
        rep = analyze_family("group1")
        assert rep.final.numerators == (F(1, 3), F(1, 2), F(2, 3))
        assert rep.final.argument == (F(-108), -3)

    def test_exactness(self):
        rep = analyze_family("sextic")
        for row in rep.residue_zero + rep.residue_infinity:
            for x in row:
                assert isinstance(x, Fraction)
        for row in rep.rescaled.matrix:
            for e in row:
                assert all(
                    isinstance(c, Fraction) for c in e.num.coeffs + e.den.coeffs
                )

    def test_inverted_system_display(self):
        # the zeta-coordinate system of the elliptic family
        rep = analyze_family("elliptic")
        expected = [
            [rf((0,)), rf((F(-1, 2),))],
            [rf((F(1, 2),), (1, -1)), rf((1,), (1, -1))],
        ]
        inv = rep.inverted
        assert all(
            inv.matrix[i][j] == expected[i][j] for i in range(2) for j in range(2)
        )


class TestCompanionErrors:
    def test_empty_coefficients_rejected(self):
        from hwmt.errors import ZeroLeadingCoefficient

        with pytest.raises(ZeroLeadingCoefficient):
            companion_matrix([])
