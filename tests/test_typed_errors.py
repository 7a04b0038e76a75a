"""Input checks raise typed HwmtErrors, also under python -O, which strips
asserts."""

import subprocess
import sys

import pytest

from hwmt.errors import MalformedHypergeometric, ZeroDenominator, ZeroRescale

from conftest import hwmt_env

# each case: (test id, imports, expression that must raise, error name).  A
# case keeps the id it was first given, so adding or deleting a case renames
# no other; the older ids are the 20-character prefixes they were once built
# from, with pytest's 0/1 suffixes where two prefixes met.
CASES = [
    ("NonIntegerOrbitSum-_stratified_count",
     "from hwmt.point_count import _stratified_count",
     # 4 + x on P(2) over F_5 vanishes at the representative 1 of the
     # squares but not at 2, so its one stratum has 1 zero for 2 cosets
     "_stratified_count([(4, (0,)), (1, (1,))], [[(0, 2)]], 5)",
     "NonIntegerOrbitSum"),
    ("DegreeTooSmall-Poly.of(1, 2, 3).rev",
     "from hwmt.ratfunc import Poly",
     "Poly.of(1, 2, 3).reversed_to(1)",
     "DegreeTooSmall"),
    ("WrongSystemForm-gauge_shear(gauge_sh",
     "from hwmt.picard_fuchs import companion_matrix, gauge_shear\n"
     "from hwmt.families import get_family",
     "gauge_shear(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)))",
     "WrongSystemForm"),
    ("WrongSystemForm-substitute_power(com",
     "from hwmt.picard_fuchs import companion_matrix, substitute_power\n"
     "from hwmt.families import get_family",
     "substitute_power(companion_matrix(get_family('elliptic').pf_ode), 2)",
     "WrongSystemForm"),
    ("MalformedHypergeometric-HypergeometricData((0",
     "from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1, 2), (1, 1), (1, 1))",  # 2F2 is not a pFq shape
     "MalformedHypergeometric"),
    ("MalformedHypergeometric-HypergeometricData((1",
     "from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1, 2), (-1,), (1, 1))",
     "MalformedHypergeometric"),
    ("ZeroRescale-rescale(gauge_shear(",
     "from hwmt.picard_fuchs import companion_matrix, gauge_shear, rescale\n"
     "from hwmt.families import get_family",
     "rescale(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)), 0)",
     "ZeroRescale"),
    ("BudgetExceeded-count_family('quarti",
     "from hwmt.point_count import count_family",
     "count_family('quartic', 2, 1601)",
     "BudgetExceeded"),
    ("PoleAtInfinity-analyze_family(repla",
     "from dataclasses import replace\n"
     "from hwmt.families import get_family\n"
     "from hwmt.picard_fuchs import analyze_family",
     # F' + psi F = 0 rescales to (1/t) [[-8t]], which has a pole at infinity
     "analyze_family(replace(get_family('elliptic'), pf_ode=(((0, 1), (1,)),)))",
     "PoleAtInfinity"),
    ("NonHomogeneous-count_graded([(1, (2",
     "from hwmt.point_count import count_graded",
     "count_graded([(1, (2, 0)), (1, (0, 1))], ((1, 1),), 5)",  # x^2 + y
     "NonHomogeneous"),
    ("DegeneratePolytope-LatticePolytope(2, (",
     "from hwmt.polytope import LatticePolytope",
     "LatticePolytope(2, ())",
     "DegeneratePolytope"),
    ("DegeneratePolytope-LatticePolytope(0, (",
     "from hwmt.polytope import LatticePolytope",
     "LatticePolytope(0, ((),))",
     "DegeneratePolytope"),
    ("ZeroDenominator-Poly.of(1, 2).divmod",
     "from hwmt.ratfunc import Poly",
     "Poly.of(1, 2).divmod(Poly.of(0))",
     "ZeroDenominator"),
    ("ZeroDenominator-RatFunc(Poly.of(1), ",
     "from hwmt.ratfunc import Poly, RatFunc",
     "RatFunc(Poly.of(1), Poly.of(0))",
     "ZeroDenominator"),
    # the exact periods' bound in bits, checked before the kernel walk
    ("BudgetExceeded-period_coefficients",
     "from hwmt.hasse_witt import period_coefficients\n"
     "from hwmt.families import get_family",
     "period_coefficients(get_family('quartic').polytope, 1000002)",
     "BudgetExceeded"),
    # the exact periods' summands times bits, checked before the fold
    ("BudgetExceeded-period_coefficients-fold",
     "from hwmt.hasse_witt import period_coefficients\n"
     "from hwmt.families import get_family",
     "period_coefficients(get_family('elliptic').polytope, 4092)",
     "BudgetExceeded"),
    # a prime at or above the bound of the exact primality test
    ("BudgetExceeded-is_prime",
     "from hwmt.hypergeometric import is_prime",
     "is_prime(3317044064679887385961981)",
     "BudgetExceeded"),
    # the series pass's step count, checked before the pass
    ("BudgetExceeded-truncated_pFq",
     "from hwmt.hypergeometric import truncated_pFq\n"
     "from hwmt.families import get_family",
     "truncated_pFq(get_family('quartic').hg, 1, 1000000007)",
     "BudgetExceeded"),
    ("BudgetExceeded-rational_eigenvalues",
     "from hwmt.picard_fuchs import rational_eigenvalues",
     "rational_eigenvalues(((10**7, 1), (0, 10**7 + 1)))",
     "BudgetExceeded"),
    # a prime that is not an int is refused, not truncated or parsed
    ("NotPrime-hasse_witt('quartic'0",
     "from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', 2, 5.0)",
     "NotPrime"),
    ("NotPrime-truncated_pFq(get_fa",
     "from hwmt.hypergeometric import truncated_pFq\n"
     "from hwmt.families import get_family",
     "truncated_pFq(get_family('quartic').hg, 2, 7.0)",
     "NotPrime"),
    ("NotPrime-congruence_check('qu",
     "from hwmt.point_count import congruence_check",
     "congruence_check('quartic', 2, 13.0)",
     "NotPrime"),
    ("NotPrime-hasse_witt('quartic'1",
     "from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', 2, '7')",
     "NotPrime"),
]


IDS = [c[0] for c in CASES]
if len(set(IDS)) != len(IDS):
    raise ValueError(f"typed-error case ids repeat: {sorted(IDS)}")


def _script(cases):
    lines = ["from hwmt.errors import HwmtError"]
    for _, imports, expr, _ in cases:
        lines += [imports, "try:", f"    {expr}", "    print('none')",
                  "except HwmtError as exc:", "    print(type(exc).__name__)"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_typed_error(case, capsys):
    exec(_script([case]), {})
    assert capsys.readouterr().out.split() == [case[3]]


def test_typed_errors_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", _script(CASES)],
                         capture_output=True, text=True, env=hwmt_env(), check=True)
    assert out.stdout.split() == [c[3] for c in CASES]


def test_typed_errors_keep_their_builtin_bases():
    # callers that caught the untyped errors still catch them
    assert issubclass(MalformedHypergeometric, ValueError)
    assert issubclass(ZeroRescale, ZeroDivisionError)
    assert issubclass(ZeroDenominator, ZeroDivisionError)


def test_cli_malformed_hypergeometric_exits_2():
    out = subprocess.run([sys.executable, "-m", "hwmt.cli", "hyp", "--params",
                          "1/2,1/2;1,1", "--arg", "1,0", "--psi", "1",
                          "--prime", "5"],
                         capture_output=True, text=True, env=hwmt_env())
    assert out.returncode == 2 and out.stdout == ""
    assert "one fewer lower parameter" in out.stderr
    assert "Traceback" not in out.stderr
