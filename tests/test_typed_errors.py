"""Input checks raise typed HwmtErrors, also under python -O, which strips
asserts."""

import subprocess
import sys

import pytest

from hwmt.errors import MalformedHypergeometric, ZeroDenominator, ZeroRescale

from conftest import hwmt_env

# each case: (imports, expression that must raise, error name)
CASES = [
    ("from hwmt.point_count import _cone_count",
     "_cone_count([(1, (0,)), (1, (1,))], 1, 5)",  # 1 + x is not homogeneous
     "NonIntegerOrbitSum"),
    ("from hwmt.ratfunc import Poly",
     "Poly.of(1, 2, 3).reversed_to(1)",
     "DegreeTooSmall"),
    ("from hwmt.picard_fuchs import companion_matrix, gauge_shear\n"
     "from hwmt.families import get_family",
     "gauge_shear(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)))",
     "WrongSystemForm"),
    ("from hwmt.picard_fuchs import companion_matrix, substitute_power\n"
     "from hwmt.families import get_family",
     "substitute_power(companion_matrix(get_family('elliptic').pf_ode), 2)",
     "WrongSystemForm"),
    ("from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1, 2), (1, 1), (1, 1))",  # 2F2 is not a pFq shape
     "MalformedHypergeometric"),
    ("from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1, 2), (-1,), (1, 1))",
     "MalformedHypergeometric"),
    ("from hwmt.picard_fuchs import companion_matrix, gauge_shear, rescale\n"
     "from hwmt.families import get_family",
     "rescale(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)), 0)",
     "ZeroRescale"),
    ("from hwmt.point_count import count_family",
     "count_family('quartic', 2, 1601)",
     "BudgetExceeded"),
    ("from dataclasses import replace\n"
     "from hwmt.families import get_family\n"
     "from hwmt.picard_fuchs import analyze_family",
     # F' + psi F = 0 rescales to (1/t) [[-8t]], which has a pole at infinity
     "analyze_family(replace(get_family('elliptic'), pf_ode=(((0, 1), (1,)),)))",
     "PoleAtInfinity"),
    ("from hwmt.point_count import count_graded",
     "count_graded([(1, (2, 0)), (1, (0, 1))], ((1, 1),), 5)",  # x^2 + y
     "NonHomogeneous"),
    ("from hwmt.polytope import LatticePolytope",
     "LatticePolytope(2, ())",
     "DegeneratePolytope"),
    ("from hwmt.polytope import LatticePolytope",
     "LatticePolytope(0, ((),))",
     "DegeneratePolytope"),
    ("from hwmt.ratfunc import Poly",
     "Poly.of(1, 2).divmod(Poly.of(0))",
     "ZeroDenominator"),
    ("from hwmt.ratfunc import Poly, RatFunc",
     "RatFunc(Poly.of(1), Poly.of(0))",
     "ZeroDenominator"),
    ("from hwmt.picard_fuchs import rational_eigenvalues",
     "rational_eigenvalues(((10**7, 1), (0, 10**7 + 1)))",
     "BudgetExceeded"),
    # a prime that is not an int is refused, not truncated or parsed
    ("from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', 2, 5.0)",
     "NotPrime"),
    ("from hwmt.hypergeometric import truncated_pFq\n"
     "from hwmt.families import get_family",
     "truncated_pFq(get_family('quartic').hg, 2, 7.0)",
     "NotPrime"),
    ("from hwmt.point_count import congruence_check",
     "congruence_check('quartic', 2, 13.0)",
     "NotPrime"),
    ("from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', 2, '7')",
     "NotPrime"),
]


def _script(cases):
    lines = ["from hwmt.errors import HwmtError"]
    for imports, expr, _ in cases:
        lines += [imports, "try:", f"    {expr}", "    print('none')",
                  "except HwmtError as exc:", "    print(type(exc).__name__)"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("case", CASES, ids=[c[2] + "-" + c[1][:20] for c in CASES])
def test_typed_error(case, capsys):
    exec(_script([case]), {})
    assert capsys.readouterr().out.split() == [case[2]]


def test_typed_errors_under_optimize():
    out = subprocess.run([sys.executable, "-O", "-c", _script(CASES)],
                         capture_output=True, text=True, env=hwmt_env(), check=True)
    assert out.stdout.split() == [c[2] for c in CASES]


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
