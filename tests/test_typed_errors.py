"""Input checks raise typed HwmtErrors, also under python -O, which strips
asserts."""

import subprocess
import sys
from pathlib import Path

import pytest

import hwmt
from hwmt.errors import MalformedHypergeometric, ZeroRescale

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
    ("from hwmt.picard_fuchs import FuchsianSystem, residue_at_infinity\n"
     "from hwmt.ratfunc import ONE, Poly, RatFunc",
     "residue_at_infinity(FuchsianSystem(1, ((RatFunc(Poly.of(0, 1), ONE),),),"
     " 'scaled'))",  # (1/t) [[t]] has a pole at infinity
     "PoleAtInfinity"),
    ("from hwmt.point_count import count_graded",
     "count_graded([(1, (2, 0)), (1, (0, 1))], ((1, 1),), 5)",  # x^2 + y
     "NonHomogeneous"),
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
    src = str(Path(hwmt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-O", "-c", _script(CASES)],
                         capture_output=True, text=True,
                         env={"PYTHONPATH": src}, check=True)
    assert out.stdout.split() == [c[2] for c in CASES]


def test_typed_errors_keep_their_builtin_bases():
    # callers that caught the untyped errors still catch them
    assert issubclass(MalformedHypergeometric, ValueError)
    assert issubclass(ZeroRescale, ZeroDivisionError)


def test_cli_malformed_hypergeometric_exits_2():
    src = str(Path(hwmt.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-m", "hwmt.cli", "hyp", "--params",
                          "1/2,1/2;1,1", "--arg", "1,0", "--psi", "1",
                          "--prime", "5"],
                         capture_output=True, text=True, env={"PYTHONPATH": src})
    assert out.returncode == 2 and out.stdout == ""
    assert "one fewer lower parameter" in out.stderr
    assert "Traceback" not in out.stderr
