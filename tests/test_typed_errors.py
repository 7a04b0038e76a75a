"""Input checks raise typed HwmtErrors, also under python -O, which strips
asserts; and no code in the package or the fixture tool reads anything
that -O changes."""

import ast
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from hwmt.errors import (
    MalformedHypergeometric,
    NotRational,
    ZeroDenominator,
    ZeroRescale,
)
from hwmt.families import get_family
from hwmt.hasse_witt import hasse_witt
from hwmt.hypergeometric import HypergeometricData, truncated_pFq
from hwmt.point_count import count_family

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
    # an exponent of psi is read as an integer, never truncated or parsed
    ("MalformedHypergeometric-exponent-float",
     "from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1/2,), (), (1, 2.5))",
     "MalformedHypergeometric"),
    ("MalformedHypergeometric-exponent-str",
     "from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData((1/2,), (), (1, 'x'))",
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
    # a denominator given as a coefficient sequence of zeros
    ("ZeroDenominator-RatFunc-sequence",
     "from hwmt.ratfunc import RatFunc",
     "RatFunc((1, 2), (0, 0))",
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
    # checked before the periods' bounds, which read p - 1 as an int
    ("NotPrime-truncation_relation_check",
     "from hwmt.hasse_witt import truncation_relation_check",
     "truncation_relation_check('quartic', 2, 7.0)",
     "NotPrime"),
    # a psi or a pFq parameter that Fraction does not read
    ("NotRational-hasse_witt-str",
     "from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', 'x', 7)",
     "NotRational"),
    ("NotRational-hasse_witt-None",
     "from hwmt.hasse_witt import hasse_witt",
     "hasse_witt('quartic', None, 7)",
     "NotRational"),
    ("NotRational-count_family",
     "from hwmt.point_count import count_family",
     "count_family('elliptic', 'x', 5)",
     "NotRational"),
    ("NotRational-congruence_check",
     "from hwmt.point_count import congruence_check",
     "congruence_check('quartic', float('nan'), 7)",
     "NotRational"),
    ("NotRational-HypergeometricData",
     "from hwmt.hypergeometric import HypergeometricData",
     "HypergeometricData(('a',), (), (1, 0))",
     "NotRational"),
    ("NotRational-truncated_pFq",
     "from hwmt.hypergeometric import truncated_pFq\n"
     "from hwmt.families import get_family",
     "truncated_pFq(get_family('quartic').hg, '1/0', 7)",
     "NotRational"),
    # the Picard-Fuchs stages read a constant as a rational, an exponent
    # or a power as an integer, and a power below 1 is refused
    ("MalformedHypergeometric-mum_normalize-float",
     "from hwmt.picard_fuchs import ExponentData, mum_normalize",
     "mum_normalize(ExponentData((0, 0), (1, 1)), (16, 2.5))",
     "MalformedHypergeometric"),
    ("MalformedHypergeometric-mum_normalize-str",
     "from hwmt.picard_fuchs import ExponentData, mum_normalize",
     "mum_normalize(ExponentData((0, 0), (1, 1)), (16, 'x'))",
     "MalformedHypergeometric"),
    ("NotRational-mum_normalize",
     "from hwmt.picard_fuchs import ExponentData, mum_normalize",
     "mum_normalize(ExponentData((0, 0), (1, 1)), ('x', 2))",
     "NotRational"),
    ("NotRational-rescale",
     "from hwmt.picard_fuchs import companion_matrix, gauge_shear, rescale\n"
     "from hwmt.families import get_family",
     "rescale(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)), 'x')",
     "NotRational"),
    ("BadPower-substitute_power-zero",
     "from hwmt.picard_fuchs import companion_matrix, gauge_shear, substitute_power\n"
     "from hwmt.families import get_family",
     "substitute_power(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)), 0)",
     "BadPower"),
    ("BadPower-substitute_power-float",
     "from hwmt.picard_fuchs import companion_matrix, gauge_shear, substitute_power\n"
     "from hwmt.families import get_family",
     "substitute_power(gauge_shear(companion_matrix(get_family('elliptic').pf_ode)), 2.0)",
     "BadPower"),
    ("UnknownFamily-period_coefficients",
     "from hwmt.hasse_witt import period_coefficients",
     "period_coefficients(3, 5)",
     "UnknownFamily"),
    # a bounding box of 2001^2 lattice points, checked before enumerating
    ("BudgetExceeded-lattice_points",
     "from hwmt.polytope import LatticePolytope, lattice_points",
     "lattice_points(LatticePolytope(2, ((1000, 0), (0, 1000), (-1000, -1000))))",
     "BudgetExceeded"),
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


ROOT = Path(__file__).resolve().parent.parent
LINTED = ("src/hwmt", "tools")


def _changed_by_optimize(tree):
    """(line, what) of each node that python -O changes: an assert, which it
    strips, and a read of __debug__, which it makes False."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert"
        elif (isinstance(node, ast.Name) and node.id == "__debug__"
              or isinstance(node, ast.Attribute) and node.attr == "__debug__"):
            yield node.lineno, "__debug__"


def test_optimize_changes_nothing():
    # -O strips asserts and sets __debug__ to False, and changes nothing
    # else (docstrings go only under -OO).  With neither in these trees, the
    # CLI and the fixture tool run the same code under -O, so no check rests
    # on an assert; a line-based grep would miss `if x: assert y`
    paths = {tree: sorted((ROOT / tree).rglob("*.py")) for tree in LINTED}
    assert all(paths.values()), paths
    found = [f"{path.relative_to(ROOT)}:{line}: {what}"
             for tree in LINTED for path in paths[tree]
             for line, what in _changed_by_optimize(
                 ast.parse(path.read_text(), str(path)))]
    assert found == []


def test_typed_errors_keep_their_builtin_bases():
    # callers that caught the untyped errors still catch them
    assert issubclass(MalformedHypergeometric, ValueError)
    assert issubclass(ZeroRescale, ZeroDivisionError)
    assert issubclass(ZeroDenominator, ZeroDivisionError)
    assert issubclass(NotRational, ValueError) and issubclass(NotRational, TypeError)


@pytest.mark.parametrize("psi", [Fraction(1, 2), 0.5, "1/2", "0.5", Decimal("0.5")],
                         ids=["Fraction", "float", "ratio", "decimal-str", "Decimal"])
def test_every_rational_form_is_read(psi):
    # what Fraction reads is still read; only what it refuses is now typed
    half = Fraction(1, 2)
    quartic = get_family("quartic")
    assert hasse_witt("quartic", psi, 7) == hasse_witt("quartic", half, 7)
    assert count_family("elliptic", psi, 5) == count_family("elliptic", half, 5)
    assert truncated_pFq(quartic.hg, psi, 7) == truncated_pFq(quartic.hg, half, 7)
    assert HypergeometricData((psi,), (), (psi, 0)) == \
        HypergeometricData((half,), (), (half, 0))


def test_cli_malformed_hypergeometric_exits_2():
    out = subprocess.run([sys.executable, "-m", "hwmt.cli", "hyp", "--params",
                          "1/2,1/2;1,1", "--arg", "1,0", "--psi", "1",
                          "--prime", "5"],
                         capture_output=True, text=True, env=hwmt_env())
    assert out.returncode == 2 and out.stdout == ""
    assert "one fewer lower parameter" in out.stderr
    assert "Traceback" not in out.stderr
