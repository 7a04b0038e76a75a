"""From Picard-Fuchs ODE to hypergeometric parameters.

The pipeline: companion matrix -> diagonal psi-power gauge (regular
singular points at 0 and infinity) -> variable substitution z = psi^k ->
rescaling z = c*lambda (singularity to lambda = 1) -> residue matrices at
0 and infinity -> rational eigenvalues -> parameter extraction -> MUM
normalization.  Every step is exact; every intermediate matrix is kept so
the published displays can be compared entry for entry.
"""

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Dict, List, Tuple

from .errors import (
    BudgetExceeded,
    IrrationalEigenvalue,
    NoZeroExponent,
    NotMUMAtInfinity,
    PoleAtInfinity,
    PoleAtZero,
    UnknownFamily,
    WrongSystemForm,
    ZeroLeadingCoefficient,
    ZeroRescale,
)
from .families import get_family
from .hypergeometric import HypergeometricData
from .intlinalg import char_poly, vec_primitive
from .ratfunc import Poly, RatFunc, RF_ONE, RF_ZERO

Matrix = Tuple[Tuple[RatFunc, ...], ...]

# The most trial divisors a rational-root search tries for one coefficient:
# it runs to sqrt(|a|), so 10^6 covers |a| < (10^6 + 1)^2, about 0.13 s a
# search on a 2-vCPU machine with Python 3.11.
DIVISOR_SEARCH_BUDGET = 10**6


@dataclass(frozen=True)
class FuchsianSystem:
    """First-order system dy/dt = M y (raw) or dy/dt = (1/t) M y (scaled)."""

    matrix: Matrix
    form: str = "raw"  # raw | scaled
    var: str = "psi"

    def entry_strings(self) -> Tuple[Tuple[str, ...], ...]:
        return tuple(
            tuple(str(e).replace("t", self.var) for e in row)
            for row in self.matrix
        )


@dataclass(frozen=True)
class ExponentData:
    exponents_at_zero: Tuple[Fraction, ...]
    exponents_at_infinity: Tuple[Fraction, ...]


def _to_ratfunc(coeff) -> RatFunc:
    if isinstance(coeff, RatFunc):
        return coeff
    num, den = coeff
    return RatFunc(Poly.of(*num), Poly.of(*den))


def _require_form(system: FuchsianSystem, form: str) -> None:
    if system.form != form:
        raise WrongSystemForm(f"expected a {form} system, got {system.form}")


def _map_entries(system: FuchsianSystem, var: str, f) -> FuchsianSystem:
    """The scaled system in var whose (i, j) entry is f(i, j, M_ij)."""
    return FuchsianSystem(
        tuple(tuple(f(i, j, e) for j, e in enumerate(row))
              for i, row in enumerate(system.matrix)),
        "scaled", var)


def companion_matrix(ode_coeffs) -> FuchsianSystem:
    """Companion system of the monic ODE F^(n) + c_{n-1} F^(n-1) + ... +
    c_0 F = 0; coefficients are RatFuncs or (num_coeffs, den_coeffs) pairs."""
    coeffs = [_to_ratfunc(c) for c in ode_coeffs]
    n = len(coeffs)
    if n == 0:
        raise ZeroLeadingCoefficient("empty coefficient list")
    rows = []
    for i in range(n - 1):
        rows.append(tuple(RF_ONE if j == i + 1 else RF_ZERO for j in range(n)))
    rows.append(tuple(-c for c in coeffs))
    return FuchsianSystem(tuple(rows), "raw", "psi")


def gauge_shear(system: FuchsianSystem) -> FuchsianSystem:
    """Gauge by the diagonal of psi-powers diag(1, psi, ..., psi^(n-1)).

    With u = diag(psi^i) y the system becomes du/dpsi = (1/psi) M u where
    M_ij = psi^(1+i-j) A_ij + delta_ij * i; the result has regular singular
    points at 0 and infinity.  Each power of psi is a RatFunc.shift, which
    cancels only powers of psi, and adding i is adding a number, so no
    entry runs Euclid.
    """
    _require_form(system, "raw")
    return _map_entries(system, "psi", lambda i, j, e: (
        e.shift(1) + i if i == j else e.shift(1 + i - j)))


def substitute_power(system: FuchsianSystem, k: int) -> FuchsianSystem:
    """Rewrite a scaled system whose matrix depends only on psi^k in the
    variable z = psi^k; dz/z = k dpsi/psi divides the matrix by k."""
    _require_form(system, "scaled")
    if k == 1:
        return system
    inv_k = Fraction(1, k)
    return _map_entries(system, "z",
                        lambda i, j, e: e.power_substitute(k) * inv_k)


def rescale(system: FuchsianSystem, c) -> FuchsianSystem:
    """Substitute z = c * lambda, moving the singularity at z = c to 1."""
    _require_form(system, "scaled")
    c = Fraction(c)
    if c == 0:
        raise ZeroRescale("rescale constant must be nonzero")
    return _map_entries(system, "lambda", lambda i, j, e: e.scale_variable(c))


def invert_system(system: FuchsianSystem) -> FuchsianSystem:
    """The system at 1/t: lambda = 1/zeta turns (1/lambda) M(lambda) into
    (1/zeta) (-M(1/zeta))."""
    _require_form(system, "scaled")
    return _map_entries(system, "zeta", lambda i, j, e: -e.invert_variable())


def _value_at_zero(system: FuchsianSystem, error, where: str):
    """M(0), raising error when an entry has a pole there.  Each entry is
    reduced with 0 stored as 0/1, so it has a pole at 0 exactly when its
    denominator's constant term is 0, and otherwise its value is the ratio
    of the constant terms."""
    rows = []
    for row in system.matrix:
        values = []
        for e in row:
            den = e.den.coeffs[0]
            if not den:
                raise error(f"entry {e} has a pole at {where}")
            values.append(e.num.coeffs[0] / den if e.num.coeffs else Fraction(0))
        rows.append(tuple(values))
    return tuple(rows)


def residue_at_zero(system: FuchsianSystem):
    """M(0) for a scaled system regular at 0."""
    _require_form(system, "scaled")
    return _value_at_zero(system, PoleAtZero, "0")


def _cleared_char_poly(matrix):
    """det(x I - A) cleared of denominators, ascending.  A monic polynomial
    cleared by the lcm of its denominators is primitive, so this is the
    primitive part of L^n chi_A(x) = sum b_i L^i x^i, where L is the lcm of
    the entry denominators and b the integer characteristic polynomial of
    L A."""
    lcm = math.lcm(*(x.denominator for row in matrix for x in row))
    b = char_poly([[x.numerator * (lcm // x.denominator) for x in row]
                   for row in matrix])
    return vec_primitive([c * lcm**i for i, c in enumerate(b)])


def _char_poly(matrix) -> Poly:
    """det(x I - A) as a Poly in x: the cleared polynomial made monic."""
    ints = _cleared_char_poly(matrix)
    return Poly(tuple(Fraction(c, ints[-1]) for c in ints))


def rational_eigenvalues(matrix) -> Tuple[Fraction, ...]:
    """All eigenvalues, found by the rational-root theorem, with
    multiplicity; IrrationalEigenvalue if any root is not rational.

    The search runs on the characteristic polynomial cleared of
    denominators, which ``_cleared_char_poly`` finds in integers.  A
    candidate p/q in lowest terms is a root of sum a_i x^i exactly when
    sum a_i p^i q^(n-i) = 0, and then (q x - p) divides it in Z[x] (Gauss's
    lemma), so the search and the deflation stay in integers.  The divisor
    search is bounded: BudgetExceeded, before it starts, when the integer
    square root of a coefficient it factors exceeds DIVISOR_SEARCH_BUDGET."""
    ints = _cleared_char_poly(matrix)
    zeros = next(i for i, a in enumerate(ints) if a)  # chi is monic
    roots = [Fraction(0)] * zeros
    ints = ints[zeros:]
    while len(ints) > 1:
        root = _rational_root(ints)
        if root is None:
            raise IrrationalEigenvalue(
                f"characteristic polynomial {_char_poly(matrix)} has an "
                "irrational factor"
            )
        roots.append(Fraction(*root))
        ints = _deflate(ints, *root)
    return tuple(sorted(roots))


def _rational_root(ints):
    """A root (p, q), q > 0, gcd(p, q) = 1, of the integer polynomial
    sum ints[i] x^i with ints[0] != 0, or None.  The first hit is in lowest
    terms: p/g over q/g is tried before p over q, as |p|/g < |p|."""
    n = len(ints) - 1
    dens = _divisors(ints[-1])
    for num in _divisors(ints[0]):
        for den in dens:
            for p in (num, -num):
                if sum(a * p**i * den**(n - i) for i, a in enumerate(ints)) == 0:
                    return p, den
    return None


def _deflate(ints, p, q):
    """sum ints[i] x^i divided by (q x - p), which divides it in Z[x]."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + p * carry) // q
        out[i - 1] = carry
    return out


def _divisors(n):
    """The positive divisors of n != 0 in increasing order, from the pairs
    (d, |n|/d) with d <= sqrt(|n|); BudgetExceeded before the search when
    sqrt(|n|) is above DIVISOR_SEARCH_BUDGET."""
    n, root = abs(n), math.isqrt(abs(n))
    if root > DIVISOR_SEARCH_BUDGET:
        raise BudgetExceeded(
            f"a divisor search of {n} would take {root} steps, "
            f"above its bound {DIVISOR_SEARCH_BUDGET}")
    small = [d for d in range(1, root + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def extract_parameters(exponents: ExponentData,
                       argument=(Fraction(1), 1)) -> HypergeometricData:
    """Read pFq parameters off local exponents: upper parameters are the
    exponents at infinity; lower parameters are 1 - e for the exponents e
    at 0 other than one mandatory copy of 0."""
    at_zero = list(exponents.exponents_at_zero)
    if Fraction(0) not in at_zero:
        raise NoZeroExponent(f"no zero exponent among {at_zero}")
    at_zero.remove(Fraction(0))
    return HypergeometricData(
        tuple(exponents.exponents_at_infinity),
        tuple(1 - e for e in at_zero),
        argument,
    )


def mum_normalize(exponents: ExponentData, argument) -> HypergeometricData:
    """Invert the variable so monodromy at 0 is maximally unipotent.

    Requires all exponents at infinity equal (a single value mu); the new
    upper parameters are mu + (exponents at 0), all lower parameters are 1,
    and the argument (c, k) becomes c / psi^k.
    """
    mus = set(exponents.exponents_at_infinity)
    if len(mus) != 1:
        raise NotMUMAtInfinity(
            f"exponents at infinity {sorted(mus)} are not all equal"
        )
    mu = mus.pop()
    c, k = Fraction(argument[0]), int(argument[1])
    return HypergeometricData(
        tuple(e + mu for e in exponents.exponents_at_zero),
        (Fraction(1),) * (len(exponents.exponents_at_zero) - 1),
        (c, -k),
    )


@dataclass
class PipelineReport:
    """Everything analyze_family computes, step by step."""

    family: str
    companion: FuchsianSystem
    sheared: FuchsianSystem
    powered: FuchsianSystem
    rescaled: FuchsianSystem
    inverted: FuchsianSystem
    residue_zero: Tuple[Tuple[Fraction, ...], ...]
    residue_infinity: Tuple[Tuple[Fraction, ...], ...]
    exponents: ExponentData
    intermediate: HypergeometricData
    final: HypergeometricData
    mum_argument: Tuple[Fraction, int]
    notes: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict:
        def strs(xs):
            return [str(x) for x in xs]

        systems = ("companion", "sheared", "powered", "rescaled", "inverted")
        return {
            "family": self.family,
            **{s: [list(r) for r in getattr(self, s).entry_strings()]
               for s in systems},
            "residue_zero": [strs(row) for row in self.residue_zero],
            "residue_infinity": [strs(row) for row in self.residue_infinity],
            "exponents_at_zero": strs(self.exponents.exponents_at_zero),
            "exponents_at_infinity": strs(self.exponents.exponents_at_infinity),
            "intermediate": str(self.intermediate),
            "final": str(self.final),
            "mum_argument": [str(self.mum_argument[0]), self.mum_argument[1]],
            "notes": list(self.notes),
        }


def analyze_family(family) -> PipelineReport:
    """Run the whole parameter-extraction pipeline on a stored family."""
    fam = get_family(family)
    if fam.pf_ode is None:
        raise UnknownFamily(
            f"family {fam.name} has no stored Picard-Fuchs equation"
        )
    k, c = fam.substitution_k, fam.rescale_c
    companion = companion_matrix(fam.pf_ode)
    sheared = gauge_shear(companion)
    powered = substitute_power(sheared, k)
    rescaled = rescale(powered, c)
    inverted = invert_system(rescaled)
    res0 = residue_at_zero(rescaled)
    # the residue at infinity of rescaled, read off the system already inverted
    res_inf = _value_at_zero(inverted, PoleAtInfinity, "infinity")
    exponents = ExponentData(
        rational_eigenvalues(res0), rational_eigenvalues(res_inf)
    )
    intermediate = extract_parameters(exponents, (1 / c, k))
    final = generic = mum_normalize(exponents, (c, k))
    notes = [note for note in (fam.mum_note, fam.intermediate_note) if note]
    if generic.argument != fam.hg.argument:
        # keep the family's printed orientation as the reported argument
        final = replace(generic, argument=fam.hg.argument)
        notes.append(
            "argument reported in the printed orientation "
            f"{fam.hg.argument_str()}; the generic inversion gives "
            f"{generic.argument_str()}"
        )
    return PipelineReport(
        family=fam.name,
        companion=companion,
        sheared=sheared,
        powered=powered,
        rescaled=rescaled,
        inverted=inverted,
        residue_zero=res0,
        residue_infinity=res_inf,
        exponents=exponents,
        intermediate=intermediate,
        final=final,
        mum_argument=(c, -k),
        notes=notes,
    )
