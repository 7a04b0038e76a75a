"""Exception hierarchy for hwmt.

Every computational failure mode gets its own class so callers (and the CLI)
can react precisely; all inherit from HwmtError.
"""


class HwmtError(Exception):
    """Base class for all hwmt errors."""


# --- polytope errors ---------------------------------------------------------

class DegeneratePolytope(HwmtError):
    """Vertex list is not full-dimensional, has duplicates, or has a
    non-vertex point."""


class NotInteriorOrigin(HwmtError):
    """The origin is not strictly interior to the polytope."""


class NonLatticeDual(HwmtError):
    """A polar-dual vertex is non-integral (the polytope is not reflexive)."""


class NotReflexive(HwmtError):
    """A polytope required to be reflexive is not."""


class NotKernelPair(HwmtError):
    """The two polytopes do not form a kernel pair."""


# --- pencil / family errors --------------------------------------------------

class UnsupportedMonomial(HwmtError):
    """A coefficient key lies outside the dual polytope."""


class MalformedPencil(HwmtError):
    """A pencil repeats an exponent, or its psi term is not psi times the
    origin monomial."""


class UnknownFamily(HwmtError):
    """No named family with that tag."""


class SingularMember(HwmtError):
    """The pencil member at this parameter value is singular."""


# --- modular arithmetic errors -----------------------------------------------

class NotPrime(HwmtError):
    """The modulus is not prime."""


class BadDenominator(HwmtError):
    """A denominator is divisible by p, so it cannot be inverted mod p."""


class ExponentTooLarge(HwmtError):
    """constant_term_power requires the exponent to be < p."""


class PsiNotInvertible(HwmtError):
    """The argument needs a negative power of psi but p divides psi."""


class MalformedHypergeometric(HwmtError, ValueError):
    """pFq parameters of the wrong shape (q != p - 1 lower parameters) or
    with a nonpositive-integer lower parameter."""


class TruncationGuard(HwmtError):
    """Internal guard: a truncated series term beyond degree p-1 was
    requested."""


# --- point counting errors ---------------------------------------------------

class NonHomogeneous(HwmtError):
    """Monomial degrees differ under the grading of the ambient, or a
    monomial does not have one exponent per grading column."""


class NonIntegerOrbitSum(HwmtError):
    """Stabilizer-weighted orbit sum not divisible by p-1; signals a
    modeling failure."""


class BudgetExceeded(HwmtError):
    """A count would exceed its documented work bound; refused before any
    work starts."""


class UncountableAmbient(HwmtError):
    """The family or grading has no implemented ambient model for point
    counts."""


# --- Picard-Fuchs errors -----------------------------------------------------

class WrongSystemForm(HwmtError):
    """A pipeline stage got a raw system where it needs a scaled one, or
    the reverse."""


class ZeroRescale(HwmtError, ZeroDivisionError):
    """A rescaling z = c * lambda was asked for with c = 0."""


class DegreeTooSmall(HwmtError):
    """A polynomial reversal asked for a degree below the polynomial's."""


class ZeroLeadingCoefficient(HwmtError):
    """ODE leading coefficient vanished after normalization."""


class NotAPowerFunction(HwmtError):
    """Matrix entries are not functions of psi^k."""


class PoleAtZero(HwmtError):
    """System matrix has a pole at 0 where regularity is required."""


class PoleAtInfinity(HwmtError):
    """System matrix has a pole at infinity where regularity is required."""


class IrrationalEigenvalue(HwmtError):
    """Characteristic polynomial has a non-rational root."""


class NoZeroExponent(HwmtError):
    """Exponents at 0 do not contain 0, so lower parameters cannot be read."""


class NotMUMAtInfinity(HwmtError):
    """Exponents at infinity are not all equal."""


# --- ingestion / reporting errors --------------------------------------------

class ParseError(HwmtError):
    """Malformed polytope text record."""


class UnknownFormat(HwmtError):
    """Unsupported report format."""
