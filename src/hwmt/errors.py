"""Exception hierarchy for hwmt.

Every computational failure mode gets its own class so callers (and the CLI)
can react precisely; all inherit from HwmtError.
"""


class HwmtError(Exception):
    """Base class for all hwmt errors."""


# --- polytope errors ---------------------------------------------------------

class DegeneratePolytope(HwmtError):
    """Vertex list has a non-integer coordinate, is not full-dimensional,
    has duplicates, or has a non-vertex point."""


class NotInteriorOrigin(HwmtError):
    """The origin is not strictly interior to the polytope."""


class NonLatticeDual(HwmtError):
    """A polar-dual vertex is non-integral (the polytope is not reflexive)."""


class NotReflexive(HwmtError):
    """A polytope required to be reflexive is not."""


class NotKernelPair(HwmtError):
    """The two polytopes do not form a kernel pair."""


# --- pencil / family errors --------------------------------------------------

class UnknownFamily(HwmtError):
    """No named family with that tag."""


class SingularMember(HwmtError):
    """The pencil member at this parameter value is singular."""


# --- modular arithmetic errors -----------------------------------------------

class NotPrime(HwmtError):
    """The modulus is not prime."""


class BadDenominator(HwmtError):
    """A denominator is divisible by p, so it cannot be inverted mod p."""


class PsiNotInvertible(HwmtError):
    """The argument needs a negative power of psi but p divides psi."""


class NotRational(HwmtError, ValueError, TypeError):
    """A psi or a pFq parameter that is not a rational number: a string
    that Fraction does not read, None, or a float that is not finite."""


class MalformedHypergeometric(HwmtError, ValueError):
    """pFq parameters of the wrong shape (q != p - 1 lower parameters),
    with a nonpositive-integer lower parameter, or with an exponent of psi
    that is not an integer."""


# --- point counting errors ---------------------------------------------------

class NonHomogeneous(HwmtError):
    """Monomial degrees differ under the grading of the ambient, or a
    monomial does not have one exponent per grading column."""


class NonIntegerOrbitSum(HwmtError):
    """An affine zero count not divisible by the torus orbit size it is
    divided by (p-1 on the cone, the coset count in a stratum); signals a
    polynomial that is not homogeneous for its grading."""


class BudgetExceeded(HwmtError):
    """A point count, a lattice-point enumeration, a Hasse-Witt kernel walk,
    a series pass or an eigenvalue search would exceed its documented work
    bound; refused before any work starts."""


class UncountableAmbient(HwmtError):
    """The family or grading has no implemented ambient model for point
    counts."""


# --- Picard-Fuchs errors -----------------------------------------------------

class WrongSystemForm(HwmtError):
    """A pipeline stage got a raw system where it needs a scaled one, or
    the reverse."""


class ZeroRescale(HwmtError, ZeroDivisionError):
    """A rescaling z = c * lambda was asked for with c = 0."""


class ZeroDenominator(HwmtError, ZeroDivisionError):
    """A polynomial division by zero or a rational function with a zero
    denominator."""


class BadPower(HwmtError, ValueError):
    """A substitution z = psi^k was asked for with k not an integer >= 1."""


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
