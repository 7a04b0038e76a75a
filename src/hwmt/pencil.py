"""Vertex pencils as Laurent polynomials and homogeneous forms.

A vertex pencil sums one monomial per vertex of the polar dual polytope and
deforms by psi times the origin monomial.  The deformation parameter is
carried symbolically (each coefficient is a degree <= 1 polynomial in psi)
until specialization, so Hasse-Witt computations can produce polynomials
in psi.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Tuple

from .errors import MalformedPencil, UnsupportedMonomial
from .polytope import CACHE_SIZE, LatticePolytope, lattice_points, polar_dual

Exponent = Tuple[int, ...]


@dataclass(frozen=True)
class LaurentTerm:
    """coefficient * x^exponent, coefficient = const + psi_coeff * psi."""

    exponent: Exponent
    const: Fraction
    psi_coeff: Fraction = Fraction(0)

    def coefficient_at(self, psi: Fraction) -> Fraction:
        return self.const + self.psi_coeff * psi


@dataclass(frozen=True)
class LaurentPencil:
    """One-parameter Laurent family: dual-vertex monomials plus psi * x^0."""

    n: int
    terms: Tuple[LaurentTerm, ...]
    psi_term_index: int

    def __post_init__(self):
        exps = [t.exponent for t in self.terms]
        if len(set(exps)) != len(exps):
            raise MalformedPencil("pencil exponents must be distinct")
        if not 0 <= self.psi_term_index < len(self.terms):
            raise MalformedPencil(f"psi term index {self.psi_term_index} out of range")
        origin = self.terms[self.psi_term_index]
        if origin.exponent != (0,) * self.n or (origin.const, origin.psi_coeff) != (0, 1):
            raise MalformedPencil("the psi term must be psi times the origin monomial")
        if sum(1 for t in self.terms if t.psi_coeff) != 1:
            raise MalformedPencil("psi may appear only on the origin monomial")


@dataclass(frozen=True)
class LaurentPolynomial:
    """Specialized Laurent polynomial over Q (list of exponent/coefficient)."""

    n: int
    terms: Tuple[Tuple[Exponent, Fraction], ...]


@lru_cache(maxsize=CACHE_SIZE)
def build_vertex_pencil(delta: LatticePolytope) -> LaurentPencil:
    """Vertex pencil of delta: coefficient 1 on each polar-dual vertex
    monomial, psi on the origin monomial.  Memoized per polytope, so the
    same pencil object keys the Hasse-Witt polynomial cache."""
    dual = polar_dual(delta)
    terms = [LaurentTerm(v, Fraction(1)) for v in dual.vertices]
    terms.append(LaurentTerm((0,) * delta.dim, Fraction(0), Fraction(1)))
    return LaurentPencil(delta.dim, tuple(terms), len(terms) - 1)


def specialize(pencil: LaurentPencil, psi) -> LaurentPolynomial:
    """Substitute a rational value for psi; zero coefficients are dropped."""
    psi = Fraction(psi)
    terms = []
    for t in pencil.terms:
        c = t.coefficient_at(psi)
        if c:
            terms.append((t.exponent, c))
    return LaurentPolynomial(pencil.n, tuple(terms))


def homogeneous_form(
    delta: LatticePolytope, coeffs: Dict[Exponent, Fraction]
) -> Tuple[Tuple[Exponent, Fraction], ...]:
    """Homogeneous form of a coefficient vector supported on the dual, as
    (exponents, coeff) monomials in generalized homogeneous coordinates.

    One variable per vertex v_j of delta; the monomial attached to a dual
    point m has exponent <v_j, m> + 1 >= 0 in variable j, since
    <v, m> >= -1 for v in delta and m in its dual.  For simplex families
    these are the familiar (weighted) projective equations.
    """
    support = set(lattice_points(polar_dual(delta)))
    monomials = []
    for m, c in coeffs.items():
        m = tuple(m)
        if m not in support:
            raise UnsupportedMonomial(f"monomial point {m} lies outside the dual")
        exps = tuple(
            sum(v[i] * m[i] for i in range(delta.dim)) + 1
            for v in delta.vertices
        )
        monomials.append((exps, Fraction(c)))
    return tuple(monomials)
