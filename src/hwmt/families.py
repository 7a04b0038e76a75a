"""The named pencil families and their stored data.

Each family records the polytope whose vertex pencil it is (the monomials
are the vertices of its polar dual, plus psi on the origin), the truncation
target of the classification table (vertex-pencil convention, +psi on the
origin monomial), the printed coefficient on psi of the model equation used
for point counts (e.g. -4 for -4*psi on the Fermat quartic), the
Picard-Fuchs equation, and the substitution/rescaling constants of the
parameter-extraction pipeline.  The polytope's vertices, in stored order,
are the printed model's variables, and the rows of its vertex kernel grade
them: `point_count.count_graded` counts the model in the quotient by that
grading, so the ambient is never chosen by name.  `model` only names it
in the output ("projective" for P^3, "weighted_projective" for
P(3,1,1,1), "biprojective" for P1 x P1), or is None when no counter
exists.

The two coefficient conventions deliberately coexist: the vertex pencil
x^4-type sum + psi*(product) pairs with argument 256/psi^4, while the
printed model with -4*psi pairs with 1/psi^4.  They are related by
psi -> -4*psi, so only `hg` is stored: the printed target `model_hg` and
the printed model's smoothness are derived from it through that
substitution.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional, Tuple

from .errors import UnknownFamily
from .hypergeometric import HypergeometricData, rational
from .polytope import LatticePolytope, normal_form, polar_dual

F = Fraction


@dataclass(frozen=True)
class FamilyTag:
    name: str
    display: str
    polytope: LatticePolytope
    hg: HypergeometricData                      # vertex-pencil convention
    model: Optional[str]                        # printed ambient, if countable
    model_psi_coeff: Fraction                   # printed coefficient on psi
    pf_ode: Optional[Tuple]                     # (c_0, .., c_{n-1}) as (num, den)
    substitution_k: Optional[int]
    rescale_c: Optional[Fraction]
    clausen_2f1: Optional[Tuple[Fraction, ...]]
    mum_note: str = ""
    intermediate_note: str = ""

    def is_smooth(self, psi) -> bool:
        """psi != 0 and hg's argument c psi^e != 1.  With psi = a/b and c =
        u/v, c psi^e = 1 exactly when u a^e = v b^e (u b^-e = v a^-e for
        e < 0), so the test is one integer comparison."""
        if not isinstance(psi, (int, Fraction)):
            psi = rational(psi)
        a, b = psi.numerator, psi.denominator
        c, e = self.hg.argument
        if e < 0:
            a, b, e = b, a, -e
        return psi.numerator != 0 and c.numerator * a**e != c.denominator * b**e

    @property
    def model_hg(self) -> HypergeometricData:
        """Printed-convention target: hg with psi -> model_psi_coeff * psi."""
        c, e = self.hg.argument
        return replace(self.hg, argument=(c * self.model_psi_coeff ** e, e))

    def is_smooth_model(self, psi) -> bool:
        return self.is_smooth(self.model_psi_coeff * rational(psi))

    def model_polynomial(self, psi) -> Tuple[Tuple[Fraction, Tuple[int, ...]], ...]:
        """Printed-model equation at the given psi, as (coeff, exponents)
        monomials in the generalized homogeneous coordinates: dual point m
        has exponent <v_j, m> + 1 >= 0 in the variable of vertex v_j.  The
        dual vertices come first, then the origin (the product of all
        variables) unless its printed coefficient is 0.
        """
        delta = self.polytope
        terms = [(m, F(1)) for m in polar_dual(delta).vertices]
        terms.append(((0,) * delta.dim, self.model_psi_coeff * rational(psi)))
        return tuple(
            (c, tuple(sum(x * y for x, y in zip(v, m)) + 1 for v in delta.vertices))
            for m, c in terms if c
        )


_ELLIPTIC = FamilyTag(
    name="elliptic",
    display="EllipticP1xP1",
    # ruling order: the model's variables are (x0, x1) = +-e1, (y0, y1) = +-e2
    polytope=LatticePolytope(2, ((1, 0), (-1, 0), (0, 1), (0, -1))),
    hg=HypergeometricData((F(1, 2), F(1, 2)), (F(1),), (F(1, 16), 2)),
    model="biprojective",
    model_psi_coeff=F(1),
    pf_ode=(
        ((0, 1), (0, -16, 0, 1)),          # psi / (psi^3 - 16 psi)
        ((-16, 0, 3), (0, -16, 0, 1)),     # (3 psi^2 - 16) / (psi^3 - 16 psi)
    ),
    substitution_k=2,
    rescale_c=F(16),
    clausen_2f1=None,
    mum_note=(
        "already MUM at 0; the argument is kept in the printed orientation "
        "psi^2/16 rather than the inverted 16/psi^2"
    ),
)

_QUARTIC = FamilyTag(
    name="quartic",
    display="Quartic",
    polytope=LatticePolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1))),
    hg=HypergeometricData((F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)),
    model="projective",
    model_psi_coeff=F(-4),
    pf_ode=None,
    substitution_k=None,
    rescale_c=None,
    clausen_2f1=None,
)

_SEXTIC = FamilyTag(
    name="sextic",
    display="Sextic",
    polytope=LatticePolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -1, -1))),
    hg=HypergeometricData((F(1, 2), F(1, 6), F(5, 6)), (F(1), F(1)), (F(1728), -6)),
    model="weighted_projective",
    model_psi_coeff=F(-1),
    pf_ode=(
        ((0, 0, 0, 1), (-1728, 0, 0, 0, 0, 0, 1)),
        ((-5184, 0, 0, 0, 0, 0, 7), (0, 0, -1728, 0, 0, 0, 0, 0, 1)),
        ((5184, 0, 0, 0, 0, 0, 6), (0, -1728, 0, 0, 0, 0, 0, 1)),
    ),
    substitution_k=6,
    rescale_c=F(1728),
    clausen_2f1=None,
)

_GROUP1 = FamilyTag(
    name="group1",
    display="GroupI",
    polytope=LatticePolytope(
        3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, -1), (-1, -1, 0))
    ),
    hg=HypergeometricData((F(1, 2), F(1, 3), F(2, 3)), (F(1), F(1)), (F(-108), -3)),
    model=None,
    model_psi_coeff=F(1),
    pf_ode=(
        ((0, 1), (0, 108, 0, 0, 1)),
        ((0, 0, 7), (0, 108, 0, 0, 1)),
        ((162, 0, 0, 6), (0, 108, 0, 0, 1)),
    ),
    substitution_k=3,
    rescale_c=F(-108),
    clausen_2f1=(F(1, 6), F(1, 3)),
    intermediate_note=(
        "computed exponents at 0 are {0, 1/6, 1/3}, so the 1-beta reading "
        "gives lower parameters {2/3, 5/6}; the published intermediate "
        "lists {1/3, 1/6} instead, which is inconsistent with its own "
        "MUM-normalized result -- the computed exponents are reported"
    ),
)

_GROUP2 = FamilyTag(
    name="group2",
    display="GroupII",
    polytope=LatticePolytope(
        3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, 0, -1), (-2, -1, 0))
    ),
    hg=HypergeometricData((F(1, 2), F(1, 4), F(3, 4)), (F(1), F(1)), (F(256), -4)),
    model=None,
    model_psi_coeff=F(1),
    pf_ode=(
        ((0, 1), (-256, 0, 0, 0, 1)),
        ((0, 0, 7), (-256, 0, 0, 0, 1)),
        ((0, 0, 0, 6), (-256, 0, 0, 0, 1)),
    ),
    substitution_k=4,
    rescale_c=F(256),
    clausen_2f1=(F(1, 8), F(3, 8)),
)

FAMILIES = {
    f.name: f for f in (_ELLIPTIC, _QUARTIC, _SEXTIC, _GROUP1, _GROUP2)
}

# each family by its name and its display name, plus the other spellings
_ALIASES = {
    **{key: f.name for f in FAMILIES.values() for key in (f.name, f.display.lower())},
    "fermat": "quartic",
    "group-i": "group1",
    "group-ii": "group2",
}


def get_family(tag) -> FamilyTag:
    if isinstance(tag, FamilyTag):
        return tag
    key = str(tag).strip().lower().replace(" ", "")
    if key not in _ALIASES:
        raise UnknownFamily(
            f"unknown family {tag!r}; expected one of {sorted(FAMILIES)}"
        )
    return FAMILIES[_ALIASES[key]]


def identify_family(poly: LatticePolytope) -> Optional[FamilyTag]:
    """The family whose polytope is GL(n,Z)-isomorphic to poly, if any."""
    key = normal_form(poly)
    for fam in FAMILIES.values():
        if normal_form(fam.polytope) == key:
            return fam
    return None
