"""hwmt: exact arithmetic for vertex pencils in Gorenstein Fano toric varieties.

Hasse-Witt invariants as constant terms of f^(p-1) mod p, exact point
counts over F_p, truncated hypergeometric series, Picard-Fuchs parameter
extraction, and a census of kernel pairs of reflexive polytopes.
"""

from .census import load_polytopes, run_census
from .families import FAMILIES, FamilyTag, get_family
from .hasse_witt import (
    hasse_witt,
    key_lemma_check,
    period_coefficients,
    truncation_relation_check,
)
from .hypergeometric import HypergeometricData, truncated_pFq
from .picard_fuchs import analyze_family
from .point_count import congruence_check
from .polytope import (
    FacetInequality,
    KernelLattice,
    LatticePolytope,
    is_kernel_pair,
    is_mirror_kernel_pair,
    is_reflexive,
    lattice_points,
    polar_dual,
    vertex_kernel,
)

__all__ = [
    "FAMILIES",
    "FacetInequality",
    "FamilyTag",
    "HypergeometricData",
    "KernelLattice",
    "LatticePolytope",
    "analyze_family",
    "congruence_check",
    "get_family",
    "hasse_witt",
    "is_kernel_pair",
    "is_mirror_kernel_pair",
    "is_reflexive",
    "key_lemma_check",
    "lattice_points",
    "load_polytopes",
    "period_coefficients",
    "polar_dual",
    "run_census",
    "truncated_pFq",
    "truncation_relation_check",
    "vertex_kernel",
]

__version__ = "0.1.0"
