"""hwmt: exact arithmetic for vertex pencils in Gorenstein Fano toric varieties.

Hasse-Witt invariants as constant terms of f^(p-1) mod p, exact point
counts over F_p, truncated hypergeometric series, Picard-Fuchs parameter
extraction, and a census of kernel pairs of reflexive polytopes.

``import hwmt`` runs the layers that the census and the Hasse-Witt
invariants use: ``errors``, ``intlinalg``, ``polytope``, ``hypergeometric``,
``families``, ``census`` and ``hasse_witt``.  The Picard-Fuchs layer (with
``ratfunc``) and the point-count layer are registered as lazy submodules
(``importlib.util.LazyLoader``): ``hwmt.point_count`` is in ``sys.modules``
and on the package from the start, and its code runs on the first read of
one of its attributes.  ``hwmt.analyze_family`` and
``hwmt.congruence_check`` are such reads, made on first use of the name.
``hwmt.cli`` reaches the two layers the same way, so only ``pf`` and
``verify congruence`` run them; every other subcommand starts without them.
``hasse_witt`` stays eager because the function shadows the submodule's
name: once an import of ``hwmt.hasse_witt`` binds the module to the package
attribute, the function could not be resolved lazily again.
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


def _lazy_submodule(name):
    """hwmt.<name>, in sys.modules and on the package, run on first read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


picard_fuchs = _lazy_submodule("picard_fuchs")
point_count = _lazy_submodule("point_count")
ratfunc = _lazy_submodule("ratfunc")

# public function -> its lazy submodule; read from it on first use
_LAZY = {"analyze_family": picard_fuchs, "congruence_check": point_count}


def __getattr__(name):
    # called only for a name the package does not hold yet (PEP 562)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_LAZY[name], name)
    return value


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
