"""hwmt: exact arithmetic for vertex pencils in Gorenstein Fano toric varieties.

Hasse-Witt invariants as constant terms of f^(p-1) mod p, exact point
counts over F_p, truncated hypergeometric series, Picard-Fuchs parameter
extraction, and a census of kernel pairs of reflexive polytopes.

``import hwmt`` runs only the polytope and census layers: ``errors``,
``intlinalg``, ``polytope`` and ``census``, all that ``load_polytopes``
needs.  Their value types are named tuples and one plain class
(``LatticePolytope``), so that ``import hwmt`` does not import
``dataclasses`` and the ``inspect`` it brings; the lazy layers keep their
dataclasses, which load only with them.  ``run_census`` loads ``families`` and ``hypergeometric`` on its
first kernel type of rank > 1, which it labels against the families'
polytopes.  Every other layer (``families``, ``hypergeometric``,
``hasse_witt``, ``picard_fuchs``, ``point_count`` and ``ratfunc``) is
registered as a lazy submodule (``_LazyModule``): it is in ``sys.modules``
from the start, and its code runs on the first read of one of its
attributes, under one lock, so first reads from several threads at once
each see the whole module.  A public name such as ``hwmt.get_family`` or
``hwmt.hasse_witt`` is such a read, made on first use of the name.

The function ``hasse_witt`` shadows its submodule's name, so that module is
kept only in ``sys.modules`` and never bound to the package: ``hwmt.hasse_witt``
is always the function, and ``importlib.import_module("hwmt.hasse_witt")``
the module.  An import of a submodule that is already in ``sys.modules``
binds nothing on the package, so no import order changes that.  For the
same reason ``import hwmt.hasse_witt as m``, which Python compiles to a read
of the name off the package, binds ``m`` to the function; ``from
hwmt.hasse_witt import hasse_witt_polynomial`` and ``import_module`` read
the module.  The other five lazy submodules are package attributes
(``hwmt.families``, ``hwmt.point_count``, ...).

``hwmt.cli`` imports every layer but the Picard-Fuchs and point-count ones
at its top, so ``import hwmt.cli`` runs them before any command does; only
``pf`` and ``verify congruence`` run the other two.  So a lazy package root
speeds up ``import hwmt`` for library use, not the start of the CLI.
"""

import _thread
import types

from .census import load_polytopes, run_census
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


class _LazyModule(types.ModuleType):
    """A submodule whose code runs on the first read of one of its attributes.

    The run holds one lock, and the module becomes a plain module only after
    its code has run, so a read from another thread waits for the whole
    module.  (``importlib.util.LazyLoader`` of Python 3.11 makes it plain
    first and runs the code after, with no lock: another thread could then
    read a half-run module.)
    """

    def __getattribute__(self, attr):
        with _RUN_LOCK:
            # the thread that runs a module reads it too; _RUNNING lets it
            if type(self) is _LazyModule and self not in _RUNNING:
                _RUNNING.add(self)
                try:
                    spec = types.ModuleType.__getattribute__(self, "__spec__")
                    spec.loader.exec_module(self)
                    self.__class__ = types.ModuleType
                finally:
                    _RUNNING.discard(self)
        return types.ModuleType.__getattribute__(self, attr)


_RUN_LOCK = _thread.RLock()
_RUNNING = set()


def _lazy_submodule(name):
    """hwmt.<name>, in sys.modules, run on first read."""
    import importlib.util
    import sys

    spec = importlib.util.find_spec(f"{__name__}.{name}")
    module = importlib.util.module_from_spec(spec)
    module.__class__ = _LazyModule
    sys.modules[spec.name] = module
    return module


families = _lazy_submodule("families")
hypergeometric = _lazy_submodule("hypergeometric")
picard_fuchs = _lazy_submodule("picard_fuchs")
point_count = _lazy_submodule("point_count")
ratfunc = _lazy_submodule("ratfunc")

# public name -> its lazy submodule; read from it on first use.  The
# hasse_witt module is not bound here: the name is the function's.
_LAZY = {
    name: module
    for module, names in (
        (families, ("FAMILIES", "FamilyTag", "get_family")),
        (hypergeometric, ("HypergeometricData", "truncated_pFq")),
        (_lazy_submodule("hasse_witt"), ("hasse_witt", "key_lemma_check",
                                         "period_coefficients",
                                         "truncation_relation_check")),
        (picard_fuchs, ("analyze_family",)),
        (point_count, ("congruence_check",)),
    )
    for name in names
}


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
