"""Spans and counters around the public functions of the hwmt modules.

A traced pass wraps each function named in ``LAYERS`` and rebinds the name
in every hwmt module that holds it, so calls between modules go through the
wrapper.  This happens inside the benchmark's worker process only; the
package on disk is untouched.  Each span records its function, start, end
and parent; a layer's self time is the time of its spans minus the time of
their child spans.

A name that no longer exists is not an error: the metrics that need it are
reported as missing, so a refactor that renames a function does not break
the benchmark.
"""

import sys
import time
from collections import Counter
from functools import update_wrapper

PF_STAGES = ("companion_matrix", "gauge_shear", "substitute_power", "rescale",
             "invert_system", "residue_at_zero", "residue_at_infinity",
             "rational_eigenvalues", "extract_parameters", "mum_normalize")

# layer (= module of hwmt) -> public functions wrapped in a span.  A dotted
# name is a method, wrapped on its class.
LAYERS = {
    "polytope": ("facets", "lattice_points", "vertex_facet_sets", "polar_dual",
                 "vertex_kernel", "is_reflexive", "combinatorially_equivalent",
                 "is_kernel_pair", "lattice_isomorphism", "is_mirror_kernel_pair"),
    "intlinalg": ("left_kernel", "hnf_rows", "mat_rank", "mat_inverse", "mat_det",
                  "vec_primitive"),
    "census": ("load_polytopes", "classify_kernel_types",
               "find_mirror_kernel_pairs", "run_census", "report"),
    "cli": ("main",),
    "pencil": ("build_vertex_pencil", "specialize", "homogeneous_form"),
    "families": ("get_family", "identify_family", "FamilyTag.model_polynomial"),
    "hasse_witt": ("hasse_witt", "key_lemma_check", "constant_term_power",
                   "hasse_witt_polynomial", "period_coefficients",
                   "truncation_relation_check"),
    "hypergeometric": ("truncated_pFq", "clausen_check"),
    "point_count": ("congruence_check", "count_family", "count_projective",
                    "count_weighted_projective", "count_biprojective"),
    "picard_fuchs": ("analyze_family",) + PF_STAGES,
}

# Generators: each yielded item is counted, no span is opened.
COUNTED_GENERATORS = ("polytope.combinatorial_bijections",)

# Caches whose hit counters are read from cache_info() around the section.
CACHES = ("polytope.facets", "polytope.vertex_facet_sets")

SCANS = ("point_count.count_projective", "point_count.count_weighted_projective",
         "point_count.count_biprojective")


def _points_projective(args):
    return args[2] ** (args[1] + 1)


def _points_weighted(args):
    return args[2] ** len(args[1])


def _points_biprojective(args):
    return (args[1] + 1) ** 2


class Tracer:
    """Spans, counters and cache snapshots of one traced pass."""

    def __init__(self):
        self.active = False
        self.op = -1             # index of the workload call in progress
        self.spans = []          # (fid, start, end, parent, outermost, op)
        self.names = []          # fid -> "layer.function"
        self.counts = Counter()
        self.hw_calls = []       # (pencil source, p) of each hasse_witt call
        self.missing = set()     # names that could not be wrapped or hooked
        self.originals = {}
        self.cache_start = {}
        self.cache_end = {}
        self._stack = []
        self._depth = []

    # -- installation -------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hwmt" or name.startswith("hwmt."))]
        for layer, names in LAYERS.items():
            for name in names:
                self._install_one(modules, layer, name, generator=False)
        for qual in COUNTED_GENERATORS:
            layer, name = qual.split(".", 1)
            self._install_one(modules, layer, name, generator=True)

    def _install_one(self, modules, layer, name, generator):
        qual = f"{layer}.{name}"
        owner = sys.modules.get(f"hwmt.{layer}")
        attr = name
        if "." in name:
            cls, attr = name.split(".")
            owner = getattr(owner, cls, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if not callable(fn):
            self.missing.add(qual)
            return
        self.originals[qual] = fn
        if generator:
            wrapper = self._count_yields(fn, qual)
        else:
            self.names.append(qual)
            self._depth.append(0)
            wrapper = self._span(fn, len(self.names) - 1, HOOKS.get(qual))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            return
        for mod in modules:
            for key in [k for k, v in vars(mod).items() if v is fn]:
                setattr(mod, key, wrapper)

    def _span(self, fn, fid, hook):
        tracer, spans, stack, depth = self, self.spans, self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outer = depth[fid] == 0
            depth[fid] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                depth[fid] -= 1
                stack.pop()
                spans[index] = (fid, start, end, parent, outer, tracer.op)
            if hook is not None:
                tracer._run_hook(hook, fid, args, result)
            return result

        return update_wrapper(wrapper, fn)

    def _run_hook(self, hook, fid, args, result):
        try:
            hook(self, args, result)
        except (IndexError, KeyError, TypeError, AttributeError):
            # the function's signature or result changed: its counters are
            # reported missing rather than failing the call
            self.missing.add(self.names[fid] + ":hook")

    def _count_yields(self, fn, qual):
        tracer, counts = self, self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                if tracer.active:
                    counts[qual] += 1
                yield item

        return update_wrapper(wrapper, fn)

    # -- the timed section --------------------------------------------------

    def _cache_snapshot(self):
        snap = {}
        for qual in CACHES:
            info = getattr(self.originals.get(qual), "cache_info", None)
            if info is None:
                self.missing.add(qual + ":cache")
            else:
                ci = info()
                snap[qual] = (ci.hits, ci.misses)
        return snap

    def start(self):
        self.cache_start = self._cache_snapshot()
        self.active = True

    def stop(self):
        self.active = False
        self.cache_end = self._cache_snapshot()


def _hook_hasse_witt(tracer, args, result):
    tracer.hw_calls.append((args[0], args[2]))


def _hook_kernel_pair(tracer, args, result):
    tracer.counts["kernel_pair.hits"] += bool(result[0])


def _hook_mirror(tracer, args, result):
    tracer.counts["mirror.hits"] += bool(result)


def _hook_series(tracer, args, result):
    tracer.counts["series.terms"] += args[2]


def _scan_hook(points):
    def hook(tracer, args, result):
        tracer.counts["points"] += points(args)
    return hook


HOOKS = {
    "hasse_witt.hasse_witt": _hook_hasse_witt,
    "polytope.is_kernel_pair": _hook_kernel_pair,
    "polytope.is_mirror_kernel_pair": _hook_mirror,
    "hypergeometric.truncated_pFq": _hook_series,
    "point_count.count_projective": _scan_hook(_points_projective),
    "point_count.count_weighted_projective": _scan_hook(_points_weighted),
    "point_count.count_biprojective": _scan_hook(_points_biprojective),
}


# --------------------------------------------------------------------------
# summands: exponent vectors that survive for each (pencil, p)
# --------------------------------------------------------------------------

def pencil_exponents(hwmt, source):
    """Exponents of the vertex pencil behind a hasse_witt argument, in the
    pencil's own order (origin last)."""
    if isinstance(source, str):
        pencil = hwmt.get_family(source).vertex_pencil()
    elif hasattr(source, "vertex_pencil"):
        pencil = source.vertex_pencil()
    elif hasattr(source, "terms"):
        pencil = source
    else:
        pencil = hwmt.build_vertex_pencil(source)
    return tuple(t.exponent for t in pencil.terms)


def count_summands(hwmt, tracer, cache):
    """Total surviving exponent vectors over the pass's hasse_witt calls.

    Counted after the section with ``zero_sum_exponents``; the count depends
    only on the exponents and p, so ``cache`` (key -> count) carries it from
    one pass to the next.  Returns None when the function is gone.
    """
    enum = getattr(sys.modules.get("hwmt.hasse_witt"), "zero_sum_exponents", None)
    if enum is None:
        tracer.missing.add("hasse_witt.zero_sum_exponents")
        return None
    total = 0
    for source, p in tracer.hw_calls:
        exps = pencil_exponents(hwmt, source)
        key = f"{p}|{exps}"
        if key not in cache:
            cache[key] = sum(1 for _ in enum(list(exps), p - 1))
        total += cache[key]
    return total


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

class _Missing(Exception):
    pass


def layer_metrics(tracer, summands, scale):
    """Per-layer metrics of one traced pass: name -> value, or None when a
    function or counter it needs is missing.  Times are scaled to the
    reference kernel speed with ``scale[op]`` of the call they ran in."""
    n = len(tracer.names)
    calls, incl, self_t = [0] * n, [0.0] * n, [0.0] * n
    child = [0.0] * len(tracer.spans)
    for fid, start, end, parent, outer, op in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (fid, start, end, parent, outer, op) in enumerate(tracer.spans):
        f = scale[op]
        calls[fid] += 1
        self_t[fid] += (end - start - child[i]) * f
        if outer:
            incl[fid] += (end - start) * f
    fids = {name: i for i, name in enumerate(tracer.names)}

    def need(*quals):
        # "name:hook" and "name:cache" are counters of a wrapped function
        for q in quals:
            if q in tracer.missing or q.split(":")[0] not in tracer.originals:
                raise _Missing(q)

    def n_calls(q):
        need(q)
        return calls[fids[q]]

    def incl_s(q):
        need(q)
        return incl[fids[q]]

    def layer_self(layer):
        names = [q for q in fids if q.startswith(layer + ".")]
        if not names:
            raise _Missing(layer)
        return sum(self_t[fids[q]] for q in names)

    def counter(q, key):
        need(q, q + ":hook")
        return tracer.counts[key]

    def hit_ratio(q):
        need(q)
        if q not in tracer.cache_start or q not in tracer.cache_end:
            raise _Missing(q + ":cache")
        h0, m0 = tracer.cache_start[q]
        h1, m1 = tracer.cache_end[q]
        lookups = (h1 - h0) + (m1 - m0)
        return (h1 - h0) / lookups if lookups else 0.0

    def yields(q):
        need(q)
        return tracer.counts[q]

    def ratio(num, den):
        return num / den if den else 0.0

    def summand_count():
        need("hasse_witt.hasse_witt", "hasse_witt.hasse_witt:hook")
        if summands is None:
            raise _Missing("hasse_witt.zero_sum_exponents")
        return summands

    def scans_s():
        return sum(incl_s(q) for q in SCANS)

    def points():
        need(*SCANS, *(q + ":hook" for q in SCANS))
        return tracer.counts["points"]

    table = {
        "hasse_witt.calls": lambda: n_calls("hasse_witt.hasse_witt"),
        "hasse_witt.self_s": lambda: layer_self("hasse_witt"),
        "hasse_witt.constant_term_s": lambda: incl_s("hasse_witt.constant_term_power"),
        "hasse_witt.key_lemma_s": lambda: incl_s("hasse_witt.key_lemma_check"),
        "hasse_witt.summands": summand_count,
        "hasse_witt.us_per_summand": lambda: 1e6 * ratio(
            incl_s("hasse_witt.constant_term_power"), summand_count()),
        "polytope.self_s": lambda: layer_self("polytope"),
        "polytope.facets.calls": lambda: n_calls("polytope.facets"),
        "polytope.facets.cache_hit_ratio": lambda: hit_ratio("polytope.facets"),
        "polytope.vertex_facet_sets.cache_hit_ratio":
            lambda: hit_ratio("polytope.vertex_facet_sets"),
        "polytope.bijections_tried": lambda: yields("polytope.combinatorial_bijections"),
        "polytope.kernel_pair.hit_ratio": lambda: ratio(
            counter("polytope.is_kernel_pair", "kernel_pair.hits"),
            n_calls("polytope.is_kernel_pair")),
        "polytope.mirror.hit_ratio": lambda: ratio(
            counter("polytope.is_mirror_kernel_pair", "mirror.hits"),
            n_calls("polytope.is_mirror_kernel_pair")),
        "polytope.lattice_isomorphism_s": lambda: incl_s("polytope.lattice_isomorphism"),
        "intlinalg.self_s": lambda: layer_self("intlinalg"),
        "intlinalg.left_kernel.calls": lambda: n_calls("intlinalg.left_kernel"),
        "intlinalg.mat_inverse.calls": lambda: n_calls("intlinalg.mat_inverse"),
        "census.load_s": lambda: incl_s("census.load_polytopes"),
        "census.classify_s": lambda: incl_s("census.classify_kernel_types"),
        "census.pairs_s": lambda: incl_s("census.find_mirror_kernel_pairs"),
        "census.report_s": lambda: incl_s("census.report"),
        "cli.self_s": lambda: layer_self("cli"),
        "hypergeometric.calls": lambda: n_calls("hypergeometric.truncated_pFq"),
        "hypergeometric.terms": lambda: counter("hypergeometric.truncated_pFq",
                                                "series.terms"),
        "hypergeometric.self_s": lambda: layer_self("hypergeometric"),
        "hypergeometric.us_per_term": lambda: 1e6 * ratio(
            incl_s("hypergeometric.truncated_pFq"),
            counter("hypergeometric.truncated_pFq", "series.terms")),
        "point_count.points_scanned": points,
        "point_count.self_s": lambda: layer_self("point_count"),
        "point_count.ns_per_point": lambda: 1e9 * ratio(scans_s(), points()),
        "pencil.self_s": lambda: layer_self("pencil"),
        "families.model_polynomial_s":
            lambda: incl_s("families.FamilyTag.model_polynomial"),
        "picard_fuchs.self_s": lambda: layer_self("picard_fuchs"),
    }
    for stage in PF_STAGES:
        table[f"picard_fuchs.{stage}_s"] = (
            lambda q=f"picard_fuchs.{stage}": incl_s(q))

    out = {}
    for name, compute in table.items():
        try:
            out[name] = compute()
        except _Missing:
            out[name] = None
    return out


def layer_metric_names():
    """Names of every per-layer metric a traced pass reports."""
    return list(layer_metrics(Tracer(), 0, []))
