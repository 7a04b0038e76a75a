"""The three benchmark workloads: the calls each one issues and the check
applied to each result.

A workload is a list of operations.  Each operation calls one public hwmt
function; its check runs after the timed section and compares the result
with something the timed call did not compute: a stored table made once
from the depth-first constant-term engine (``reference.json``), a theorem
relating two different code paths, or the benchmark's own arithmetic.  A
faster engine is therefore never its own oracle.

The seed draws the psi values from ``PSI_POOL`` and fixes the order of the
operations.  Every member of the pool is smooth for all five families, and
enumeration and scan cost do not depend on psi, so every seed gives the
same load.
"""

import contextlib
import io
import json
import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, Dict, Tuple

PSI_POOL = (2, 3, 5, 6, 7)
FAMILY_NAMES = ("elliptic", "quartic", "sextic", "group1", "group2")
FIXTURES = ("polygons2d.txt", "tables3d.txt")
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Full sizes.  Smoke sizes (--smoke) are small subsets that exercise every
# kind of operation in a few seconds.
SIZES = {
    "hw-large-p": {
        "full": {"families": FAMILY_NAMES, "primes": (43, 47, 53, 59), "npsi": 2},
        "smoke": {"families": ("quartic", "sextic"), "primes": (43,), "npsi": 1},
    },
    "census-sweep": {
        "full": {"key_lemma_primes": (5, 7, 11, 13), "pairs": None,
                 "hw_primes": (5, 7, 11, 13, 17), "pencils": None, "npsi": 3},
        "smoke": {"key_lemma_primes": (5,), "pairs": 2,
                  "hw_primes": (5,), "pencils": 3, "npsi": 1},
    },
    "count-verify": {
        "full": {"counts": {"elliptic": (101, 151), "quartic": (11, 13, 17),
                            "sextic": (13, 17, 19)},
                 "series_families": FAMILY_NAMES, "series_primes": (211, 307, 401),
                 "pf_families": None, "npsi": 2},
        "smoke": {"counts": {"elliptic": (101,)},
                  "series_families": ("quartic",), "series_primes": (211,),
                  "pf_families": ("sextic",), "npsi": 1},
    },
}

WORKLOADS = tuple(SIZES)

# The 2D census must show these (vertex count, self-dual) shapes: two mirror
# pairs of triangles, a self-dual triangle, the P1xP1 quadrilateral pair and
# the self-dual quadrilateral, pentagon and hexagon.
CENSUS2D_SHAPES = [(3, False), (3, False), (3, True), (4, False), (4, True),
                   (5, True), (6, True)]


@dataclass(frozen=True)
class Op:
    """One call into hwmt and the independent check of its result."""

    kind: str
    args: Tuple
    call: Callable[[], Any]
    check: Callable[[Any], bool]


def load_reference() -> Dict:
    return json.loads(REFERENCE_PATH.read_text())


def draw_psi(workload: str, seed: int, npsi: int):
    return sorted(random.Random(f"{workload}:{seed}").sample(PSI_POOL, npsi))


def _shuffle(ops, workload, seed):
    random.Random(f"{workload}:{seed}:order").shuffle(ops)
    return ops


def fixture_key(fixture: str, pid: int) -> str:
    return f"{fixture}:{pid}"


def build(hwmt, workload: str, seed: int, smoke: bool, ref: Dict):
    """Return (ops, info) for one pass of the workload.

    ``hwmt`` is the imported package; calls are bound to its public names
    as they are when this runs, so a traced pass sees the wrapped ones.
    """
    size = SIZES[workload]["smoke" if smoke else "full"]
    psis = draw_psi(workload, seed, size["npsi"])
    builder = {"hw-large-p": _hw_large_p, "census-sweep": _census_sweep,
               "count-verify": _count_verify}[workload]
    ops = builder(hwmt, size, psis, ref, seed)
    info = {"psi": psis, "ops": len(ops), "size": "smoke" if smoke else "full"}
    return ops, info


# --------------------------------------------------------------------------
# hw-large-p: Hasse-Witt of the named families at large p
# --------------------------------------------------------------------------

def _hw_large_p(hwmt, size, psis, ref, seed):
    table = ref["hw_family"]

    def check(fam, psi, p, result):
        # Main Theorem: HW equals the truncated series of the family; the
        # stored value comes from the depth-first engine.
        series = hwmt.truncated_pFq(hwmt.get_family(fam).hg, psi, p).value
        return result.value == series == table[fam][str(psi)][str(p)]

    ops = [
        Op("hasse_witt", (fam, psi, p), partial(hwmt.hasse_witt, fam, psi, p),
           partial(check, fam, psi, p))
        for fam in size["families"]
        for p in size["primes"]
        for psi in psis
    ]
    return _shuffle(ops, "hw-large-p", seed)


# --------------------------------------------------------------------------
# census-sweep: CLI census, 2D census, Key Lemma and fixture Hasse-Witt
# --------------------------------------------------------------------------

def _run_cli_census(hwmt):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = hwmt.cli.main(["census", "--report", "json"])
    return code, buf.getvalue()


def _check_cli_census(expected, result):
    code, text = result
    data = json.loads(text)
    pairs = {tuple(pr) for row in data["rows"] for pr in row["pairs"]}
    return (code == 0 and data["types"] == expected["types"]
            and data["pairs"] == len(expected["pairs"])
            and data["self_dual"] == expected["self_dual"]
            and pairs == {tuple(pr) for pr in expected["pairs"]})


def _census2d(hwmt, state):
    records = hwmt.load_polytopes(hwmt.census.fixture_path("polygons2d.txt"))
    state["polygons2d.txt"] = {r.id: r.polytope for r in records}
    return hwmt.run_census(records)


def _check_census2d(result):
    by_id = {r.id: r.polytope for r in result.records}
    shapes = sorted((by_id[a].nvertices, a == b) for a, b in result.pairs)
    return shapes == CENSUS2D_SHAPES


def _load3d(hwmt, state):
    records = hwmt.load_polytopes(hwmt.census.fixture_path("tables3d.txt"))
    state["tables3d.txt"] = {r.id: r.polytope for r in records}
    return len(records)


def _key_lemma(hwmt, state, a, b, psi, p):
    polys = state["tables3d.txt"]
    return hwmt.key_lemma_check(polys[a], polys[b], psi, p)


def _check_key_lemma(expected, result):
    ok, hw_a, hw_b = result
    return ok is True and hw_a.value == hw_b.value == expected


def _fixture_hw(hwmt, state, fixture, pid, psi, p):
    return hwmt.hasse_witt(state[fixture][pid], psi, p)


def _census_sweep(hwmt, size, psis, ref, seed):
    state: Dict[str, Dict] = {}
    hw = ref["hw_fixture"]
    pairs = [tuple(pr) for pr in ref["census3d"]["pairs"]]
    if size["pairs"] is not None:
        pairs = pairs[: size["pairs"]]
    pencils = [k.split(":") for k in hw]
    if size["pencils"] is not None:
        pencils = pencils[: size["pencils"]]
    head = [
        Op("cli.census", (), partial(_run_cli_census, hwmt),
           partial(_check_cli_census, ref["census3d"])),
        Op("census2d", (), partial(_census2d, hwmt, state), _check_census2d),
        Op("load3d", (), partial(_load3d, hwmt, state),
           partial(operator.eq, ref["census3d"]["records"])),
    ]
    body = [
        Op("key_lemma_check", (a, b, psi, p),
           partial(_key_lemma, hwmt, state, a, b, psi, p),
           partial(_check_key_lemma,
                   hw[fixture_key("tables3d.txt", a)][str(psi)][str(p)]))
        for a, b in pairs
        for psi in psis
        for p in size["key_lemma_primes"]
    ]
    body += [
        Op("hasse_witt", (fixture, int(pid), psi, p),
           partial(_fixture_hw, hwmt, state, fixture, int(pid), psi, p),
           partial(_check_value, hw[fixture_key(fixture, pid)][str(psi)][str(p)]))
        for fixture, pid in pencils
        for psi in psis
        for p in size["hw_primes"]
    ]
    return head + _shuffle(body, "census-sweep", seed)


def _check_value(expected, result):
    return result.value == expected


# --------------------------------------------------------------------------
# count-verify: point-count congruences, truncated series, Picard-Fuchs
# --------------------------------------------------------------------------

def series_mod_p(coeffs, argument, psi, p):
    """The exact rational partial sum sum_n coeffs[n] z^n at z = c psi^e,
    reduced mod p with the benchmark's own arithmetic."""
    c, e = argument
    z = Fraction(c) * Fraction(psi) ** e
    total = sum(a * z ** n for n, a in enumerate(coeffs))
    return total.numerator * pow(total.denominator, -1, p) % p


def _check_congruence(expected_count, result):
    ok, count, _ = result
    return ok is True and count == expected_count


def _count_verify(hwmt, size, psis, ref, seed):
    taylor_cache: Dict[Tuple[str, int], list] = {}

    def check_series(fam, psi, p, result):
        hg = hwmt.get_family(fam).hg
        if (fam, p) not in taylor_cache:
            taylor_cache[fam, p] = hwmt.hypergeometric.pfq_taylor(
                hg.numerators, hg.denominators, p)
        return result.value == series_mod_p(taylor_cache[fam, p], hg.argument, psi, p)

    ops = [
        Op("congruence_check", (fam, psi, p),
           partial(hwmt.congruence_check, fam, psi, p),
           partial(_check_congruence, ref["counts"][fam][str(psi)][str(p)]))
        for fam, primes in size["counts"].items()
        for p in primes
        for psi in psis
    ]
    ops += [
        Op("truncated_pFq", (fam, psi, p),
           partial(hwmt.truncated_pFq, hwmt.get_family(fam).hg, psi, p),
           partial(check_series, fam, psi, p))
        for fam in size["series_families"]
        for p in size["series_primes"]
        for psi in psis
    ]
    pf = size["pf_families"] or tuple(ref["pf_final"])
    ops += [
        Op("analyze_family", (fam,), partial(hwmt.analyze_family, fam),
           partial(_check_pf, ref["pf_final"][fam]))
        for fam in pf
    ]
    return _shuffle(ops, "count-verify", seed)


def _check_pf(expected, report):
    return str(report.final) == expected
