"""Command-line surface: every operation as a subcommand with JSON output.

Rationals are written `r/s` on the command line and as strings in JSON
(never as floats); identical inputs produce byte-identical output.  Exit
codes: 0 success / all verifications pass, 1 verification failure (with a
JSON diagnostic on stdout), 2 usage errors.  In a (psi, p) grid an error in
one cell becomes that cell's row, {"psi", "p", "error", "message"}, and the
other cells are still computed.  When stdout closes before the output is
written (``hwmt census | head -1``), the exit code is 1 and a one-line JSON
diagnostic goes to stderr.
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import census as census_mod
# lazy submodules (see hwmt/__init__): only `pf` and `verify congruence`
# run their code
from . import picard_fuchs, point_count
from .errors import HwmtError, SingularMember
from .families import FAMILIES, get_family
from .hasse_witt import (
    hasse_witt,
    key_lemma_check,
    truncation_relation_check,
)
from .hypergeometric import (
    HypergeometricData,
    clausen_check,
    quadratic_residue_check,
    truncated_pFq,
)
from .polytope import (
    LatticePolytope,
    is_kernel_pair,
    is_mirror_kernel_pair,
    is_reflexive,
    polar_dual,
    vertex_kernel,
)


class _UsageError(Exception):
    """Bad command-line input found after parsing; exits 2 like argparse."""


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad rational {text!r}") from exc


def _nonempty(values, text: str):
    # an empty grid would check nothing and still exit 0
    if not values:
        raise argparse.ArgumentTypeError(f"empty list {text!r}")
    return values


def _frac_list(text: str):
    return _nonempty([_frac(x) for x in text.split(",") if x], text)


def _int_list(text: str):
    try:
        return _nonempty([int(x) for x in text.split(",") if x], text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


def _vertices_arg(text: str):
    try:
        verts = tuple(
            tuple(int(x) for x in chunk.split(","))
            for chunk in text.split(";") if chunk
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad vertex list {text!r}") from exc
    if not verts:
        raise argparse.ArgumentTypeError("empty vertex list")
    return verts


def _params_arg(text: str):
    parts = text.split(";")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected NUMS;DENS with one ';', got {text!r}"
        )
    # no lower parameters (a 1F0) is a valid shape, so a list may be empty
    return tuple(tuple(_frac(x) for x in part.split(",") if x) for part in parts)


def _power_arg(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected C,E, got {text!r}")
    try:
        return _frac(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad exponent in {text!r}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2, default=str))


def _fixture_polytopes(path, ids, flag):
    """The polytopes with these ids in the fixture file (default: the bundled
    3D tables); an id the file lacks is a usage error."""
    by_id = {r.id: r.polytope for r in census_mod.load_polytopes(
        path or census_mod.fixture_path("tables3d.txt"))}
    for i in ids:
        if i not in by_id:
            raise _UsageError(f"{flag}: id {i} not in the fixture")
    return tuple(by_id[i] for i in ids)


def _pair_polytopes(args):
    if args.pair is None:
        raise _UsageError("--pair A,B is required")
    return _fixture_polytopes(args.input, args.pair, "--pair")


def _select_polytope(args) -> LatticePolytope:
    if args.vertices:
        return LatticePolytope(len(args.vertices[0]), args.vertices)
    if args.id is not None:
        return _fixture_polytopes(args.input, (args.id,), "--id")[0]
    flags = "--vertices, --id or --family" if "family" in vars(args) else "--vertices or --id"
    raise _UsageError(f"select a polytope with {flags}")


# --------------------------------------------------------------------------
# subcommand handlers
# --------------------------------------------------------------------------

def _cmd_polytope(args) -> int:
    poly = _select_polytope(args)
    if args.action == "dual":
        _emit({"vertices": [list(v) for v in polar_dual(poly).vertices]})
    elif args.action == "reflexive":
        _emit({"reflexive": is_reflexive(poly)})
    else:
        k = vertex_kernel(poly)
        _emit({"ambient_rank": k.ambient_rank, "basis": [list(v) for v in k.basis]})
    return 0


def _cmd_pair(args) -> int:
    p, q = _pair_polytopes(args)
    ok, witness = is_kernel_pair(p, q)
    _emit(
        {
            "pair": list(args.pair),
            "kernel_pair": ok,
            "witness": list(witness) if witness else None,
            "mirror_kernel_pair": is_mirror_kernel_pair(p, q),
        }
    )
    return 0


def _cmd_pencil(args) -> int:
    delta = get_family(args.family).polytope if args.family else _select_polytope(args)
    rows = [{"exponent": list(m), "coeff": "1", "has_psi": False}
            for m in polar_dual(delta).vertices]
    origin = [0] * delta.dim
    if args.psi is None:
        rows.append({"exponent": origin, "coeff": "0", "has_psi": True})
    elif args.psi:
        rows.append({"exponent": origin, "coeff": str(args.psi), "has_psi": False})
    _emit(rows)
    return 0


def _error_row(exc: HwmtError):
    return {"error": type(exc).__name__, "message": str(exc)}


def _sweep(args, cell) -> int:
    """Emit one row per (psi, p) of the grid, cell(psi, p) giving the row's
    other keys and its verdict; exit 1 if any verdict is False.  A cell that
    raises an HwmtError becomes an error row and counts as a failure; the
    other cells are still computed."""
    rows, failures = [], 0
    for psi in args.psi:
        for p in args.primes:
            try:
                row, ok = cell(psi, p)
            except HwmtError as exc:
                row, ok = _error_row(exc), False
            failures += ok is False
            rows.append({"psi": str(psi), "p": p, **row})
    _emit(rows)
    return 1 if failures else 0


def _cmd_hw(args) -> int:
    if args.family:
        source = get_family(args.family)
        label = source.name
    else:
        source = _select_polytope(args)
        # a polytope without a lattice dual has no pencil: that fails the
        # command, not each cell of the grid
        polar_dual(source)
        label = "pencil"
    return _sweep(args, lambda psi, p: (
        {"family": label, "hw": hasse_witt(source, psi, p).value}, None))


def _cmd_count(args) -> int:
    fam = get_family(args.family)

    def cell(psi, p):
        try:
            ok, count, _ = point_count.congruence_check(fam, psi, p)
        except SingularMember:
            return {"model": fam.model, "count": None, "congruence_ok": None,
                    "singular": True}, None
        return {"model": fam.model, "count": count, "congruence_ok": ok}, ok

    return _sweep(args, cell)


def _cmd_hyp(args) -> int:
    try:
        data = HypergeometricData(*args.params, args.arg)
    except ValueError as exc:
        raise _UsageError(f"--params: {exc}") from exc
    value = truncated_pFq(data, args.psi, args.prime)
    _emit(
        {
            "series": str(data),
            "psi": str(args.psi),
            "prime": args.prime,
            "value": value.value,
            "terms_used": value.terms_used,
            "quadratic_residue": quadratic_residue_check(value.value, args.prime),
        }
    )
    return 0


def _cmd_pf(args) -> int:
    d = picard_fuchs.analyze_family(args.family).as_dict()
    if args.json:
        _emit(d)
        return 0
    print(f"family: {d['family']}")
    for stage in ("companion", "sheared", "powered", "rescaled", "inverted",
                  "residue_zero", "residue_infinity"):
        print(f"{stage}:")
        for row in d[stage]:
            print("   [" + ", ".join(row) + "]")
    print("exponents at 0:", ", ".join(d["exponents_at_zero"]))
    print("exponents at infinity:", ", ".join(d["exponents_at_infinity"]))
    print("intermediate:", d["intermediate"])
    print("final:", d["final"])
    for note in d["notes"]:
        print("note:", note)
    return 0


def _cmd_census(args) -> int:
    path = args.input or census_mod.fixture_path("tables3d.txt")
    result = census_mod.run_census(census_mod.load_polytopes(path))
    print(census_mod.report(result, args.report))
    return 0


# the selectors each verify mode reads; any other one is a usage error
_VERIFY_SELECTORS = {
    "key-lemma": ("pair",),
    "truncation": ("family", "vertices", "id"),
    "congruence": ("family",),
    "clausen": ("family",),
}


def _cmd_verify(args) -> int:
    for flag in ("pair", "family", "vertices", "id"):
        if getattr(args, flag) is not None and flag not in _VERIFY_SELECTORS[args.what]:
            raise _UsageError(f"verify {args.what} does not read --{flag}")
    if args.what in ("congruence", "clausen") and args.family is None:
        raise _UsageError(f"verify {args.what} requires --family")
    if args.what == "key-lemma":
        poly_a, poly_b = _pair_polytopes(args)

        def cell(psi, p):
            ok, hw_a, hw_b = key_lemma_check(poly_a, poly_b, psi, p)
            return {"pair": list(args.pair), "hw": [hw_a.value, hw_b.value],
                    "match": ok}, ok
    elif args.what == "truncation":
        target = args.family if args.family else _select_polytope(args)
        label = args.family or "polytope"

        def cell(psi, p):
            ok = truncation_relation_check(target, psi, p)
            return {"family": label, "match": ok}, ok
    elif args.what == "congruence":
        fam = get_family(args.family)

        def cell(psi, p):
            try:
                ok, count, trunc = point_count.congruence_check(fam, psi, p)
            except SingularMember:
                return {"family": fam.name, "singular": True, "match": None}, None
            return {"family": fam.name, "count": count, "truncation": trunc,
                    "match": ok}, ok
    else:  # clausen: mismatches are findings, not failures
        fam = get_family(args.family)

        def cell(psi, p):
            return {"family": fam.name, "match": clausen_check(fam, psi, p)}, None
    return _sweep(args, cell)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _pair_arg(text):
    try:
        a, b = (int(x) for x in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A,B, got {text!r}") from exc
    return a, b


def _add_selector(parser, with_family=False):
    # one selector at most: a conflict is a usage error, not a silent choice
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--vertices", type=_vertices_arg,
                       help="inline vertices: x,y,z;x,y,z;...")
    group.add_argument("--id", type=int, help="polytope id from the fixture")
    if with_family:
        group.add_argument("--family", choices=sorted(FAMILIES),
                           help="named pencil family")
    parser.add_argument("--input", help="fixture file (default: bundled 3D tables)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hwmt",
        description="Exact Hasse-Witt invariants, point counts, and "
        "hypergeometric truncations of toric vertex pencils.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", help="polar dual, reflexivity, kernel")
    p.add_argument("action", choices=["dual", "reflexive", "kernel"])
    _add_selector(p)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("pair", help="kernel-pair and mirror-pair predicates")
    p.add_argument("action", choices=["check"])
    p.add_argument("--pair", type=_pair_arg, required=True, metavar="A,B")
    p.add_argument("--input")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("pencil", help="build a vertex pencil")
    p.add_argument("action", choices=["build"])
    _add_selector(p, with_family=True)
    p.add_argument("--psi", type=_frac, help="set psi to this rational")
    p.set_defaults(func=_cmd_pencil)

    p = sub.add_parser("hw", help="Hasse-Witt invariants")
    _add_selector(p, with_family=True)
    p.add_argument("--psi", type=_frac_list, required=True)
    p.add_argument("--primes", type=_int_list, required=True)
    p.set_defaults(func=_cmd_hw)

    p = sub.add_parser("count", help="exact point counts")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--psi", type=_frac_list, required=True)
    p.add_argument("--primes", type=_int_list, required=True)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("hyp", help="truncated hypergeometric series mod p")
    p.add_argument("--params", type=_params_arg, required=True,
                   metavar="NUMS;DENS")
    p.add_argument("--arg", type=_power_arg, required=True, metavar="C,E",
                   help="argument c*psi^e")
    p.add_argument("--psi", type=_frac, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.set_defaults(func=_cmd_hyp)

    p = sub.add_parser("pf", help="Picard-Fuchs parameter extraction")
    p.add_argument("action", choices=["analyze"])
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_pf)

    p = sub.add_parser("census", help="kernel types and mirror pairs")
    p.add_argument("--input")
    p.add_argument("--report", choices=["json", "csv", "markdown"],
                   default="json")
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify", help="verification sweeps")
    p.add_argument("what", choices=["key-lemma", "truncation", "congruence",
                                    "clausen"])
    p.add_argument("--pair", type=_pair_arg, metavar="A,B")
    _add_selector(p, with_family=True)
    p.add_argument("--psi", type=_frac_list, required=True)
    p.add_argument("--primes", type=_int_list, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # where --id is a selector, --input names the file that --id or
        # --pair reads; without them it would be silently unused
        readers = [f for f in ("id", "pair") if f in vars(args)]
        if "id" in readers and args.input is not None and all(
                getattr(args, f) is None for f in readers):
            raise _UsageError("--input is read only with "
                              + " or ".join("--" + f for f in readers))
        try:
            code = args.func(args)
        except HwmtError as exc:
            _emit(_error_row(exc))
            code = 1
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except _UsageError as exc:
        parser.error(str(exc))
    except BrokenPipeError:
        # the reader stopped early; what is still buffered goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(json.dumps({"error": "BrokenPipeError",
                          "message": "stdout closed before the output was written"}),
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
