"""Census of reflexive polytopes: kernel types and mirror kernel pairs.

Ingests the bundled polytope text fixtures (or any file in the same
format), groups the polytopes into kernel types by their kernel invariant,
pairs each member of a type with the members whose normal form is that of
its polar dual, and renders the classification tables.  Both keys come
from one cached normal form per polytope (see ``hwmt.polytope``), so apart
from its output the census is linear in its input: it runs no pairwise
search.

Text format, shared with the rest of the package: one record per polytope,
a header line `id dim nvertices` followed by nvertices coordinate lines;
records are blank-line separated and `#` starts a comment line.
"""

from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

from .errors import (
    HwmtError,
    NotInteriorOrigin,
    NotReflexive,
    ParseError,
    UnknownFormat,
)
from .polytope import (
    KernelLattice,
    LatticePolytope,
    is_reflexive,
    kernel_invariant,
    normal_form,
    polar_dual,
    vertex_kernel,
)

__all__ = [
    "PolytopeRecord",
    "KernelType",
    "CensusResult",
    "load_polytopes",
    "classify_kernel_types",
    "find_mirror_kernel_pairs",
    "run_census",
    "report",
    "fixture_path",
]


class PolytopeRecord(NamedTuple):
    id: int
    polytope: LatticePolytope


class KernelType(NamedTuple):
    """Maximal set of records that are pairwise kernel pairs."""

    kernel: KernelLattice
    members: Tuple[int, ...]
    label: Optional[str]


class CensusResult(NamedTuple):
    records: List[PolytopeRecord]
    types: List[KernelType]
    pairs: List[Tuple[int, int]]

    @property
    def self_dual(self) -> List[int]:
        return [a for a, b in self.pairs if a == b]


def fixture_path(name: str) -> Path:
    """Location of a bundled fixture."""
    return Path(__file__).parent / "data" / name


def load_polytopes(path) -> List[PolytopeRecord]:
    """Parse and validate a polytope fixture file.

    Every record is checked for reflexivity; the file and the offending
    record are named on failure.
    """
    path = Path(path)
    source = path.name
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from exc
    lines = [
        line.strip()
        for line in text.splitlines()
        if not line.lstrip().startswith("#")
    ]
    records = []
    block: List[str] = []

    def flush(block):
        if not block:
            return
        head = block[0].split()
        if len(head) != 3:
            raise ParseError(f"{source}: bad header line {block[0]!r}")
        try:
            pid, dim, nv = (int(x) for x in head)
        except ValueError as exc:
            raise ParseError(f"{source}: non-integer header {block[0]!r}") from exc
        if len(block) != 1 + nv:
            raise ParseError(
                f"{source}: record {pid} expects {nv} vertex lines, "
                f"got {len(block) - 1}"
            )
        verts = []
        for row in block[1:]:
            try:
                v = tuple(int(x) for x in row.split())
            except ValueError as exc:
                raise ParseError(f"{source}: bad coordinate line {row!r}") from exc
            if len(v) != dim:
                raise ParseError(
                    f"{source}: record {pid} has a length-{len(v)} vertex "
                    f"in dimension {dim}"
                )
            verts.append(v)
        try:
            poly = LatticePolytope(dim, tuple(verts), pid)
        except HwmtError as exc:
            raise ParseError(f"{source}: record {pid}: {exc}") from exc
        try:
            reflexive = is_reflexive(poly)
        except NotInteriorOrigin:
            raise NotInteriorOrigin(
                f"{source}: origin is not strictly interior to record {pid}") from None
        if not reflexive:
            raise NotReflexive(f"{source}: record {pid} is not reflexive")
        records.append(PolytopeRecord(pid, poly))

    for line in lines:
        if not line:
            flush(block)
            block = []
        else:
            block.append(line)
    flush(block)
    if len({r.id for r in records}) != len(records):
        raise ParseError(f"{source}: duplicate ids")
    return sorted(records, key=lambda r: r.id)


def _type_label(rep: LatticePolytope) -> Optional[str]:
    kernel = vertex_kernel(rep)
    if kernel.rank == 1:
        weights = tuple(sorted(kernel.basis[0]))
        return "(" + ",".join(str(w) for w in weights) + ")"
    # the families layer loads on the first label of rank > 1, not on import
    from .families import get_family

    for fam in (get_family("group1"), get_family("group2")):
        if kernel_invariant(rep) == kernel_invariant(fam.polytope):
            return fam.display
    return None


def classify_kernel_types(records: List[PolytopeRecord]) -> List[KernelType]:
    """Partition records into maximal kernel types, each led by its
    lowest-id member: a group-by on the kernel invariant."""
    groups: Dict[tuple, List[PolytopeRecord]] = {}
    for rec in sorted(records, key=lambda r: r.id):
        groups.setdefault(kernel_invariant(rec.polytope), []).append(rec)
    return [
        KernelType(
            kernel=vertex_kernel(members[0].polytope),
            members=tuple(r.id for r in members),
            label=_type_label(members[0].polytope),
        )
        for members in groups.values()
    ]


def find_mirror_kernel_pairs(
    records: List[PolytopeRecord], types: List[KernelType]
) -> List[Tuple[int, int]]:
    """All unordered mirror kernel pairs among the records (self-pairs
    listed once).  Mirror kernel pairs are kernel pairs, so a's partners
    are the members b >= a of a's type that are isomorphic to a*."""
    by_id = {r.id: r.polytope for r in records}
    pairs = []
    for t in types:
        by_shape: Dict[tuple, List[int]] = {}
        for m in t.members:
            by_shape.setdefault(normal_form(by_id[m]), []).append(m)
        for a in t.members:
            dual = normal_form(polar_dual(by_id[a]))
            pairs.extend((a, b) for b in by_shape.get(dual, ()) if a <= b)
    return sorted(pairs)


def run_census(records: List[PolytopeRecord]) -> CensusResult:
    types = classify_kernel_types(records)
    pairs = find_mirror_kernel_pairs(records, types)
    return CensusResult(records, types, pairs)


def _rows(result: CensusResult):
    # a mirror kernel pair is a kernel pair: both its ids are in one type
    pairs = sorted(result.pairs)
    rows = []
    for t in sorted(result.types, key=lambda t: t.members[0]):
        members = set(t.members)
        rows.append(
            {
                "label": t.label or "-",
                "kernel": [list(v) for v in t.kernel.basis],
                "members": sorted(t.members),
                "pairs": [pr for pr in pairs if pr[0] in members],
            }
        )
    return rows


def report(result: CensusResult, fmt: str) -> str:
    """Render the census as json, csv, or markdown."""
    summary = {
        "types": len(result.types),
        "pairs": len(result.pairs),
        "self_dual": len(result.self_dual),
    }
    # each format's modules load only when it is written, not on import hwmt
    if fmt == "json":
        import json

        return json.dumps(
            {**summary, "rows": _rows(result)}, sort_keys=True, indent=2
        )
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "kernel", "members", "pairs"])
        for row in _rows(result):
            writer.writerow(
                [
                    row["label"],
                    ";".join(str(tuple(v)) for v in row["kernel"]),
                    ";".join(str(m) for m in row["members"]),
                    ";".join(f"({a},{b})" for a, b in row["pairs"]),
                ]
            )
        return buf.getvalue()
    if fmt == "markdown":
        lines = [
            "| Type | Kernel | Members | Pairs |",
            "| --- | --- | --- | --- |",
        ]
        for row in _rows(result):
            kernel = "; ".join(str(tuple(v)) for v in row["kernel"])
            members = ", ".join(str(m) for m in row["members"])
            pairs = ", ".join(f"({a}, {b})" for a, b in row["pairs"])
            lines.append(f"| {row['label']} | {kernel} | {members} | {pairs} |")
        lines.append("")
        lines.append(
            f"{summary['pairs']} mirror kernel pairs, "
            f"{summary['self_dual']} self-dual, "
            f"{summary['types']} kernel types."
        )
        return "\n".join(lines)
    raise UnknownFormat(f"unknown report format {fmt!r}")
