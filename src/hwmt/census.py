"""Census of reflexive polytopes: kernel types and mirror kernel pairs.

Ingests the bundled polytope text fixtures (or any file in the same
format), clusters combinatorially equivalent polytopes with equal vertex
kernels into types, finds all mirror kernel pairs, and renders the
classification tables.

Text format, shared with the rest of the package: one record per polytope,
a header line `id dim nvertices` followed by nvertices coordinate lines;
records are blank-line separated and `#` starts a comment line.
"""

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from .errors import NotReflexive, ParseError, UnknownFormat
from .families import get_family
from .polytope import (
    KernelLattice,
    LatticePolytope,
    is_kernel_pair,
    is_mirror_kernel_pair,
    is_reflexive,
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


@dataclass(frozen=True)
class PolytopeRecord:
    id: int
    polytope: LatticePolytope


@dataclass(frozen=True)
class KernelType:
    """Maximal set of records that are pairwise kernel pairs."""

    kernel: KernelLattice
    members: Tuple[int, ...]
    label: Optional[str]


@dataclass
class CensusResult:
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

    Every record is checked for reflexivity; the offending id is named on
    failure.
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
        except Exception as exc:
            raise ParseError(f"{source}: record {pid}: {exc}") from exc
        if not is_reflexive(poly):
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
    for fam in (get_family("group1"), get_family("group2")):
        if is_kernel_pair(rep, fam.polytope)[0]:
            return fam.display
    return None


def classify_kernel_types(records: List[PolytopeRecord]) -> List[KernelType]:
    """Partition records into maximal kernel types, each led by its
    lowest-id member."""
    groups: List[Tuple[PolytopeRecord, List[int]]] = []
    for rec in sorted(records, key=lambda r: r.id):
        for rep, members in groups:
            if is_kernel_pair(rep.polytope, rec.polytope)[0]:
                members.append(rec.id)
                break
        else:
            groups.append((rec, [rec.id]))
    return [
        KernelType(
            kernel=vertex_kernel(rep.polytope),
            members=tuple(members),
            label=_type_label(rep.polytope),
        )
        for rep, members in groups
    ]


def find_mirror_kernel_pairs(
    records: List[PolytopeRecord], types: List[KernelType]
) -> List[Tuple[int, int]]:
    """All unordered mirror kernel pairs among the records (self-pairs
    listed once).  Mirror kernel pairs are kernel pairs, so only members of
    the same type need testing."""
    by_id = {r.id: r for r in records}
    pairs = []
    for t in types:
        members = sorted(t.members)
        for i, a in enumerate(members):
            for b in members[i:]:
                if is_mirror_kernel_pair(by_id[a].polytope, by_id[b].polytope):
                    pairs.append((a, b))
    return sorted(pairs)


def run_census(records: List[PolytopeRecord]) -> CensusResult:
    types = classify_kernel_types(records)
    pairs = find_mirror_kernel_pairs(records, types)
    return CensusResult(records, types, pairs)


def _rows(result: CensusResult):
    pair_lookup = {}
    for a, b in result.pairs:
        pair_lookup.setdefault(a, []).append((a, b))
        if a != b:
            pair_lookup.setdefault(b, []).append((a, b))
    rows = []
    for t in sorted(result.types, key=lambda t: t.members[0]):
        seen = []
        for m in t.members:
            for pr in pair_lookup.get(m, ()):
                if pr not in seen:
                    seen.append(pr)
        rows.append(
            {
                "label": t.label or "-",
                "kernel": [list(v) for v in t.kernel.basis],
                "members": sorted(t.members),
                "pairs": sorted(seen),
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
    if fmt == "json":
        return json.dumps(
            {**summary, "rows": _rows(result)}, sort_keys=True, indent=2
        )
    if fmt == "csv":
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
