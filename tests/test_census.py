"""Fixture ingestion, kernel-type classification, mirror-pair census."""

import importlib.util
import json
from pathlib import Path

import pytest

from hwmt.census import (
    fixture_path,
    load_polytopes,
    report,
    run_census,
    CensusResult,
    PolytopeRecord,
)
from hwmt.errors import NotReflexive, ParseError, UnknownFormat
from hwmt.polytope import vertex_kernel

TABLE1 = {
    "(1,1,1,1)": [(0, 4311), (8, 3313), (427, 427), (429, 429)],
    "(1,1,1,3)": [(2, 4317), (85, 3726), (741, 1943)],
    "(1,1,2,2)": [(1, 4281), (742, 742), (743, 744)],
    "(1,1,2,4)": [(9, 4312), (428, 3315), (430, 3312), (431, 3314)],
    "(1,1,4,6)": [(88, 4318), (1946, 3725)],
    "(1,2,2,5)": [(31, 4255)],
    "(1,2,3,6)": [(89, 4228), (1944, 1948), (1947, 1947)],
    "(1,2,6,9)": [(745, 4282)],
    "(1,3,4,4)": [(87, 3727)],
    "(1,3,8,12)": [(1949, 4229)],
    "(1,4,5,10)": [(1114, 3993)],
    "(1,6,14,21)": [(4080, 4080)],
    "(2,3,3,4)": [(86, 1945)],
    "(2,3,10,15)": [(3038, 3038)],
}
TABLE2 = {
    "GroupI": [(3, 4283), (753, 754)],
    "GroupII": [(10, 4314), (433, 3316), (436, 3321)],
}


@pytest.fixture(scope="module")
def census3d():
    return run_census(load_polytopes(fixture_path("tables3d.txt")))


@pytest.fixture(scope="module")
def census2d():
    return run_census(load_polytopes(fixture_path("polygons2d.txt")))


class TestLoad:
    def test_2d_fixture_has_16_records(self, records2d):
        assert len(records2d) == 16

    def test_3d_fixture_ids(self, records3d):
        expected = {i for pairs in TABLE1.values() for pr in pairs for i in pr}
        expected |= {i for pairs in TABLE2.values() for pr in pairs for i in pr}
        assert set(records3d) == expected
        assert len(records3d) == 58

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n")
        assert load_polytopes(path) == []

    def test_parse_error_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 2\n1 0\n0 1\n-1 -1\n")
        with pytest.raises(ParseError):
            load_polytopes(path)

    def test_parse_error_wrong_vertex_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 2 4\n1 0\n0 1\n-1 -1\n")
        with pytest.raises(ParseError):
            load_polytopes(path)

    def test_not_reflexive_named_id(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("7 2 4\n2 2\n-2 2\n-2 -2\n2 -2\n")
        with pytest.raises(NotReflexive, match="7"):
            load_polytopes(path)

    def test_duplicate_ids(self, tmp_path):
        rec = "0 2 3\n1 0\n0 1\n-1 -1\n"
        path = tmp_path / "dup.txt"
        path.write_text(rec + "\n" + rec)
        with pytest.raises(ParseError, match="duplicate"):
            load_polytopes(path)


class TestClassify:
    def test_sixteen_types(self, census3d):
        assert len(census3d.types) == 16

    def test_weight_1111_members(self, census3d):
        t = next(t for t in census3d.types if t.label == "(1,1,1,1)")
        assert sorted(t.members) == [0, 8, 427, 429, 3313, 4311]

    def test_group2_members(self, census3d):
        t = next(t for t in census3d.types if t.label == "GroupII")
        assert sorted(t.members) == [10, 433, 436, 3316, 3321, 4314]

    def test_types_cover_fixture_exactly_once(self, census3d, records3d):
        seen = [m for t in census3d.types for m in t.members]
        assert sorted(seen) == sorted(records3d)

    def test_kernel_generators_match_weights(self, census3d, records3d):
        for label, pairs in TABLE1.items():
            t = next(t for t in census3d.types if t.label == label)
            weights = tuple(int(x) for x in label.strip("()").split(","))
            for member in t.members:
                gen = vertex_kernel(records3d[member].polytope).basis[0]
                assert tuple(sorted(gen)) == weights

    def test_table_membership_per_row(self, census3d):
        for label, pairs in {**TABLE1, **TABLE2}.items():
            expected = sorted({i for pr in pairs for i in pr})
            t = next(t for t in census3d.types if t.label == label)
            assert sorted(t.members) == expected


class TestPairs:
    def test_main_counts(self, census3d):
        assert len(census3d.pairs) == 32
        assert len(census3d.self_dual) == 6

    def test_self_dual_ids(self, census3d):
        assert sorted(census3d.self_dual) == [427, 429, 742, 1947, 3038, 4080]

    def test_exact_pair_list(self, census3d):
        expected = sorted(
            tuple(sorted(pr))
            for pairs in list(TABLE1.values()) + list(TABLE2.values())
            for pr in pairs
        )
        assert sorted(census3d.pairs) == expected

    def test_2d_inventory(self, census2d, records2d):
        # two triangle mirror pairs, a self-dual triangle, the quadrilateral
        # pair, a self-dual quadrilateral, pentagon, and hexagon
        assert len(census2d.pairs) == 7
        assert len(census2d.self_dual) == 4
        by_id = {r.id: r.polytope for r in census2d.records}
        shapes = sorted(
            (by_id[a].nvertices, a == b) for a, b in census2d.pairs
        )
        assert shapes == [
            (3, False), (3, False), (3, True),
            (4, False), (4, True), (5, True), (6, True),
        ]


class TestReport:
    def test_json_counts(self, census3d):
        data = json.loads(report(census3d, "json"))
        assert (data["pairs"], data["self_dual"], data["types"]) == (32, 6, 16)
        assert len(data["rows"]) == 16

    def test_markdown_rows(self, census3d):
        text = report(census3d, "markdown")
        lines = [l for l in text.splitlines() if l.startswith("|")]
        assert len(lines) == 2 + 16  # header + separator + 14 weights + 2 groups
        assert sum(1 for l in lines if "Group" in l) == 2

    def test_csv_empty_census_header_only(self):
        empty = CensusResult([], [], [])
        assert report(empty, "csv") == "label,kernel,members,pairs\n"

    def test_unknown_format(self, census3d):
        with pytest.raises(UnknownFormat):
            report(census3d, "xml")

    def test_mixed_dimensions_is_the_union(self, census2d, census3d):
        # kernel types and mirror pairs never span dimensions; the polygon
        # ids are shifted past the 3D ones, with which some collide
        shift = 10000
        polygons = [PolytopeRecord(r.id + shift, r.polytope)
                    for r in census2d.records]
        mixed = run_census(polygons + census3d.records)

        def rows(result, offset=0):
            return [(tuple(m + offset for m in t.members), t.label)
                    for t in result.types]

        assert sorted(rows(mixed)) == sorted(rows(census3d) + rows(census2d, shift))
        assert mixed.pairs == sorted(
            census3d.pairs + [(a + shift, b + shift) for a, b in census2d.pairs])

    def test_every_reported_pair_verifies(self, census3d, records3d):
        from hwmt.polytope import is_mirror_kernel_pair

        for a, b in census3d.pairs[::5]:
            assert is_mirror_kernel_pair(
                records3d[a].polytope, records3d[b].polytope
            )


def test_fixture_generator_regrows_every_weight_type(records3d):
    """tools/make_fixtures.py imports against the current package, and its
    lattice refinements regrow each of the 14 simplex kernel types of
    tables3d.txt exactly, up to GL(3,Z) and vertex order."""
    path = Path(__file__).resolve().parent.parent / "tools" / "make_fixtures.py"
    spec = importlib.util.spec_from_file_location("make_fixtures", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    simplices = [r.polytope for r in records3d.values() if r.polytope.nvertices == 4]
    for weights, _ in tool.SIMPLEX_ROWS:
        grown = tool.grow_type(tool.minimal_simplex(weights))
        fixtures = {
            tool.normal_form(s)
            for s in simplices
            if tuple(sorted(vertex_kernel(s).basis[0])) == weights
        }
        assert set(grown) == fixtures, weights
