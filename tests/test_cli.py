"""CLI surface: subcommands, JSON determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import hwmt
from hwmt.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerify:
    def test_key_lemma_example(self, capsys):
        code, out = run(
            capsys, "verify", "key-lemma", "--pair", "2,4317",
            "--psi", "3", "--primes", "5,7,11",
        )
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 3 and all(r["match"] for r in rows)

    def test_congruence_example(self, capsys):
        code, out = run(
            capsys, "verify", "congruence", "--family", "elliptic",
            "--psi", "1", "--primes", "5",
        )
        assert code == 0
        assert json.loads(out)[0]["match"] is True

    def test_truncation(self, capsys):
        code, out = run(
            capsys, "verify", "truncation", "--family", "sextic",
            "--psi", "1,2", "--primes", "5,7",
        )
        assert code == 0
        assert all(r["match"] for r in json.loads(out))

    def test_clausen_reports_mismatches_without_failing(self, capsys):
        code, out = run(
            capsys, "verify", "clausen", "--family", "group2",
            "--psi", "1", "--primes", "13",
        )
        assert code == 0
        assert json.loads(out)[0]["match"] is False


class TestCensus:
    def test_json_counts(self, capsys):
        code, out = run(capsys, "census", "--report", "json")
        assert code == 0
        data = json.loads(out)
        assert (data["pairs"], data["self_dual"], data["types"]) == (32, 6, 16)

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "census", "--report", "json")
        _, second = run(capsys, "census", "--report", "json")
        assert first == second


class TestPolytopeCommands:
    def test_dual_by_vertices(self, capsys):
        code, out = run(
            capsys, "polytope", "dual",
            "--vertices", "1,0,0;0,1,0;0,0,1;-3,-1,-1",
        )
        assert code == 0
        verts = [tuple(v) for v in json.loads(out)["vertices"]]
        assert sorted(verts) == [
            (-1, -1, -1), (-1, -1, 5), (-1, 5, -1), (1, -1, -1),
        ]

    def test_kernel_by_id(self, capsys):
        code, out = run(capsys, "polytope", "kernel", "--id", "2")
        assert code == 0
        data = json.loads(out)
        assert data["ambient_rank"] == 4
        assert sorted(tuple(sorted(b)) for b in data["basis"]) == [(1, 1, 1, 3)]

    def test_reflexive(self, capsys):
        code, out = run(capsys, "polytope", "reflexive", "--vertices", "1,0;0,1;-1,-1")
        assert code == 0 and json.loads(out)["reflexive"] is True

    def test_missing_selector_exits_1(self, capsys):
        code, out = run(capsys, "polytope", "dual")
        assert code == 1
        assert "error" in json.loads(out)


class TestPairAndPencil:
    def test_pair_check(self, capsys):
        code, out = run(capsys, "pair", "check", "--pair", "0,4311")
        assert code == 0
        data = json.loads(out)
        assert data["kernel_pair"] and data["mirror_kernel_pair"]

    def test_pencil_build_family(self, capsys):
        code, out = run(capsys, "pencil", "build", "--family", "quartic")
        assert code == 0
        rows = json.loads(out)
        assert sum(1 for r in rows if r["has_psi"]) == 1
        assert all(isinstance(r["coeff"], str) for r in rows)

    def test_pencil_specialized(self, capsys):
        code, out = run(
            capsys, "pencil", "build", "--family", "quartic", "--psi", "3/2"
        )
        rows = json.loads(out)
        origin = next(r for r in rows if r["exponent"] == [0, 0, 0])
        assert origin["coeff"] == "3/2"


class TestComputeCommands:
    def test_hw_rows(self, capsys):
        code, out = run(
            capsys, "hw", "--family", "sextic", "--psi", "2", "--primes", "5,7"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["hw"] for r in rows] == [1, 2]

    def test_count_rows(self, capsys):
        code, out = run(
            capsys, "count", "--family", "elliptic", "--psi", "1,4",
            "--primes", "5",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["congruence_ok"] is True
        assert rows[1]["singular"] is True

    def test_hyp_example(self, capsys):
        code, out = run(
            capsys, "hyp", "--params", "1/2,1/4,3/4;1,1", "--arg", "256,-4",
            "--psi", "1", "--prime", "5",
        )
        assert code == 0
        assert json.loads(out)["value"] == 0

    def test_pf_analyze_json(self, capsys):
        code, out = run(capsys, "pf", "analyze", "--family", "group2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["final"] == "3F2(1/4,1/2,3/4;1,1 | 256/psi^4)"

    def test_pf_analyze_text(self, capsys):
        code, out = run(capsys, "pf", "analyze", "--family", "elliptic")
        assert code == 0
        assert "final: 2F1(1/2,1/2;1 | psi^2/16)" in out


class TestUsageErrors:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_rational_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["hw", "--family", "sextic", "--psi", "x", "--primes", "5"])
        assert exc.value.code == 2

    def test_unknown_id_exits_1(self, capsys):
        code, out = run(capsys, "polytope", "dual", "--id", "99999")
        assert code == 1
        assert json.loads(out)["error"]

    @pytest.mark.parametrize("argv", [
        ["hyp", "--params", "1/2,1/2", "--arg", "1,0", "--psi", "1",
         "--prime", "5"],                                # no ';' in --params
        ["verify", "key-lemma", "--psi", "2", "--primes", "5"],  # no --pair
        ["pair", "check", "--pair", "0,9999"],           # id not in fixture
        ["polytope", "dual", "--vertices", "1,0;0,x"],   # not an integer
    ], ids=["hyp", "verify", "pair", "polytope"])
    def test_bad_input_exits_2_without_traceback(self, argv):
        src = str(Path(hwmt.__file__).resolve().parent.parent)
        out = subprocess.run([sys.executable, "-m", "hwmt.cli", *argv],
                             capture_output=True, text=True,
                             env={"PYTHONPATH": src})
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "error:" in out.stderr and out.stdout == ""
