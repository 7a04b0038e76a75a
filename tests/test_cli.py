"""CLI surface: subcommands, JSON determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwmt.census import fixture_path
from hwmt.cli import main
from hwmt.families import FAMILIES

from conftest import cold_hasse_witt, hwmt_env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_subprocess(*argv):
    return subprocess.run([sys.executable, "-m", "hwmt.cli", *argv],
                          capture_output=True, text=True, env=hwmt_env())


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


# (argv, exit code, sha256 of stdout) recorded before the polytope
# predicates and the CLI grids were rewritten; "{polygons2d}" stands for
# the bundled 2D fixture path
GOLDEN = [
    ("hw --family quartic --psi 2,3,1/2 --primes 5,7,11", 0,
     "357f8892cba6a6c06ae46f8cca8fa75bc269112101cbb74e143bb85f773f021b"),
    ("hw --id 2 --psi 2,3 --primes 5,7", 0,
     "37f339fa8ada6e9c07b2f2c27380cba2ad4792017cbee99bd78971f4ad4c06c9"),
    ("hw --vertices 1,0;0,1;-1,-1 --psi 2,5 --primes 5,7", 0,
     "622f4a61c03ce9f53f81e462932650e39d05d14a3022c328b9a69a06f2ed3d27"),
    ("count --family elliptic --psi 1,4,2 --primes 5,7", 0,
     "ec10d828763bcbb0860349b077822c6d5449d6f689156ffc07323f6108e656e2"),
    ("count --family quartic --psi 1,2,3 --primes 5,7", 0,
     "83da671ececabe4af48f2e2c206aecef91089c2d0e508607c1a3e6aea17769fd"),
    ("verify key-lemma --pair 2,4317 --psi 3,5 --primes 5,7,11", 0,
     "28fed59393e58a7b01d8175205cce24f742ac3f2d53f4ad8198c4fc5ca3cf721"),
    ("verify truncation --family sextic --psi 1,2 --primes 5,7", 0,
     "ba4855e94d32874fbd61c4b57537e156ca10428b9e5bd919c200e345b3c05a51"),
    ("verify truncation --id 2 --psi 2,3 --primes 5,7", 0,
     "1b86be778a8472b1447a5041cdceb44738b047c3447017701a43c5b1ba25ec7b"),
    ("verify congruence --family elliptic --psi 1,2,4 --primes 5,7", 0,
     "172d12299e91f23cdecf84bb7afffee7a17e4f252aa26292dfd237609b9c0dc0"),
    ("verify clausen --family group2 --psi 1,2 --primes 13", 0,
     "d9780d1d2442b3b418d6c418fea4dd3b5a8fc6d2c32b0ced8a6f0b6cb41473dd"),
    ("pencil build --family quartic", 0,
     "067029fa202cb9cfca30efb5d7d5a29bfe070070f1b1415f99b1de5fca32efd0"),
    ("pencil build --family quartic --psi 3/2", 0,
     "60ee253b90272c255237e670fc8df3703f7297b028dc5d3058156f6caf662414"),
    ("pair check --pair 0,4311", 0,
     "0290aa89b28933b3ed6369b27d6200dc9558ad3f808040b22fc54d2d9141ef5e"),
    ("pair check --pair 2,4317", 0,
     "ab6c0f83e547a0ad1487af0bbafbbcace70fc752bba3a95f7f48ef374b5a0c45"),
    ("census --report json", 0,
     "88c6afc6a456d0b31f92a9423a51aac9089a51eb73a77102faa6248ab721bd31"),
    ("census --report markdown", 0,
     "0db813f5f07daafb86a391085f46314feba0d81cc8003bb882e829628cbae11f"),
    ("census --report csv", 0,
     "7b6b1da495ea2a0f491d43ae0515c501036294a818b0b5d38d26ea079291f767"),
    ("census --input {polygons2d}", 0,
     "40c4e6c0e0006d22dc4b85d90de864c1f212bd8da6d6acafacfea161096db34f"),
    # recorded before the witness came from canonical vertex orders: kernel
    # pairs with 8 witnesses each, the least (1,2,3,4,0), and a non-pair
    ("pair check --pair 753,4283", 0,
     "0c25e0095cba5f73683cbc1b2a75ffc076a9f52050552aeb4da288fa1026a072"),
    ("pair check --pair 436,4314", 0,
     "76fd2701501ad40c15600a2285241a10ddc2fa3dd6239ae7192602b6a076855d"),
    ("pair check --pair 0,4314", 0,
     "04676ea607daa9fef0d54a8bc33cbd454e0f3a5954d7cc5d9501c1913c46b235"),
    # recorded before the vertex pencil was read straight off the polar
    # dual's vertices: fixture and inline selectors, psi = 0 dropping the
    # origin row, and the direct constant-term route of the truncation check
    ("pencil build --id 4283", 0,
     "5d7f5acb3a806b03fc37600d82864e5557f2f03f16ca8c9cfc4f02250ae371f0"),
    ("pencil build --id 4283 --psi 2", 0,
     "b8cd953a48cad1f4968ad339e719cec80296254504400e23d4f3c3ed56c0cd14"),
    ("pencil build --vertices 1,0;0,1;-1,-1 --psi 0", 0,
     "e9f218620f3bc0ac437fce13b1d0754dbe4bd101fa8280b57154e9d2962238a6"),
    ("verify truncation --id 10 --psi 2,3 --primes 5,7,11", 0,
     "dc2346c696090b191f2abbdd386aabb2c8522f1feda2a39c1d8063352afab512"),
    ("verify truncation --family group2 --psi 1,2,3 --primes 5,7,11,13", 0,
     "a026e1850c218dc0cba02f27752e59fa985e8887ea1816e241408063863bf6de"),
    # recorded before the rational-function maps skipped Euclid: every
    # Picard-Fuchs stage of the four families, and the text form of one
    ("pf analyze --family elliptic --json", 0,
     "50ee2b9647d9f613cbda4c77d605f1710c3f4d7312320104a1af43c2975d01fb"),
    ("pf analyze --family sextic --json", 0,
     "ae95fb1464b4d4264e7b4a6b5dd64364f480293067be5e8760e4317fe3b863a8"),
    ("pf analyze --family group1 --json", 0,
     "603b7311aac49cd8a7ebd7bec5a1fd24e9972980e34599bda11abaa60b60ada7"),
    ("pf analyze --family group2 --json", 0,
     "8649fb204e1db79243d70191767c53f9623c44438238152ab6350fb174a3f157"),
    ("pf analyze --family group2", 0,
     "69d1967f4544d40005d4a3dcf951220927b4182142b9d1cb3dd699a58358167a"),
    # recorded before one kernel walk per exponent set served every prime:
    # a large prime first, so the smaller ones cut its runs
    ("hw --family group1 --psi 2,3 --primes 17,5,13", 0,
     "fba90f9ee09985123543e4c3e30bcc2786cdb9df3a26eec1a666827f22cab74c"),
    ("hw --family group1 --psi 2,3 --primes 5,13,17", 0,
     "09a8f9bebe894f24182c41cbd6ef9ffdbbee691f87c9b9729024b853e5877b93"),
    # recorded before the truncated series stopped at its first vanishing
    # upper factor: a long series, a lower factor refused at term 5 after
    # the upper stop at 4, and the callers that sum series at larger p
    ("hyp --params 1/2,1/4,3/4;1,1 --arg 256,-4 --psi 2 --prime 401", 0,
     "41b398ced922b3ee62a5e0974baabc44de45ed6d213e816339ec999b43edd641"),
    ("hyp --params 1/4,1/2;1/3 --arg 1,1 --psi 2 --prime 13", 1,
     "fb8e85e8d6c6fa3dc6a244fe790e6c5dd30a0ca6d5cdfc2cbf279da977a1cfbf"),
    ("verify clausen --family group2 --psi 1,2 --primes 401", 0,
     "903a5fef1b393dad2c88f6f9d768b99510d00b6326a173d6dfb5dcf27b8c55f3"),
    ("verify congruence --family quartic --psi 2 --primes 29,31", 0,
     "9410c40e020e8947cab57773d3a5e2b86213f81ae9e7ae319060f96e557cfecc"),
    # recorded before the singular-member path and the rational reader
    # changed: the commands a separate python -O run once checked.  Point
    # counts of the three printed models at p = 101, the stratified scan of
    # P1 x P1 at small primes and at p = 1009
    ("verify congruence --family quartic --psi 2 --primes 101", 0,
     "34d1fc4a654856d1f13a6cacf4334f4404babc3dbe4e53feb1ad4ebb8cce08ea"),
    ("verify congruence --family elliptic --psi 2 --primes 101", 0,
     "8891a2c2e1673ff51dc6131d62714dc114226404bcc6b392dfa73c13ce026ce5"),
    ("verify congruence --family sextic --psi 2 --primes 101", 0,
     "b763fc12eb61e01e17156c67f0c7af51694ce93f4871475be18dbd8241cc424f"),
    ("verify congruence --family elliptic --psi 2,3 --primes 3,5,7,1009", 0,
     "8755ef7afa3f8945123d43ee120d24ca21a9ed3b5c007f59874e681dff659d92"),
    # 24 canonical orders on vertex lattices of index 2, 8 and 4, so the
    # normal form takes the least HNF over the orders; 427 has 6
    ("pair check --pair 8,3313", 0,
     "bd6ef13f95e93a3311c869b9479d9efeb261f90fb1bafd1506f67369d8dfe8a6"),
    ("pair check --pair 427,427", 0,
     "8b932626d97a218d7af994adb0be80979d51a09cc9ae8b7eddc1831154b20a28"),
    ("hw --id 4283 --psi 2 --primes 7", 0,
     "00a191d9327ee7f646ee2757e80beabe4edc1a61dce0347463114d3c21c340ec"),
    ("verify key-lemma --pair 3,4283 --psi 2 --primes 7", 0,
     "e2ae10a755d2ed37351665ce7fc60e9ce5c939c3d51370c2081de9ef73ceb0e4"),
    ("verify truncation --id 10 --psi 2 --primes 7", 0,
     "07dbcf12c6938e11db1c69ad562b3db0f5b1650024388def88c0a63f2ffe5068"),
    # the Hasse-Witt run walk through multi-row prefixes: rank 2 and rank 4
    # kernels, and the octahedron, whose dual (the cube) has a rank 5 kernel;
    # a large prime first, so the smaller primes cut its kernel walk
    ("hw --family group1 --psi 2 --primes 101", 0,
     "9ec4bfcc97bb8366483bf4126c24c85ae860aaf720b17fac595cee9fc4282a06"),
    ("hw --input {polygons2d} --id 9 --psi 2 --primes 31", 0,
     "c443d22f3f081eec44085b3740dc27a69c3b63b8327ec83121206a0fa3c83499"),
    ("hw --vertices 1,0,0;-1,0,0;0,1,0;0,-1,0;0,0,1;0,0,-1 --psi 2 --primes 13,31", 0,
     "bba26988003d003860bed2f5e126f8085d0b63bd9ec497a3e1804c5ed128be16"),
    ("hw --family group1 --psi 2,3 --primes 59,5,43", 0,
     "e9452d01c4e367ac86883687100d9b96679e8c5f7cfd683012b6f6d6669cb9b1"),
    ("hw --input {polygons2d} --id 9 --psi 2 --primes 31,7", 0,
     "4511ead0b46ea251adb13fc07a4883dfc7df43a5a1f66d1b64fc845b4c4f279d"),
    # the truncation check at large p: C(p-1, n) = (-1)^n mod p on the
    # Hasse-Witt polynomial's side, exact periods folded run by run
    ("verify truncation --family quartic --psi 2 --primes 2003", 0,
     "b751a37a49eec5e84d654c209fddd37f97026fd250fd996172d9a31c49c6419a"),
    ("verify truncation --family quartic --psi 1 --primes 10007", 0,
     "8f98434e53e01f79994c65f696aebd1e14d44dfd6eec66ec33fc6dc2340efb1d"),
    # facet normals by signed maximal minors: 1x1 in 2D, 3x3 in 4D
    ("census --report json --input {polygons2d}", 0,
     "40c4e6c0e0006d22dc4b85d90de864c1f212bd8da6d6acafacfea161096db34f"),
    ("polytope dual --vertices 1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1;-1,-1,-1,-1", 0,
     "bab9cd1da083abc951b083d19d1d5fd31422788aa42eeefe72a035209cfdbade"),
    ("verify clausen --family group2 --psi 2 --primes 401", 0,
     "8e450c3c131be33cda1b47298658f8854cb194b6476364789578c32c0cc9aa4f"),
]


@pytest.mark.parametrize("command,code,digest", GOLDEN,
                         ids=[g[0].split(" --")[0] + f"-{i}"
                              for i, g in enumerate(GOLDEN)])
def test_cli_output_matches_golden(capsys, command, code, digest):
    # cold Hasse-Witt caches, as in a fresh process: each row walks its own
    # kernels, whatever rows or tests ran before it
    cold_hasse_witt()
    argv = [str(fixture_path("polygons2d.txt")) if a == "{polygons2d}" else a
            for a in command.split()]
    got_code, out = run(capsys, *argv)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


def test_hw_grid_is_the_same_in_any_prime_order(capsys):
    # cold caches, so the primes after 17 are cuts of its kernel walk
    cold_hasse_witt()
    code, out = run(capsys, "hw", "--family", "group1", "--psi", "2,3",
                    "--primes", "17,5,13")
    assert code == 0
    rows = sorted(json.loads(out), key=lambda r: (r["psi"], r["p"]))
    ascending = json.dumps(rows, sort_keys=True, indent=2) + "\n"
    digest = dict((g[0], g[2]) for g in GOLDEN)[
        "hw --family group1 --psi 2,3 --primes 5,13,17"]
    assert hashlib.sha256(ascending.encode()).hexdigest() == digest


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

    def test_missing_selector_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["polytope", "dual"])
        assert exc.value.code == 2
        assert "select a polytope with --vertices or --id" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["pencil", "build"],
        ["hw", "--psi", "2", "--primes", "5"],
        ["verify", "truncation", "--psi", "2", "--primes", "5"],
    ], ids=["pencil", "hw", "verify-truncation"])
    def test_missing_selector_names_family(self, capsys, argv):
        # these commands also take --family, so the message names it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "select a polytope with --vertices, --id or --family" in err


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

    def test_unknown_id_exits_2(self, capsys):
        for argv in (["polytope", "dual"], ["hw", "--psi", "2", "--primes", "5"]):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--id", "99999"])
            assert exc.value.code == 2
            out, err = capsys.readouterr()
            assert out == "" and "--id: id 99999 not in the fixture" in err

    @pytest.mark.parametrize("argv", [
        ["hyp", "--params", "1/2,1/2", "--arg", "1,0", "--psi", "1",
         "--prime", "5"],                                # no ';' in --params
        ["verify", "key-lemma", "--psi", "2", "--primes", "5"],  # no --pair
        ["pair", "check", "--pair", "0,9999"],           # id not in fixture
        ["polytope", "dual", "--vertices", "1,0;0,x"],   # not an integer
    ], ids=["hyp", "verify", "pair", "polytope"])
    def test_bad_input_exits_2_without_traceback(self, argv):
        out = run_subprocess(*argv)
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert "error:" in out.stderr and out.stdout == ""

    @pytest.mark.parametrize("argv, message", [
        (["hw", "--family", "quartic", "--psi", "1", "--primes", "5,x"],
         "argument --primes: bad integer list '5,x'"),
        (["pair", "check", "--pair", "1,2,3"],
         "argument --pair: expected A,B, got '1,2,3'"),
        (["pair", "check", "--pair", "1,x"],
         "argument --pair: expected A,B, got '1,x'"),
        (["pair", "check", "--pair", "7"],
         "argument --pair: expected A,B, got '7'"),
    ], ids=["primes", "pair-three", "pair-not-int", "pair-one"])
    def test_bad_list_names_the_value_not_the_parser(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.rstrip().endswith(message)
        assert "_int_list" not in err and "_pair_arg" not in err

    @pytest.mark.parametrize("p", ["0", "1"])
    @pytest.mark.parametrize("argv", [
        ["hw", "--family", "quartic", "--psi", "2"],
        ["count", "--family", "quartic", "--psi", "2"],
        ["verify", "key-lemma", "--pair", "2,4317", "--psi", "2"],
        ["verify", "truncation", "--family", "sextic", "--psi", "2"],
        ["verify", "congruence", "--family", "elliptic", "--psi", "2"],
    ], ids=["hw", "count", "key-lemma", "truncation", "congruence"])
    def test_non_prime_exits_1_with_not_prime(self, argv, p):
        # the prime is checked before the denominator of psi
        out = run_subprocess(*argv, "--primes", p)
        assert (out.returncode, out.stderr) == (1, "")
        assert json.loads(out.stdout) == [{"psi": "2", "p": int(p),
                                           "error": "NotPrime",
                                           "message": f"{p} is not prime"}]

    def test_budget_exceeded_exits_1(self):
        out = run_subprocess("count", "--family", "quartic", "--psi", "2",
                             "--primes", "1601")
        assert (out.returncode, out.stderr) == (1, "")
        [row] = json.loads(out.stdout)
        assert (row["psi"], row["p"], row["error"]) == ("2", 1601, "BudgetExceeded")
        assert set(row) == {"psi", "p", "error", "message"}

    @pytest.mark.parametrize("argv", [
        # a 21-digit prime: decided by Miller-Rabin, then refused by the walk
        ["hw", "--family", "quartic", "--psi", "1",
         "--primes", "100000000000000000039"],
        # at the bound of the exact primality test
        ["hw", "--family", "quartic", "--psi", "1",
         "--primes", "3317044064679887385961981"],
        # the walk admits C(4094, 2) summands, the exact periods' fold not
        ["verify", "truncation", "--family", "elliptic", "--psi", "2",
         "--primes", "4093"],
        # a rank 4 walk of 4.6 * 10^10 summands
        ["hw", "--input", str(fixture_path("polygons2d.txt")), "--id", "9",
         "--psi", "2", "--primes", "1009"],
        # the exact periods' bound in bits, before the walk
        ["verify", "truncation", "--family", "quartic", "--psi", "1",
         "--primes", "1000003"],
        # the walk budget, before any table of length p is built
        ["hw", "--family", "quartic", "--psi", "1", "--primes", "16777259"],
        # a series pass of 2.25 * 10^9 products
        ["hyp", "--params", "1/4,1/2,3/4;1,1", "--arg", "256,-4", "--psi", "1",
         "--prime", "1000000007"],
    ], ids=["21-digit-prime", "primality-bound", "elliptic-periods",
            "hexagon-walk", "quartic-periods", "quartic-walk", "series-pass"])
    def test_extreme_input_is_refused_at_once(self, argv):
        # a missed bound would run for minutes, so the timeout fails it
        out = subprocess.run([sys.executable, "-m", "hwmt.cli", *argv],
                             capture_output=True, text=True, env=hwmt_env(),
                             timeout=20)
        assert (out.returncode, out.stderr) == (1, "")
        diagnostic, p = json.loads(out.stdout), int(argv[-1])
        if argv[0] == "hyp":
            # one series, so one diagnostic object rather than a grid of rows
            row = diagnostic
            assert set(row) == {"error", "message"} and f"mod {p} " in row["message"]
        else:
            [row] = diagnostic
            assert row["p"] == p
        assert row["error"] == "BudgetExceeded"

    def test_one_raising_cell_keeps_the_grid(self):
        # psi = 5 is not invertible mod 5; the other 23 cells still count
        out = run_subprocess("count", "--family", "quartic", "--psi", "1,2,3,5",
                             "--primes", "5,7,11,13,17,19")
        assert (out.returncode, out.stderr) == (1, "")
        rows = json.loads(out.stdout)
        assert [(r["psi"], r["p"]) for r in rows] == [
            (psi, p) for psi in ("1", "2", "3", "5")
            for p in (5, 7, 11, 13, 17, 19)]
        errors = [r for r in rows if "error" in r]
        assert [(r["psi"], r["p"], r["error"]) for r in errors] == [
            ("5", 5, "PsiNotInvertible")]
        assert set(errors[0]) == {"psi", "p", "error", "message"}
        assert sum("count" in r for r in rows) == 23

    @pytest.mark.parametrize("argv", [
        ["census"],
        ["pair", "check", "--pair", "2,4317"],
        ["polytope", "dual", "--id", "2"],
        ["hw", "--id", "2", "--psi", "2", "--primes", "5"],
    ], ids=["census", "pair", "polytope", "hw"])
    def test_unreadable_input_exits_1_naming_the_file(self, argv, tmp_path):
        for path, reason in ((tmp_path / "missing.txt", "No such file"),
                             (tmp_path, "Is a directory")):
            out = run_subprocess(*argv, "--input", str(path))
            assert (out.returncode, out.stderr) == (1, "")
            diagnostic = json.loads(out.stdout)
            assert diagnostic["error"] == "ParseError"
            assert str(path) in diagnostic["message"]
            assert reason in diagnostic["message"]

    @pytest.mark.parametrize("grid", [["--psi", "2", "--primes", ""],
                                      ["--psi", ",", "--primes", "5"]],
                             ids=["primes", "psi"])
    def test_empty_grid_exits_2(self, capsys, grid):
        # an empty grid checks nothing, so it must not report success
        with pytest.raises(SystemExit) as exc:
            main(["verify", "congruence", "--family", "quartic", *grid])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "empty list" in err

    @pytest.mark.parametrize("argv", [
        ["hw", "--family", "quartic", "--id", "3", "--psi", "2", "--primes", "5"],
        ["pencil", "build", "--id", "3", "--vertices", "1,0;0,1;-1,-1"],
    ], ids=["hw", "pencil"])
    def test_conflicting_selectors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "not allowed with argument" in err

    @pytest.mark.parametrize("argv, flag", [
        (["key-lemma", "--pair", "2,4317", "--id", "5"], "--id"),
        (["key-lemma", "--pair", "2,4317", "--family", "quartic"], "--family"),
        (["truncation", "--family", "sextic", "--pair", "2,4317"], "--pair"),
        (["congruence", "--family", "elliptic", "--pair", "2,4317"], "--pair"),
        (["clausen", "--family", "group2", "--pair", "2,4317"], "--pair"),
    ], ids=["key-lemma-id", "key-lemma-family", "truncation-pair",
            "congruence-pair", "clausen-pair"])
    def test_unused_verify_selector_exits_2(self, capsys, argv, flag):
        # a selector the mode does not read is a usage error, not ignored
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv, "--psi", "2", "--primes", "5"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"verify {argv[0]} does not read {flag}" in err

    @pytest.mark.parametrize("argv, readers", [
        (["hw", "--family", "quartic", "--psi", "2", "--primes", "5"], "--id"),
        (["verify", "congruence", "--family", "quartic", "--psi", "2",
          "--primes", "5"], "--id or --pair"),
        (["verify", "truncation", "--vertices", "1,0;0,1;-1,-1", "--psi", "2",
          "--primes", "5"], "--id or --pair"),
        (["polytope", "dual", "--vertices", "1,0;0,1;-1,-1"], "--id"),
        (["pencil", "build", "--family", "quartic"], "--id"),
    ], ids=["hw-family", "verify-congruence", "verify-truncation-vertices",
            "polytope-vertices", "pencil-family"])
    def test_unread_input_exits_2(self, capsys, argv, readers):
        # --input names the file --id or --pair reads; alone it is unused,
        # so a file that does not exist would go unnoticed
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--input", "/nonexistent/fixture.txt"])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert f"--input is read only with {readers}" in err

    @pytest.mark.parametrize("argv", [
        ["census", "--report", "json"],
        ["hw", "--input", str(fixture_path("polygons2d.txt")), "--id", "9",
         "--psi", "2", "--primes", "31"],
    ], ids=["census", "hw"])
    def test_closed_stdout_exits_1_without_traceback(self, argv):
        # the read end closes before the command writes, as `| head` can
        proc = subprocess.Popen([sys.executable, "-m", "hwmt.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=hwmt_env())
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert json.loads(err) == {
            "error": "BrokenPipeError",
            "message": "stdout closed before the output was written"}

    def test_hw_without_a_lattice_dual_fails_the_command(self, capsys):
        # one diagnostic for the command, not one error row per grid cell
        code, out = run(capsys, "hw", "--vertices", "1,0;0,1;-1,0;0,-1;2,2",
                        "--psi", "2", "--primes", "5,7")
        assert (code, json.loads(out)) == (1, {
            "error": "NonLatticeDual",
            "message": "facet (-2, 1) has lattice distance 2 != 1"})

    def test_empty_record_is_a_degenerate_polytope(self, capsys, tmp_path):
        path = tmp_path / "empty_record.txt"
        path.write_text("7 2 0\n")
        code, out = run(capsys, "census", "--input", str(path))
        diagnostic = json.loads(out)
        assert (code, diagnostic["error"]) == (1, "ParseError")
        assert diagnostic["message"] == (
            "empty_record.txt: record 7: a polytope needs dimension >= 1 and a vertex")


# --------------------------------------------------------------------------
# in-process fuzz of the documented grammar
# --------------------------------------------------------------------------

# ids in the bundled 3D tables, and two (5, 99999) that are not
_FUZZ_IDS = st.sampled_from((0, 2, 10, 4317, 4318, 5, 99999)).map(str)
_FUZZ_FAMILIES = st.sampled_from(sorted(FAMILIES) + ["nope"])
_FUZZ_RATIONALS = st.one_of(
    st.integers(-9, 9).map(str),
    st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9)))
# small values, primes among them, and values from 10^12 to 10^30, above
# every work bound and, from 3.3 * 10^24, above the exact primality test:
# the primes 10^12 + 39 and 2^61 - 1, and the least refused bound
_FUZZ_PRIMES = st.one_of(
    st.sampled_from((2, 3, 5, 7, 11, 13, -3, 0, 1, 9, 10**12 + 39, 2**61 - 1,
                     3317044064679887385961981)).map(str),
    st.integers(10**12, 10**30).map(str))
# what a corrupted argument becomes
_FUZZ_JUNK = st.sampled_from(("", "x", "1/0", "0.5", "1,,2", ";", "1,0;0", "-"))


def _fuzz_list(values, most):
    return st.lists(values, min_size=1, max_size=most).map(",".join)


@st.composite
def _fuzz_vertices(draw):
    """Points in dimensions 1 to 5 with entries of size at most 2."""
    dim = draw(st.integers(1, 5))
    points = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
        min_size=dim + 1, max_size=dim + 4))
    return ";".join(",".join(map(str, v)) for v in points)


def _fuzz_selector(*flags):
    values = {"--vertices": _fuzz_vertices(), "--id": _FUZZ_IDS,
              "--family": _FUZZ_FAMILIES,
              "--pair": st.lists(_FUZZ_IDS, min_size=2, max_size=2).map(",".join)}
    # Hypothesis favours the first choice: a selector, then none
    return st.one_of(*(
        values[flag].map(lambda value, flag=flag: [f"{flag}={value}"])
        for flag in flags), st.just([]))


def _fuzz_grid():
    return st.tuples(_fuzz_list(_FUZZ_RATIONALS, 2),
                     _fuzz_list(_FUZZ_PRIMES, 2)).map(
        lambda grid: [f"--psi={grid[0]}", f"--primes={grid[1]}"])


# each command's arguments, as chunks of argv
_FUZZ_COMMANDS = {
    "polytope": st.tuples(
        st.sampled_from((["dual"], ["reflexive"], ["kernel"])),
        _fuzz_selector("--vertices", "--id")),
    "pair": st.tuples(st.just(["check"]), _fuzz_selector("--pair")),
    "pencil": st.tuples(
        st.just(["build"]),
        _fuzz_selector("--vertices", "--id", "--family"),
        st.one_of(_FUZZ_RATIONALS.map(lambda r: [f"--psi={r}"]), st.just([]))),
    "hw": st.tuples(_fuzz_selector("--vertices", "--id", "--family"),
                    _fuzz_grid()),
    "count": st.tuples(_FUZZ_FAMILIES.map(lambda f: [f"--family={f}"]),
                       _fuzz_grid()),
    "hyp": st.tuples(
        # a pFq shape: one fewer lower parameter than upper ones
        st.lists(_FUZZ_RATIONALS, min_size=1, max_size=3).flatmap(
            lambda nums: st.lists(_FUZZ_RATIONALS, min_size=len(nums) - 1,
                                  max_size=len(nums) - 1).map(
                lambda dens: [f"--params={','.join(nums)};{','.join(dens)}"])),
        st.tuples(_FUZZ_RATIONALS, st.integers(-2, 6).map(str)).map(
            lambda ce: ["--arg=" + ",".join(ce)]),
        _FUZZ_RATIONALS.map(lambda r: [f"--psi={r}"]),
        _FUZZ_PRIMES.map(lambda p: [f"--prime={p}"])),
    "pf": st.tuples(st.just(["analyze", "--json"]),
                    _FUZZ_FAMILIES.map(lambda f: [f"--family={f}"])),
    "verify": st.tuples(
        st.sampled_from((["key-lemma"], ["truncation"], ["congruence"],
                         ["clausen"])),
        _fuzz_selector("--family", "--vertices", "--id", "--pair"),
        _fuzz_grid()),
}


@st.composite
def _fuzz_argv(draw, command):
    """The command with arguments of the documented grammar, each option as
    --flag=value; in one in four the value of an option is replaced by
    junk."""
    argv = [command] + [a for chunk in draw(_FUZZ_COMMANDS[command])
                        for a in chunk]
    options = [i for i, a in enumerate(argv) if "=" in a]
    if options and draw(st.sampled_from((False, False, False, True))):
        i = draw(st.sampled_from(options))
        argv[i] = argv[i].split("=")[0] + "=" + draw(_FUZZ_JUNK)
    return argv


@pytest.mark.parametrize("command", sorted(_FUZZ_COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_fuzzed_commands_exit_cleanly(command, data):
    # a command exits 0 or 1 with JSON on stdout, or 2 on a usage error, and
    # no input escapes as a traceback
    argv = data.draw(_fuzz_argv(command))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code != 2:
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue(), argv
