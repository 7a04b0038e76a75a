"""What ``import hwmt`` runs, and the layers that run on first use.

Each check runs in a fresh interpreter (``python -B``, so no bytecode is
written), since this test session has imported every layer already.
"""

import json
import subprocess
import sys

from conftest import hwmt_env

CORE = ["hwmt", "hwmt.census", "hwmt.errors", "hwmt.families", "hwmt.hasse_witt",
        "hwmt.hypergeometric", "hwmt.intlinalg", "hwmt.polytope"]
LAZY = ["hwmt.picard_fuchs", "hwmt.point_count", "hwmt.ratfunc"]

# the hwmt modules whose code has run: a lazy submodule is an instance of a
# ModuleType subclass until the first read of one of its attributes
RUN = ("sorted(n for n, m in sys.modules.items() if (n == 'hwmt' or "
       "n.startswith('hwmt.')) and type(m) is types.ModuleType)")


def run(code):
    """The JSON value the code prints last, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c",
                          "import json, sys, types\n" + code],
                         capture_output=True, text=True, env=hwmt_env(),
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_and_fixtures_run_only_the_core_layers():
    assert run(f"""
import hwmt
from hwmt.census import fixture_path, load_polytopes
for name in ('polygons2d.txt', 'tables3d.txt'):
    load_polytopes(fixture_path(name))
registered = sorted(m for m in sys.modules if m.startswith('hwmt'))
print(json.dumps([{RUN}, registered]))
""") == [CORE, sorted(CORE + LAZY)]


def test_lazy_names_are_their_modules_functions():
    assert run(f"""
import hwmt
first = hwmt.analyze_family
after_pf = {RUN}
from hwmt import analyze_family, congruence_check
from hwmt import point_count
import hwmt.picard_fuchs
print(json.dumps([
    after_pf,
    first is analyze_family is hwmt.analyze_family
        is hwmt.picard_fuchs.analyze_family,
    congruence_check is hwmt.congruence_check is point_count.congruence_check,
    point_count is sys.modules['hwmt.point_count'],
    vars(hwmt)['analyze_family'] is analyze_family,
]))
""") == [sorted(CORE + ["hwmt.picard_fuchs", "hwmt.ratfunc"]), True, True, True, True]


def test_lazy_submodules_run_on_first_read():
    # ``import hwmt`` alone, then a submodule read off the package, as
    # ``hwmt.point_count.count_family(...)`` is
    assert run(f"""
import hwmt
same = [getattr(hwmt, m) is sys.modules['hwmt.' + m]
        for m in ('point_count', 'picard_fuchs', 'ratfunc')]
before = {RUN}
count = hwmt.point_count.count_family
print(json.dumps([same, before, {RUN}]))
""") == [[True, True, True], CORE, sorted(CORE + ["hwmt.point_count"])]


def test_the_cli_runs_a_lazy_layer_only_for_its_commands():
    # every subcommand but `verify congruence` and `pf` starts without them
    assert run(f"""
import contextlib, io
import hwmt.cli
seen = []
for argv in (['hw', '--family', 'quartic', '--psi', '2', '--primes', '7'],
             ['hyp', '--params', '1/2,1/4,3/4;1,1', '--arg', '256,-4',
              '--psi', '2', '--prime', '13'],
             ['verify', 'key-lemma', '--pair', '3,4283', '--psi', '2',
              '--primes', '7'],
             ['verify', 'congruence', '--family', 'quartic', '--psi', '2',
              '--primes', '7'],
             ['pf', 'analyze', '--family', 'sextic', '--json']):
    with contextlib.redirect_stdout(io.StringIO()):
        code = hwmt.cli.main(argv)
    seen.append([code, sorted(set({RUN}) - set({CORE!r}))])
print(json.dumps(seen))
""") == [
        [0, ["hwmt.cli"]],
        [0, ["hwmt.cli"]],
        [0, ["hwmt.cli"]],
        [0, ["hwmt.cli", "hwmt.point_count"]],
        [0, ["hwmt.cli", "hwmt.picard_fuchs", "hwmt.point_count", "hwmt.ratfunc"]],
    ]


def test_hasse_witt_stays_the_function():
    assert run("""
import hwmt, hwmt.cli
module = sys.modules['hwmt.hasse_witt']
seen = [hwmt.hasse_witt is module.hasse_witt]
import hwmt.hasse_witt
seen.append(hwmt.hasse_witt is module.hasse_witt)
print(json.dumps(seen))
""") == [True, True]


def test_a_missing_name_raises_attribute_error():
    assert run("""
import hwmt
try:
    hwmt.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'hwmt' has no attribute 'no_such_name'"


def test_every_public_name_resolves():
    assert run("""
import hwmt
names = {}
exec('from hwmt import *', names)
print(json.dumps([[n for n in hwmt.__all__ if not hasattr(hwmt, n)],
                  sorted(set(hwmt.__all__) - set(names))]))
""") == [[], []]
