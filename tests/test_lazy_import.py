"""What ``import hwmt`` runs, and the layers that run on first use.

Each check runs in a fresh interpreter (``python -B``, so no bytecode is
written), since this test session has imported every layer already.
"""

import json
import subprocess
import sys

from conftest import hwmt_env

CORE = ["hwmt", "hwmt.census", "hwmt.errors", "hwmt.intlinalg", "hwmt.polytope"]
LAZY = ["hwmt.families", "hwmt.hasse_witt", "hwmt.hypergeometric",
        "hwmt.picard_fuchs", "hwmt.point_count", "hwmt.ratfunc"]
# what ``import hwmt.cli`` runs: every layer but the last three of LAZY
CLI = sorted(CORE + ["hwmt.cli"] + LAZY[:3])
# the two lazy layers that hasse_witt, picard_fuchs and point_count import
SERIES = ["hwmt.families", "hwmt.hypergeometric"]

# Each run of an hwmt module's code, seen by an audit hook on the exec of its
# module code object, so a module run twice shows twice, and a module run
# eagerly shows even when a lazy submodule later takes its sys.modules entry.
PRELUDE = """import json, os, sys, types
ran = []
def _record(event, args):
    code = args[0] if event == 'exec' else None
    if getattr(code, 'co_name', '') == '<module>':
        head, name = os.path.split(code.co_filename[:-3])
        if os.path.basename(head) == 'hwmt':
            ran.append('hwmt' if name == '__init__' else 'hwmt.' + name)
sys.addaudithook(_record)
"""
# the hwmt modules whose code has run, in name order
RUN = "sorted(ran)"


def run(code):
    """The JSON value the code prints last, run in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-B", "-c", PRELUDE + code],
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
""") == [sorted(CORE + SERIES + ["hwmt.picard_fuchs", "hwmt.ratfunc"]),
          True, True, True, True]


def test_lazy_submodules_run_on_first_read():
    # ``import hwmt`` alone, then a submodule read off the package, as
    # ``hwmt.point_count.count_family(...)`` is
    assert run(f"""
import hwmt
same = [getattr(hwmt, m) is sys.modules['hwmt.' + m]
        for m in ('families', 'hypergeometric', 'point_count', 'picard_fuchs',
                  'ratfunc')]
before = {RUN}
count = hwmt.point_count.count_family
print(json.dumps([same, 'hasse_witt' in vars(hwmt), before, {RUN}]))
""") == [[True] * 5, False, CORE, sorted(CORE + SERIES + ["hwmt.point_count"])]


def test_the_cli_import_runs_every_layer_it_times():
    # no CLI command and no timed call through hwmt.cli pays a compile,
    # except in the Picard-Fuchs and point-count layers
    assert run(f"""
import hwmt.cli
print(json.dumps({RUN}))
""") == CLI


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
    seen.append([code, sorted(set({RUN}) - set({CLI!r}))])
print(json.dumps(seen))
""") == [
        [0, []],
        [0, []],
        [0, []],
        [0, ["hwmt.point_count"]],
        [0, ["hwmt.picard_fuchs", "hwmt.point_count", "hwmt.ratfunc"]],
    ]


def test_hasse_witt_stays_the_function():
    # the module is in sys.modules only; the package name is the function's,
    # whichever of the package, the CLI and the module is imported first
    orders = ["import hwmt, hwmt.cli\nimport hwmt.hasse_witt",
              "import hwmt\nimport hwmt.hasse_witt\nimport hwmt.cli",
              "import hwmt.hasse_witt\nimport hwmt, hwmt.cli",
              "import hwmt.cli\nimport hwmt.hasse_witt\nimport hwmt",
              "from hwmt import hasse_witt\nimport hwmt.hasse_witt"]
    assert [run(imports + """
import importlib
module = sys.modules['hwmt.hasse_witt']
print(json.dumps([hwmt.hasse_witt is module.hasse_witt,
                  importlib.import_module('hwmt.hasse_witt') is module,
                  type(module) is types.ModuleType]))
""") for imports in orders] == [[True, True, True]] * len(orders)


def test_a_missing_name_raises_attribute_error():
    assert run("""
import hwmt
try:
    hwmt.no_such_name
except AttributeError as exc:
    print(json.dumps(str(exc)))
""") == "module 'hwmt' has no attribute 'no_such_name'"


def test_every_public_name_resolves():
    # each name in __all__ is its module's object; the lazy names' modules
    # are named here, the others' read off __module__
    assert run("""
import importlib
import hwmt
lazy = {'FAMILIES': 'families', 'FamilyTag': 'families',
        'get_family': 'families', 'HypergeometricData': 'hypergeometric',
        'truncated_pFq': 'hypergeometric', 'hasse_witt': 'hasse_witt',
        'key_lemma_check': 'hasse_witt', 'period_coefficients': 'hasse_witt',
        'truncation_relation_check': 'hasse_witt',
        'analyze_family': 'picard_fuchs', 'congruence_check': 'point_count'}
names = {}
exec('from hwmt import *', names)
wrong = []
for n in hwmt.__all__:
    owner = 'hwmt.' + lazy[n] if n in lazy else getattr(hwmt, n).__module__
    if not (getattr(hwmt, n) is names.get(n)
            is getattr(importlib.import_module(owner), n)):
        wrong.append(n)
print(json.dumps([wrong, sorted(set(lazy) ^ set(hwmt._LAZY))]))
""") == [[], []]


def test_first_use_from_many_threads():
    # eight threads make the first reads of the lazy layers at once, through
    # the package root and a from-import as census makes; a thread that read
    # a half-run module would raise AttributeError or ImportError
    assert run("""
import threading
import hwmt
sys.setswitchinterval(1e-6)
barrier = threading.Barrier(8)
seen = [None] * 8
def first_use(i):
    barrier.wait()
    try:
        from hwmt.families import FAMILIES
        seen[i] = [hwmt.hasse_witt('quartic', 2, 11).value,
                   hwmt.get_family('sextic').name, sorted(FAMILIES),
                   hwmt.hypergeometric.pfq_taylor.__name__]
    except Exception as exc:
        seen[i] = repr(exc)
threads = [threading.Thread(target=first_use, args=(i,)) for i in range(8)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps(seen))
""") == [[1, "sextic", ["elliptic", "group1", "group2", "quartic", "sextic"],
          "pfq_taylor"]] * 8
