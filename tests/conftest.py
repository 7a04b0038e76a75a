import importlib
import os
from pathlib import Path

import pytest

import hwmt
from hwmt.census import fixture_path, load_polytopes
from hwmt.polytope import LatticePolytope


def hwmt_env():
    """Environment for a Python subprocess of a test: the caller's own, so
    that settings such as PYTHONDONTWRITEBYTECODE still hold, with
    PYTHONPATH naming the source tree of the imported hwmt."""
    return {**os.environ,
            "PYTHONPATH": str(Path(hwmt.__file__).resolve().parent.parent)}


def cold_hasse_witt():
    """Empty every lru_cache of ``hwmt.hasse_witt``, as in a fresh process.

    The caches are found by introspection, every function of the module
    with a ``cache_clear``, so a memo added to the engine cannot be missed.
    A name that a test has monkeypatched to a plain function is skipped."""
    module = importlib.import_module("hwmt.hasse_witt")
    for value in vars(module).values():
        if getattr(value, "__module__", None) == module.__name__ and \
                hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture(scope="session")
def records3d():
    return {r.id: r for r in load_polytopes(fixture_path("tables3d.txt"))}


@pytest.fixture(scope="session")
def records2d():
    return {r.id: r for r in load_polytopes(fixture_path("polygons2d.txt"))}


@pytest.fixture(scope="session")
def gl_image():
    """image(rng, p): g.p for a seeded random g in GL(n,Z), made of a few
    elementary integer row operations and sign flips, with the vertices
    shuffled."""

    def image(rng, p):
        n = p.dim
        u = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                u[i] = [-x for x in u[i]]
            else:
                c = rng.randint(-2, 2)
                u[i] = [x + c * y for x, y in zip(u[i], u[j])]
        verts = [tuple(sum(v[t] * u[t][c] for t in range(n)) for c in range(n))
                 for v in p.vertices]
        rng.shuffle(verts)
        return LatticePolytope(n, tuple(verts))

    return image


@pytest.fixture
def p113_simplex():
    # weighted projective P(1,1,1,3) model simplex, printed vertex order
    return LatticePolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-3, -1, -1)))


@pytest.fixture
def p3_simplex():
    return LatticePolytope(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)))


@pytest.fixture
def cross_polytope():
    return LatticePolytope(2, ((1, 0), (0, 1), (-1, 0), (0, -1)))


@pytest.fixture
def unit_square():
    return LatticePolytope(2, ((1, 1), (1, -1), (-1, -1), (-1, 1)))
