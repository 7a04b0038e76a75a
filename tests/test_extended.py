"""Larger primes, higher dimension, concurrency, and output determinism."""

import json
from concurrent.futures import ThreadPoolExecutor

import pytest

from hwmt.cli import main
from hwmt.families import get_family
from hwmt.hasse_witt import hasse_witt
from hwmt.hypergeometric import truncated_pFq
from hwmt.point_count import congruence_check
from hwmt.polytope import (
    LatticePolytope,
    is_kernel_pair,
    is_mirror_kernel_pair,
    polar_dual,
)


def test_fourfold_mirror_kernel_pair():
    # the Gorenstein Fano fourfold of weights (1,1,1,2,5): the simplex and
    # its polar dual are combinatorially equivalent with the same kernel
    poly = LatticePolytope(
        4, ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (-5, -2, -1, -1))
    )
    dual = polar_dual(poly)
    assert sorted(dual.vertices) == [
        (-1, -1, -1, -1), (-1, -1, -1, 9), (-1, -1, 9, -1),
        (-1, 4, -1, -1), (1, -1, -1, -1),
    ]
    ok, witness = is_kernel_pair(poly, dual)
    assert ok and witness is not None
    assert is_mirror_kernel_pair(poly, dual)


def test_large_prime_hasse_witt():
    # p = 101 stays fast for every family and matches the family's
    # truncated series; the quartic and group2 rows share the same
    # hypergeometric data, so their invariants agree at every (psi, p)
    p = 101
    for psi in (2, 3):
        values = {name: hasse_witt(name, psi, p).value
                  for name in ("elliptic", "quartic", "sextic", "group1", "group2")}
        for name, value in values.items():
            assert value == truncated_pFq(get_family(name).hg, psi, p).value
        assert values["quartic"] == values["group2"]


@pytest.mark.parametrize("family,p", [
    ("quartic", 29), ("quartic", 31), ("sextic", 23), ("sextic", 29),
    ("elliptic", 199),
])
def test_large_prime_congruences(family, p):
    # the fibered counts make the printed models affordable well past the
    # primes an exhaustive scan reaches
    for psi in (2, 3):
        ok, count, trunc = congruence_check(family, psi, p)
        assert ok, (family, psi, p, count, trunc)


def test_concurrent_evaluation_deterministic():
    # all operations are pure functions on immutable values
    grid = [(name, psi, p)
            for name in ("quartic", "sextic", "group1", "group2")
            for psi in (1, 2, 3)
            for p in (5, 7, 11, 13)]

    def work(cell):
        name, psi, p = cell
        return hasse_witt(name, psi, p).value

    sequential = [work(c) for c in grid]
    with ThreadPoolExecutor(max_workers=8) as pool:
        concurrent = list(pool.map(work, grid))
    assert concurrent == sequential


def _capture(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_cli_outputs_byte_identical(capsys):
    for argv in (
        ["hw", "--family", "group1", "--psi", "1,2", "--primes", "5,7,11"],
        ["pf", "analyze", "--family", "sextic", "--json"],
        ["verify", "truncation", "--family", "quartic", "--psi", "2",
         "--primes", "5,7"],
        ["count", "--family", "quartic", "--psi", "2,3", "--primes", "5,7,11"],
        ["verify", "congruence", "--family", "sextic", "--psi", "2",
         "--primes", "7,11"],
    ):
        first = _capture(capsys, *argv)
        second = _capture(capsys, *argv)
        assert first == second
        json.loads(first)  # well-formed JSON
