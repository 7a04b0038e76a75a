"""Regenerate ``reference.json``, the stored answers the workload checks use.

The table was made once from the depth-first constant-term engine and the
exhaustive point-count scanners of hwmt 0.1.0.  Regenerate it only when
the expected mathematics changes, never to make a faster engine agree with
itself.  Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hwmt  # noqa: E402
from hwmt.census import fixture_path  # noqa: E402
from workloads import (  # noqa: E402
    FAMILY_NAMES, FIXTURES, PSI_POOL, REFERENCE_PATH, SIZES, fixture_key,
)


def main():
    full_hw = SIZES["hw-large-p"]["full"]
    full_census = SIZES["census-sweep"]["full"]
    full_count = SIZES["count-verify"]["full"]
    hw_family = {
        fam: {str(psi): {str(p): hwmt.hasse_witt(fam, psi, p).value
                         for p in full_hw["primes"]}
              for psi in PSI_POOL}
        for fam in FAMILY_NAMES
    }
    hw_fixture = {}
    for fixture in FIXTURES:
        for rec in hwmt.load_polytopes(fixture_path(fixture)):
            hw_fixture[fixture_key(fixture, rec.id)] = {
                str(psi): {str(p): hwmt.hasse_witt(rec.polytope, psi, p).value
                           for p in full_census["hw_primes"]}
                for psi in PSI_POOL
            }
    records3d = hwmt.load_polytopes(fixture_path("tables3d.txt"))
    census3d = hwmt.run_census(records3d)
    counts = {
        fam: {str(psi): {str(p): hwmt.point_count.count_family(fam, psi, p).count
                         for p in primes}
              for psi in PSI_POOL}
        for fam, primes in full_count["counts"].items()
    }
    pf_final = {
        fam: str(hwmt.analyze_family(fam).final)
        for fam in FAMILY_NAMES
        if hwmt.get_family(fam).pf_ode is not None
    }
    ref = {
        "generated_by": "hwmt 0.1.0: depth-first constant-term engine and "
                        "exhaustive point-count scans",
        "psi_pool": list(PSI_POOL),
        "census3d": {
            "records": len(records3d),
            "types": len(census3d.types),
            "pairs": [list(pr) for pr in census3d.pairs],
            "self_dual": len(census3d.self_dual),
        },
        "pf_final": pf_final,
        "counts": counts,
        "hw_family": hw_family,
        "hw_fixture": hw_fixture,
    }
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
