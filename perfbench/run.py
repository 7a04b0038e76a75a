"""Benchmark of hwmt: closed-loop workloads in fresh worker processes.

Run from the repository root:

    python3 perfbench/run.py --workload hw-large-p --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload census-sweep --smoke --trace 1
    python3 perfbench/run.py ... --record runs.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

A run first times the set-up (a fresh interpreter importing hwmt and loading
both fixtures), then repeats passes of the workload, each in a fresh worker
process (``worker.py``), until ``--seconds`` is spent, and reports the
median over passes.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer metrics instead.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the line before it holds the details of the run.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PER_PASS = 2    # set-up timings taken before each untraced pass
MIN_PASSES = 3
RUN_LIMIT_S = 170.0   # a run must end within 180 s
# Set-up: a fresh interpreter imports hwmt and loads and validates both
# fixtures.  The kernel runs in the same process just before and after.
SETUP_CODE = f"""
import sys, time
sys.path.insert(0, {str(HERE)!r})
import speed
speed.kernel_time()
before = speed.kernel_time()
start = time.perf_counter()
import hwmt
from hwmt.census import fixture_path, load_polytopes
for name in ('polygons2d.txt', 'tables3d.txt'):
    load_polytopes(fixture_path(name))
elapsed = time.perf_counter() - start
print(elapsed, before, speed.kernel_time())
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _git_sha():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
    }


def time_setup():
    """Set-up time as measured and at the reference kernel speed."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise BenchError(f"set-up failed:\n{proc.stderr}")
    elapsed, before, after = (float(x) for x in proc.stdout.split())
    return elapsed, 2 * elapsed * speed.REF_KERNEL_S / (before + after)


def run_worker(cfg, timeout):
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")],
                              input=json.dumps(cfg), env=_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker failed (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-1])


def run_passes(args, run_start, setup_times):
    """Untraced passes (and, with --trace 1, traced ones alternating with
    them) until --seconds is spent; at least MIN_PASSES of each kind.

    Without tracing, SETUP_PER_PASS set-up timings are appended to
    setup_times before each pass, so that they spread over the run like the
    passes do.
    """
    kinds = (False, True) if args.trace else (False,)
    passes = {k: [] for k in kinds}
    summand_cache = {}
    measure_start = time.perf_counter()
    longest = 0.0
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        cfg = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
               "trace": traced, "summand_cache": summand_cache}
        if not args.trace:
            setup_times.extend(time_setup() for _ in range(SETUP_PER_PASS))
        timeout = RUN_LIMIT_S - (time.perf_counter() - run_start)
        start = time.perf_counter()
        result = run_worker(cfg, max(timeout, 1.0))
        longest = max(longest, time.perf_counter() - start)
        summand_cache = result.pop("summand_cache", summand_cache)
        passes[traced].append(result)
        if args.smoke:
            if all(passes.values()):
                return passes
            continue
        enough = all(len(v) >= MIN_PASSES for v in passes.values())
        spent = time.perf_counter() - measure_start
        if enough and spent + longest > args.seconds:
            return passes


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def latency_stats(passes):
    """Median and tail op latency in ms.  Each operation's latency is its
    median over the passes; the tail is the highest percentile of those
    with at least 10 operations above it (the maximum below 11 ops)."""
    per_op = sorted(statistics.median(t) for t in zip(*(p["op_s"] for p in passes)))
    n = len(per_op)
    idx = n - 11 if n >= 11 else n - 1
    return {
        "op_p50_ms": 1e3 * statistics.median(per_op),
        "op_tail_ms": 1e3 * per_op[idx],
        "tail": {"percentile": 100.0 * (idx + 1) / n, "ops": n},
    }


def end_to_end(passes, setup_times):
    return {
        "wall_s": _median(passes, "wall_s"),
        "peak_rss_mb": _median(passes, "peak_rss_mb"),
        "setup_s": statistics.median(norm for _, norm in setup_times),
        **latency_stats(passes),
    }


def per_layer(untraced, traced):
    """Median of each layer metric over the traced passes; None (missing) if
    any pass could not measure it."""
    out = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced]
        out[name] = None if None in values else statistics.median(values)
    out["trace_overhead_frac"] = (
        _median(traced, "wall_s") / _median(untraced, "wall_s") - 1.0)
    return out


def run(args, bench):
    run_start = time.perf_counter()
    if not (SRC / "hwmt" / "__init__.py").is_file():
        raise BenchError(f"no hwmt source tree at {SRC}")
    setup_times = []
    if not args.trace:
        time_setup()  # writes the bytecode caches, which users pay once
    passes = run_passes(args, run_start, setup_times)
    untraced = passes[False]
    every = [p for v in passes.values() for p in v]
    if args.trace:
        computed = per_layer(untraced, passes[True])
        wanted = bench["per_layer"]
    else:
        computed = end_to_end(untraced, setup_times)
        wanted = bench["end_to_end"]
    missing = sorted(m["name"] for m in wanted
                     if m["name"] in computed and computed[m["name"]] is None)
    computed["trace.missing_metrics"] = len(missing)
    unknown = [m["name"] for m in wanted if m["name"] not in computed]
    if unknown:
        raise BenchError(f"BENCHMARK.json names metrics the run does not make: {unknown}")
    metrics = {
        m["name"]: {"value": computed[m["name"]] or 0, "unit": m["unit"]}
        for m in wanted
    }
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": environment(),
        "workload_info": untraced[0]["info"],
        "passes": {"untraced": len(untraced), "traced": len(passes.get(True, []))},
        "tail": computed.get("tail"),
        "per_pass_wall_s": [p["wall_s"] for p in untraced],
        "per_pass_raw_wall_s": [p["raw_wall_s"] for p in untraced],
        "per_pass_kernel_s": [p["kernel_s"] for p in untraced],
        "raw_setup_s": [raw for raw, _ in setup_times],
        "setup_samples_s": [norm for _, norm in setup_times],
        "fail_frac": failed / attempted,
        "failures": [f for p in every for f in p["failures"]][:10],
        "missing_metrics": missing,
        "missing_names": passes[True][0]["missing_names"] if args.trace else [],
        "run_s": time.perf_counter() - run_start,
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return detail, result


# --------------------------------------------------------------------------
# compare mode
# --------------------------------------------------------------------------

def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, change, better, bound):
    """Verdict for one metric on one workload, by the pairwise rule: a gain
    needs at least ten pairs, nine tenths of them won, and a median
    difference wider than the base's own quartile spread."""
    sign = 1 if better == "lower" else -1
    b1, bm, b3 = _quartiles(base)
    _, cm, _ = _quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (b - c) > 0)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (bm - cm) > b3 - b1):
        return "improved"
    if max(sign * c for c in change) < min(sign * b for b in base):
        return "no worse"   # every change run beats every base run
    if bm and (b3 - b1) / abs(bm) > bound:
        return "unresolved"
    return "worse" if sign * (cm - bm) > bound * abs(bm) else "no worse"


def _load_records(path):
    records = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                records.setdefault(rec["workload"], []).append(rec)
    return records


def compare(base_path, change_path, bench):
    base, change = _load_records(base_path), _load_records(change_path)
    print(f"base: {base_path}   change: {change_path}")
    for wl in sorted(set(base) & set(change)):
        print(f"\n{wl}  ({len(base[wl])} base runs, {len(change[wl])} change runs)")
        for m in bench["end_to_end"]:
            name = m["name"]
            bv = [r["metrics"][name]["value"] for r in base[wl]]
            cv = [r["metrics"][name]["value"] for r in change[wl]]
            b1, bm, b3 = _quartiles(bv)
            c1, cm, c3 = _quartiles(cv)
            ratio = cm / bm if bm else float("nan")
            print(f"  {name:12s} base {bm:.4g} [{b1:.4g}, {b3:.4g}]  "
                  f"change {cm:.4g} [{c1:.4g}, {c3:.4g}] {m['unit']}  "
                  f"change/base = {ratio:.3f} of base {bm:.4g} {m['unit']}  "
                  f"-> {verdict(bv, cv, m['better'], m['bound'])}")
    for wl in sorted(set(base) ^ set(change)):
        print(f"\n{wl}: only in {'base' if wl in base else 'change'}, not compared")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of a tiny version of the workload")
    parser.add_argument("--record", metavar="FILE",
                        help="append this run's metrics as one JSON line")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "CHANGE"),
                        help="compare two files written by --record")
    args = parser.parse_args(argv)
    try:
        bench = json.loads(BENCHMARK.read_text())
        if args.compare:
            compare(*args.compare, bench)
            return 0
        if not args.workload:
            parser.error("--workload is required")
        detail, result = run(args, bench)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if args.record:
        with open(args.record, "a") as fh:
            fh.write(json.dumps({**detail, **result}) + "\n")
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
