"""One pass of a workload, run in a fresh process by ``run.py``.

Reads a JSON config on stdin: workload, seed, smoke, trace and the summand
cache of earlier passes.  Issues the workload's calls one after another
(a closed loop with a single client and no threads), times each, then
checks every result and prints one JSON line with the pass's figures.
Because the process is fresh, the hwmt caches start cold, as they do for
every hwmt CLI call.  Times are normalized to the reference kernel speed
(see ``speed.py``); ``raw_wall_s`` is the measured time inside the calls.
"""

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MAX_FAILURES_SHOWN = 5


def run_pass(cfg):
    import hwmt
    import hwmt.cli  # noqa: F401  (the census op calls hwmt.cli.main)

    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.install()
    ops, info = workloads.build(hwmt, cfg["workload"], cfg["seed"], cfg["smoke"],
                                workloads.load_reference())
    clock = time.perf_counter
    track = speed.SpeedTrack()
    outcomes, latencies = [], []
    if tracer:
        tracer.start()
    for i, op in enumerate(ops):
        track.before_call()
        if tracer:
            tracer.op = i
        start = clock()
        try:
            outcomes.append((op.call(), None))
        except Exception as exc:  # a raising call is a failed operation
            outcomes.append((None, exc))
        latencies.append(clock() - start)
    track.close()
    if tracer:
        tracer.stop()
    scale = track.scale()
    op_s = [t * f for t, f in zip(latencies, scale)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures = []
    for op, (result, exc) in zip(ops, outcomes):
        if exc is None:
            try:
                if op.check(result):
                    continue
            except Exception as check_exc:  # a result the check cannot read
                exc = check_exc
        reason = "wrong result" if exc is None else f"{type(exc).__name__}: {exc}"
        failures.append(f"{op.kind}{op.args}: {reason}")

    out = {
        "wall_s": sum(op_s),
        "raw_wall_s": sum(latencies),
        "kernel_s": sorted(track.samples)[len(track.samples) // 2],
        "peak_rss_mb": rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures[:MAX_FAILURES_SHOWN],
        "info": info,
        "op_s": op_s,
    }
    if tracer:
        cache = cfg.get("summand_cache", {})
        summands = tracing.count_summands(hwmt, tracer, cache)
        out["layers"] = tracing.layer_metrics(tracer, summands, scale)
        out["summand_cache"] = cache
        out["missing_names"] = sorted(tracer.missing)
    return out


def main():
    cfg = json.loads(sys.stdin.read())
    print(json.dumps(run_pass(cfg)))


if __name__ == "__main__":
    main()
