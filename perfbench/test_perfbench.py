"""Tests of the benchmark itself, so that it cannot rot silently.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import hwmt  # noqa: E402
import hwmt.cli  # noqa: E402,F401
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_meets_the_output_contract(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", str(trace),
                "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.missing_metrics"]["value"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "hw-large-p", "--seconds", "1",
                cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_same_seed_same_inputs_and_psi_from_the_pool():
    ref = workloads.load_reference()
    for wl in workloads.WORKLOADS:
        a, _ = workloads.build(hwmt, wl, 7, False, ref)
        b, _ = workloads.build(hwmt, wl, 7, False, ref)
        assert [(o.kind, o.args) for o in a] == [(o.kind, o.args) for o in b]
    for seed in range(20):
        psis = workloads.draw_psi("census-sweep", seed, 3)
        assert len(set(psis)) == 3 and set(psis) <= set(workloads.PSI_POOL)


def _smoke_ops(workload):
    ops, _ = workloads.build(hwmt, workload, 3, True, workloads.load_reference())
    return [(op, op.call()) for op in ops]


def _bump(value):
    return dataclasses.replace(value, value=value.value + 1)


def test_checks_accept_right_and_reject_wrong_results():
    for op, result in _smoke_ops("hw-large-p"):
        assert op.check(result)
        assert not op.check(_bump(result))
    for op, result in _smoke_ops("count-verify"):
        assert op.check(result)
        if op.kind == "congruence_check":
            ok, count, trunc = result
            assert not op.check((ok, count + 1, trunc))
            assert not op.check((False, count, trunc))
        elif op.kind == "truncated_pFq":
            assert not op.check(_bump(result))
        else:
            wrong = dataclasses.replace(result, final=result.intermediate)
            assert not op.check(wrong)
    for op, result in _smoke_ops("census-sweep"):
        assert op.check(result)
        if op.kind == "key_lemma_check":
            ok, hw_a, hw_b = result
            assert not op.check((ok, hw_a, _bump(hw_b)))
            assert not op.check((ok, _bump(hw_a), _bump(hw_b)))
        elif op.kind == "hasse_witt":
            assert not op.check(_bump(result))
        elif op.kind == "cli.census":
            code, text = result
            data = json.loads(text)
            data["rows"][0]["pairs"] = []
            assert not op.check((code, json.dumps(data)))
            assert not op.check((1, text))


def test_a_renamed_function_is_reported_missing(monkeypatch):
    monkeypatch.setattr(tracing, "LAYERS", {"hasse_witt": ("renamed_away",)})
    monkeypatch.setattr(tracing, "COUNTED_GENERATORS", ())
    tracer = tracing.Tracer()
    tracer.install()
    tracer.start()
    tracer.stop()
    metrics = tracing.layer_metrics(tracer, None, [])
    assert "hasse_witt.renamed_away" in tracer.missing
    assert metrics["hasse_witt.calls"] is None
    assert metrics["hasse_witt.summands"] is None
    assert set(metrics) == set(tracing.layer_metric_names())


def test_every_layer_metric_is_declared():
    declared = [m["name"] for m in BENCH["per_layer"]]
    made = tracing.layer_metric_names() + ["trace_overhead_frac",
                                           "trace.missing_metrics"]
    assert declared == made


def test_compare_verdicts():
    base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]
    faster = [v * 0.8 for v in base]
    assert run.verdict(base, faster, "lower", 0.1) == "improved"
    assert run.verdict(base, base, "lower", 0.1) == "no worse"
    assert run.verdict(base, [v * 1.5 for v in base], "lower", 0.1) == "worse"
    noisy = [5.0, 15.0, 7.0, 13.0, 10.0, 6.0, 14.0, 9.0, 11.0, 12.0]
    assert run.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    assert run.verdict(base, faster, "higher", 0.1) == "worse"
