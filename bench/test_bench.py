"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import expect
import run
import spans

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def bench(workload: str, trace: int, root=run.ROOT):
    return subprocess.run(
        [sys.executable, str(root / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_emits_every_named_metric(workload, trace):
    result = result_of(bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in named
    }
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        assert result["metrics"]["deutsch.oracle_calls_per_verdict"]["value"] == 1.0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    first, second = (result_of(bench(workload, 1)) for _ in range(2))
    assert {k: first["metrics"][k] for k in COUNTS} == {k: second["metrics"][k] for k in COUNTS}


def _flip_classify(real):
    swap = {"constant": "balanced", "balanced": "constant"}
    return lambda values: swap.get(real(values), real(values))


@pytest.mark.parametrize(
    "workload, attr, wrong",
    [
        ("verify", "VERIFY_CHECKS", lambda real: real + 1),
        ("dj", "classify", _flip_classify),
        ("cli", "run_outcome", lambda real: lambda b, a: 1 - real(b, a)),
    ],
)
def test_wrong_expectation_raises_failed_frac(monkeypatch, workload, attr, wrong):
    monkeypatch.setattr(expect, attr, wrong(getattr(expect, attr)))
    result, _ = run.run_workload(workload, seed=5, seconds=0.3, trace=False)
    assert result["failed"] > 0 and not result["correct"]


def _bindings() -> dict:
    package, modules = spans.deutschsim_modules()
    counted = modules[spans.MODULES.index("deutsch")].CountedOracle
    return {(repr(o), attr): v for o in [package, *modules, counted]
            for attr, v in vars(o).items() if callable(v)}


def test_tracer_restores_every_wrapped_function(capsys):
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    import deutschsim.cli

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert "deutschsim.state.apply_unitary" in spans.leftover_wrappers()
        assert deutschsim.cli.main(["dj", "--all", "--n", "2"]) == 0
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert spans.leftover_wrappers() == []
    # deutsch calls apply_unitary through its own `from .state import` binding.
    recorded = tracer.take()
    assert any(
        name == "state.apply_unitary" and parent >= 0
        and recorded[parent][0] == "deutsch.run_deutsch_jozsa"
        for name, _, _, parent, _, _ in recorded
    )


def test_refuses_to_run_without_the_package():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for path in run.BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = bench("cli", 0, root=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
