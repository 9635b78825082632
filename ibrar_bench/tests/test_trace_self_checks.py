"""Self-checks of the benchmark's tracer and workloads, on tiny model scales.

* The traced run's per-layer counts equal the program's own counters
  (TrainingCompileStats, AttackTelemetry, ServerStats, SignatureCache.stats),
  and every output check passes.
* Slowing one layer's entry point through the tracer's wrapper (never by
  editing ``src/``) makes the per-layer comparison of two runs name it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro.compile
import repro.compile.graph
import repro.compile.model
import repro.compile.training
from repro.compile.executor import Plan

from ibrar_bench import adv_train, attack_suite, serve_classify
from ibrar_bench.harness import execute
from ibrar_bench.layers import declared_per_layer, targets
from ibrar_bench.tracer import Span, Tracer, moved_layer, self_times

ROOT = Path(__file__).resolve().parents[2]
TINY = {
    "adv_train": adv_train.TINY,
    "attack_suite": attack_suite.TINY,
    "serve_classify": serve_classify.TINY,
}


@pytest.mark.parametrize("workload", sorted(TINY))
def test_traced_counts_equal_program_counters(workload):
    record = execute(workload, seed=0, seconds=0.0, trace=True, scale=TINY[workload], gemm_gflops=1.0)
    assert record["failures"] == []
    assert record["correct"] and record["failed"] == 0 and record["attempted"] > 0
    metrics = record["metrics"]
    assert set(metrics) == set(declared_per_layer())
    assert metrics["obs.counter_mismatches"]["value"] == 0


@pytest.mark.parametrize("span, layer", [("ib.mi_score", "ib"), ("data.batch", "data")])
def test_slowed_layer_is_named_by_the_comparison(span, layer):
    def layer_ms(delays):
        record = execute(
            "adv_train", seed=0, seconds=0.0, trace=True, scale=TINY["adv_train"], delays=delays
        )
        assert record["correct"]
        return record["layer_self_ms"]

    assert moved_layer(layer_ms(None), layer_ms({span: 0.1})) == layer


def test_untraced_run_reports_every_end_to_end_metric():
    record = execute("serve_classify", seed=0, seconds=0.0, trace=False, scale=TINY["serve_classify"])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {row["name"] for row in declared["workloads"]} == set(TINY)
    assert set(record["metrics"]) == {row["name"] for row in declared["end_to_end"]}
    assert all(entry["value"] > 0 for entry in record["metrics"].values())


def test_functions_are_patched_in_every_importing_module_and_restored():
    original = repro.compile.graph.capture_forward
    forward = Plan.forward
    with Tracer(targets()):
        for module in (repro.compile, repro.compile.graph, repro.compile.model, repro.compile.training):
            assert module.capture_forward is not original
            assert module.capture_forward.__wrapped__ is original
        assert Plan.forward is not forward
    for module in (repro.compile, repro.compile.graph, repro.compile.model, repro.compile.training):
        assert module.capture_forward is original
    assert Plan.forward is forward


def test_self_time_subtracts_same_thread_children():
    parent = Span("compile.capture", 0.0, None, 1)
    parent.end = 1.0
    child = Span("nn.forward", 0.25, 0, 1)
    child.end = 0.75
    assert self_times([parent, child]) == [0.5, 0.5]


def test_run_without_the_program_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "ibrar_bench", tmp_path / "ibrar_bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "ibrar_bench/run.py", "--workload", "adv_train", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
