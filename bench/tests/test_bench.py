"""Self-test of the benchmark: each workload at a tiny size prints every
metric BENCHMARK.json declares, with its unit, and no span outlasts its
parent. Run with `python3 -m pytest bench/tests`."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from spec import LAYERS, WORKLOADS  # noqa: E402
from tracer import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_prints_every_declared_metric(workload, trace, section):
    proc = bench("--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["attempted"] >= 1
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {metric["name"]: metric["unit"] for metric in DECLARED[section]}
    if trace:
        metrics = {name: metric["value"] for name, metric in result["metrics"].items()}
        assert metrics["tracing.span_violations"] == 0
        for name in ("cli.self_s", "experiments.self_s", "engine.run_self_us_per_step"):
            assert metrics[name] >= 0, name


def test_layer_map_covers_the_declared_metrics():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)
    mapped = [name for layer in LAYERS for name in layer["metrics"]]
    assert mapped == [metric["name"] for metric in DECLARED["per_layer"]]


def test_span_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.span("inner", lambda: time.sleep(0.01))

    def body():
        inner()
        inner()
        time.sleep(0.01)

    tracer.span("outer", body)()
    calls, total, own = tracer.spans["outer"]
    assert calls == 1 and tracer.spans["inner"][0] == 2
    assert own == pytest.approx(total - tracer.spans["inner"][1])
    assert 0.005 < own < total
    assert tracer.violations == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "query-replay", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
