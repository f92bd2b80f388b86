"""limitgen benchmark: end-to-end numbers per workload, and a traced run
that splits them by layer.

    python3 bench/run.py --workload suite|plain-long|query-replay|all
        --seed N --seconds S --trace 0|1 [--tiny]

One caller runs experiments back to back in a closed loop, single-threaded,
each repeat in a fresh interpreter (`child.py`). The seed reaches limitgen
only as `--seed` / `seed=`.

`--trace 0` repeats the workload untraced for at least S seconds (and at
least three times) and reports:

    setup_s       fresh interpreter until limitgen and its experiment
                  registry are imported; median of the set-up probes and
                  every repeat
    wall_s        first experiment's start until the last artifact is
                  written, at a fixed reference speed of the host (below)
    steps_per_s   engine steps over all sub-runs / wall_s
    peak_rss_mb   peak resident memory of the workload process; median
    success_rate  1 - failed / attempted (the error rate is failed / attempted)

On a shared 2-vCPU host the same code runs up to twice as slow while
neighbours load the machine, in phases from a fraction of a second to many
minutes, so no statistic of raw repeat times is steady from one run to the
next. So `child.py` splits each repeat into segments at the start and end
of every `engine.run` and `engine.write_trace` call (each sub-run, each trace
write and the glue between them; the same segments in every repeat, because
the program is deterministic) and, at every cut, times a fixed calibration
kernel that does not touch limitgen. Each segment's time is scaled by
`spec.KERNEL_REF_S` over the median kernel time of the `KERNEL_WINDOW` cuts
on each side of it, which is how fast the host ran just then; wall_s adds
up, segment by segment, the median of these scaled times over the repeats.
It reads as the wall time at the speed where the kernel takes
KERNEL_REF_S. The kernel runs outside the segments, so its time is not in
wall_s. The table printed above the result also gives the raw time of each
repeat and the kernel's time (least, median, the highest percentile with
ten samples beyond it, count). The set-up probes are spread between the
repeats, so that they sample the whole run.

`--trace 1` runs the workload once untraced and once with the spans of
`tracer.py`, plus the horizon-scaling probe, and reports the per-layer
metrics listed in `spec.LAYERS`.

Every repeat is checked: every row must PASS, rows (passed, mistakes,
convergence) must equal `reference.json` where it has the seed, and rows and
trace bytes must be identical across the repeats of one invocation. An
operation counts as failed for every sub-run of an experiment with a FAIL
row, every row that differs from the reference or from the first repeat,
every trace file lost (sub-runs minus distinct trace files written), every
non-zero exit and every repeat whose trace bytes or segment count differ
from the first repeat's. `correct` is false on any of these except lost
traces, which are a known defect of the program that the benchmark reports
without hiding.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. The benchmark exits non-zero, printing no result,
when a child process fails (for example when `src/limitgen` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import (
    KERNEL_REF_S,
    KERNEL_WINDOW,
    LAYERS,
    PROBE_FACTOR,
    PROBE_HORIZONS,
    TINY_PROBE_DIVISOR,
    WORKLOADS,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
WORK = ROOT / ".bench_work"
MIN_REPEATS = 3
SETUP_PROBES = 4  # before each repeat
DEADLINE_S = 170.0  # one invocation must exit within 180 s


class BenchError(Exception):
    """A child process failed or timed out: no result can be reported."""


class Session:
    """One invocation's deadline and scratch directory."""

    def __init__(self, tiny: bool) -> None:
        self.tiny = tiny
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = WORK / str(os.getpid())
        self._count = 0

    def spawn(self, *args: str) -> dict:
        """Run child.py in a fresh interpreter and return its JSON result."""
        self._count += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("out of time before the next child process")
        cmd = [sys.executable, str(BENCH / "child.py"), *args]
        if self.tiny:
            cmd.append("--tiny")
        try:
            cmd += ["--spawned-at", repr(time.perf_counter())]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {' '.join(args)} timed out") from None
        if proc.returncode != 0:
            raise BenchError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
        return json.loads(proc.stdout.splitlines()[-1])

    def repeat(self, mode: str, workload: str, seed: int) -> dict:
        work = self.work / str(self._count)
        return self.spawn("--mode", mode, "--workload", workload, "--seed", str(seed), "--work", str(work))

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # missing, or another invocation is still using it


# --- correctness -------------------------------------------------------------


class Checks:
    """Accumulates attempted / failed operations and correctness problems."""

    def __init__(self, workload: str, reference: dict | None) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict | None = None
        self.attempted = 0
        self.failed = 0
        self.lost = 0
        self.problems: list[str] = []

    def _fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def add(self, result: dict) -> None:
        subruns = result["subruns"]
        self.attempted += sum(subruns.values())
        failing = sorted({name.split("[")[0] for name, row in result["rows"].items() if not row[0]})
        if failing:
            self._fail(sum(subruns.get(i, 0) for i in failing), f"FAIL rows in {failing}")
        if result["rc"] != 0:
            self._fail(1, f"exit code {result['rc']}")
        if self.reference is not None:
            self._compare_rows(result["rows"], self.reference["rows"], "reference")
            if result["steps"] != self.reference["steps"] or subruns != self.reference["subruns"]:
                self._fail(1, f"steps {result['steps']} / sub-runs differ from the reference")
        if self.first is None:
            self.first = result
        else:
            self._compare_rows(result["rows"], self.first["rows"], "first repeat")
            if result["trace_digest"] != self.first["trace_digest"]:
                self._fail(1, "trace bytes differ from the first repeat")
            segments = result.get("segments_s")  # absent from traced repeats
            if segments is not None and len(segments) != len(self.first["segments_s"]):
                self._fail(1, "segment count differs from the first repeat")
        if self.workload == "suite":
            lost = sum(subruns.values()) - result["trace_files"]
            self.lost += lost
            self.failed += lost

    def _compare_rows(self, rows: dict, expected: dict, against: str) -> None:
        bad = sorted(name for name in rows.keys() | expected.keys() if rows.get(name) != expected.get(name))
        if bad:
            self._fail(len(bad), f"rows differ from the {against}: {bad[:5]}")

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.problems


def load_reference(workload: str, seed: int, tiny: bool) -> dict | None:
    if tiny or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(workload, {}).get(str(seed))


# --- statistics --------------------------------------------------------------


def highest_percentile(n: int) -> int | None:
    """The highest percentile above the median with ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return None


def describe(values: list[float]) -> str:
    text = f"min {min(values):.6g}, median {statistics.median(values):.6g}"
    p = highest_percentile(len(values))
    if p is None:
        text += " (no higher percentile has ten samples beyond it)"
    else:
        text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.6g}"
    return f"{text}, n={len(values)}"


# --- the two kinds of run ------------------------------------------------------


def reference_wall(repeats: list[dict]) -> float:
    """The wall time of a workload at the reference speed: each segment's
    time scaled by KERNEL_REF_S over the kernel times around it, the median
    of that over the repeats, summed over the segments."""
    scaled = []
    for r in repeats:
        kernels = r["kernels_s"]
        scaled.append([
            t * KERNEL_REF_S / statistics.median(kernels[max(0, k - KERNEL_WINDOW) : k + KERNEL_WINDOW])
            for k, t in enumerate(r["segments_s"])
        ])
    return sum(statistics.median(times) for times in zip(*scaled))


def end_to_end(session: Session, workload: str, seed: int, seconds: float, checks: Checks):
    setups: list[float] = []
    repeats: list[dict] = []
    start = time.monotonic()
    min_repeats = 1 if session.tiny else MIN_REPEATS
    while len(repeats) < min_repeats or time.monotonic() - start < seconds:
        # set-up probes between the repeats, so that they sample the whole run
        setups += [session.spawn("--mode", "setup")["setup_s"] for _ in range(SETUP_PROBES)]
        result = session.repeat("run", workload, seed)
        checks.add(result)
        repeats.append(result)
    wall = reference_wall(repeats)
    samples = {
        "setup_s": ([*setups, *(r["setup_s"] for r in repeats)], "s"),
        "raw wall_s": ([r["wall_s"] for r in repeats], "s"),
        "kernel_s": ([k for r in repeats for k in r["kernels_s"]], "s"),
        "peak_rss_mb": ([r["peak_rss_mb"] for r in repeats], "MB"),
    }
    for name, (values, unit) in samples.items():
        print(f"{workload:13} {name:13} {unit:8} {describe(values)}")
    print(f"{workload:13} wall_s        s        {wall:.6g} over {len(repeats[0]['segments_s'])} segments")
    error_rate = checks.failed / checks.attempted
    print(f"{workload:13} error_rate    ratio    {error_rate:.6g} = {checks.failed}/{checks.attempted}"
          f" ({checks.lost} lost trace files)")
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"][0]), "s"),
        "wall_s": (wall, "s"),
        "steps_per_s": (repeats[0]["steps"] / wall, "steps/s"),
        "peak_rss_mb": (statistics.median(samples["peak_rss_mb"][0]), "MB"),
        "success_rate": (1 - error_rate, "ratio"),
    }
    return metrics


def scaling_probe(session: Session) -> dict[str, tuple[float, str]]:
    """Time and peak memory of one sub-run per strategy at T and at 4T, each
    horizon in its own interpreter. The short run is timed three times and
    the least time kept, because its tens of milliseconds are the noisier."""
    metrics: dict[str, tuple[float, str]] = {}
    for strategy, horizon in PROBE_HORIZONS.items():
        if session.tiny:
            horizon //= TINY_PROBE_DIVISOR
        small, big = (
            session.spawn("--mode", "probe", "--strategy", strategy, "--horizon", str(h), "--repeats", str(r))
            for h, r in ((horizon, 3), (PROBE_FACTOR * horizon, 1))
        )
        metrics[f"scaling.{strategy}.T"] = (horizon, "steps")
        metrics[f"scaling.{strategy}.time_4x"] = (big["time"] / small["time"], "ratio")
        metrics[f"scaling.{strategy}.mem_4x"] = (big["mem"] / small["mem"], "ratio")
    return metrics


def per_layer(session: Session, workload: str, seed: int, checks: Checks):
    plain = session.repeat("run", workload, seed)
    checks.add(plain)
    traced = session.repeat("traced", workload, seed)
    checks.add(traced)
    metrics = {name: tuple(value) for name, value in traced["layers"].items()}
    subruns = sum(traced["subruns"].values())
    suite = workload == "suite"
    metrics["cli.trace_files"] = (traced["trace_files"], "count")
    metrics["cli.trace_files_lost"] = (subruns - traced["trace_files"] if suite else 0, "count")
    metrics["engine.trace_bytes"] = (traced["trace_bytes"], "bytes")
    metrics["tracing.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    metrics.update(scaling_probe(session))
    for layer in LAYERS:
        print(f"[{layer['layer']}] moves {', '.join(layer['moves']) or '-'};"
              f" mostly on {', '.join(layer['mostly_on'])}; ~none on {', '.join(layer['none_on']) or '-'}")
        for name in layer["metrics"]:
            value, unit = metrics[name]
            print(f"  {name:58} {value:>16.6g} {unit}")
    print(f"{workload}: traced wall_s {traced['wall_s']:.6g} s, untraced {plain['wall_s']:.6g} s")
    return metrics


def run_one(workload: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    session = Session(tiny)
    try:
        session.spawn("--mode", "setup")  # warm-up: compiles bytecode, fails early without src/
        checks = Checks(workload, load_reference(workload, seed, tiny))
        if trace:
            metrics = per_layer(session, workload, seed, checks)
        else:
            metrics = end_to_end(session, workload, seed, seconds, checks)
    finally:
        session.cleanup()
    for problem in checks.problems:
        print(f"{workload}: INCORRECT: {problem}")
    return {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny horizons, for the self-test")
    args = p.parse_args(argv)
    try:
        if args.workload != "all":
            result = run_one(args.workload, args.seed, args.seconds, args.trace, args.tiny)
        else:
            # every workload, untraced and traced; metric names get the
            # workload as a prefix
            result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                for trace in (0, 1):
                    part = run_one(workload, args.seed, args.seconds, trace, args.tiny)
                    print(json.dumps(part))
                    result["correct"] &= part["correct"]
                    result["attempted"] += part["attempted"]
                    result["failed"] += part["failed"]
                    for name, metric in part["metrics"].items():
                        result["metrics"][f"{workload}.{name}"] = metric
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
