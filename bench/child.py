"""One measurement in a fresh interpreter, started by `run.py`.

Every repeat runs in its own interpreter, because limitgen keeps module-level
memos (`families._RAY_POOL`, the `ChainSpec` link caches) that users pay for
on every CLI run, and because peak RSS is a per-process figure. The child
imports limitgen from `src/` next to this directory, prints one JSON object
as its last line and exits.

    python3 bench/child.py --mode setup|run|traced --workload W --seed N
        --spawned-at T [--tiny] [--work DIR]
    python3 bench/child.py --mode probe --strategy S --horizon T [--repeats R]

`--spawned-at` is the parent's `time.perf_counter()` just before it started
this process; Linux's perf_counter is CLOCK_MONOTONIC, which all processes
share, so set-up time runs from before interpreter start-up.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_limitgen() -> float:
    """Import limitgen from this checkout (which builds the experiment
    registry) and return the time it was ready."""
    sys.path.insert(0, str(ROOT / "src"))
    import limitgen.cli  # noqa: F401  (imports experiments, which registers every id)

    ready = time.perf_counter()
    if not Path(limitgen.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"limitgen was imported from {limitgen.cli.__file__}, not from {ROOT / 'src'}")
    return ready


def _mix(x: int) -> int:
    return (3 * x + 7) % 1013


def _kernel() -> int:
    """The calibration kernel: a fixed piece of pure-Python work that does
    not touch limitgen, made of what limitgen's step loops are made of
    (function calls, set and dict operations, small-int arithmetic). It
    takes about 0.1 ms on a quiet host."""
    seen: set[int] = set()
    table: dict[int, int] = {}
    acc = 0
    for i in range(400):
        v = _mix(i)
        if v not in seen:
            seen.add(v)
        table[v & 63] = i
        acc += table.get(i & 63, 0)
    return acc


class Segmenter:
    """Splits a repeat into segments at the start and end of every
    `engine.run` and `engine.write_trace` call (each sub-run, each trace
    write and the glue between them) and times the calibration kernel at
    every cut, outside the segments.

    The segments are the same from one repeat to the next, because the
    program is deterministic; `run.py` scales each by the kernel times
    around it, which tell how fast the shared host ran just then.
    """

    def __init__(self, cut: bool) -> None:
        """`cut=False` only times the whole repeat, as the traced run does."""
        from limitgen import engine

        self.segments: list[float] = []
        self.kernels: list[float] = []
        self._last = 0.0
        if not cut:
            return

        def cut_around(fn):
            def wrapper(*args, **kwargs):
                self.cut()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.cut()

            return wrapper

        engine.run = cut_around(engine.run)
        engine.write_trace = cut_around(engine.write_trace)

    def start(self) -> None:
        self._last = time.perf_counter()

    def cut(self) -> None:
        clock = time.perf_counter
        begin = clock()
        self.segments.append(begin - self._last)
        _kernel()
        end = clock()
        self.kernels.append(end - begin)
        self._last = end

    def stop(self) -> float:
        """End the last segment; return the repeat's wall time without the
        kernel's."""
        self.segments.append(time.perf_counter() - self._last)
        return sum(self.segments)


def run_workload(workload: str, seed: int, tiny: bool, work: Path, segmented: bool) -> dict:
    """Run one repeat of a workload; return its measurements and outputs."""
    import contextlib
    import hashlib
    import io
    import json
    import resource
    import shutil
    from collections import defaultdict

    from limitgen import cli, experiments
    from spec import PLANS, TINY_HORIZON

    subruns: dict[str, int] = defaultdict(int)
    steps = 0
    segmenter = Segmenter(cut=segmented)

    def tally(ident: str, subs) -> None:
        nonlocal steps
        subruns[ident] += len(subs)
        steps += sum(len(sub.records) for sub in subs)

    trace = {"trace_files": 0, "trace_bytes": 0, "trace_digest": None}
    if workload == "suite":
        trace_dir = work / "trace"
        summary = work / "summary.json"
        argv = ["--experiment", "all", "--trace", str(trace_dir), "--summary", str(summary), "--seed", str(seed)]
        if tiny:
            argv += ["--horizon", str(TINY_HORIZON)]
        inner = cli.run_experiment

        def counted(ident, *args, **kwargs):
            rows, subs = inner(ident, *args, **kwargs)
            tally(ident, subs)
            return rows, subs

        cli.run_experiment = counted
        segmenter.start()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall = segmenter.stop()
        with open(summary) as fp:
            rows = {r["experiment"]: [r["passed"], r["mistakes"], r["convergence"]] for r in json.load(fp)["rows"]}
        digest = hashlib.sha256()
        files = sorted(trace_dir.iterdir()) if trace_dir.is_dir() else []
        for path in files:
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            trace["trace_bytes"] += len(data)
        trace["trace_files"] = len(files)
        trace["trace_digest"] = digest.hexdigest()
        shutil.rmtree(work, ignore_errors=True)
    else:
        rows = {}
        segmenter.start()
        for ident, horizon in PLANS[workload]:
            out_rows, subs = experiments.run_experiment(
                ident, horizon=TINY_HORIZON if tiny else horizon, seed=seed
            )
            tally(ident, subs)
            rows.update({r.experiment: [r.passed, r.mistakes, r.convergence] for r in out_rows})
            del out_rows, subs
        wall = segmenter.stop()
        rc = 0 if all(r[0] for r in rows.values()) else 1
    return {
        "wall_s": wall,
        "steps": steps,
        "subruns": dict(subruns),
        "rows": rows,
        "rc": rc,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **trace,
        **({"segments_s": segmenter.segments, "kernels_s": segmenter.kernels} if segmented else {}),
    }


# --- horizon-scaling probe -------------------------------------------------


def probe_case(strategy: str):
    """A fresh (generator, source, mode) for one representative sub-run of
    `strategy`, drawn from the experiment that uses it."""
    from limitgen import engine, families, feedback, generators, sources
    from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from

    Mode = engine.Mode

    def scripted(truth, **kwargs):
        return sources.ScriptedSource(sources.ScriptedSpec(truth, **kwargs))

    def neg_stream():
        return generators.intersection_generator(families.neg_union())

    cases = {
        "FollowSuffix": lambda: (
            generators.FollowSuffix(),
            scripted(ClosedFormLanguage(frozenset({-7, -2, 4}), 9, False)),
            Mode.standard(),
        ),
        "MaxPlusOne": lambda: (generators.MaxPlusOne(), sources.staged_union_adversary(), Mode.standard()),
        "MinMinusOne": lambda: (generators.MinMinusOne(), sources.staged_union_adversary(), Mode.standard()),
        "OmissionTolerantGenerator": lambda: (
            generators.OmissionTolerantGenerator(1),
            sources.omission_adversary(1),
            Mode.standard(),
        ),
        "NoiseTolerantGenerator": lambda: (
            generators.NoiseTolerantGenerator(1),
            sources.noise_prefix_adversary(1),
            Mode.standard(),
        ),
        "SensitivityGenerator": lambda: (
            generators.SensitivityGenerator(1),
            sources.sensitivity_adversary(),
            Mode.standard(),
        ),
        "StreamGenerator": lambda: (
            neg_stream(),
            scripted(ClosedFormLanguage(frozenset({3, 7}), None, True)),
            Mode.standard(),
        ),
        "NoisyFromStream": lambda: (
            generators.noisy_from_sampleless(neg_stream()),
            scripted(ClosedFormLanguage(frozenset({-9, 2}), None, True), noise=((0, 5), (3, 6), (5, 11))),
            Mode.noisy(3),
        ),
        "SamplelessFromNoisy": lambda: (
            generators.SamplelessFromNoisy(generators.noisy_from_sampleless(neg_stream())),
            scripted(NEGATIVES),
            Mode.sampleless(),
        ),
        "DedupWrapper": lambda: (
            generators.DedupWrapper(generators.FollowSuffix()),
            scripted(ClosedFormLanguage(frozenset({-3}), 4, False), repeat_seed=0),
            Mode.repetition(),
        ),
        "PrefixedGenerator": lambda: (
            generators.reduce_by_prefix(generators.FollowSuffix(), (0, 1, 2)),
            scripted(suffix_from(3)),
            Mode.standard(),
        ),
        "ChainGenerator": lambda: (
            generators.ChainGenerator(families.ray_prefix_chain()),
            scripted(suffix_from(7)),
            Mode.sampleless(),
        ),
        "UnionFeedbackGenerator": lambda: (
            feedback.UnionFeedbackGenerator(
                [families.neg_union()] + [families.SuffixFamily(offset=j) for j in range(10)]
            ),
            scripted(ClosedFormLanguage(frozenset({-30}), 5, False)),
            Mode.feedback(),
        ),
        "PlainAsFeedback": lambda: (
            feedback.PlainAsFeedback(generators.FollowSuffix()),
            scripted(suffix_from(0)),
            Mode.feedback(),
        ),
        "OneShotProbeGenerator": lambda: (
            feedback.OneShotProbeGenerator(probe=-1),
            scripted(ClosedFormLanguage(frozenset({5}), None, True)),
            Mode.feedback(budget=1),
        ),
        "StripQueries": lambda: (
            feedback.StripQueries(feedback.OneShotProbeGenerator(probe=-1)),
            scripted(suffix_from(3)),
            Mode.standard(),
        ),
        "IndexIdentifier": lambda: (
            feedback.IndexIdentifier(
                families.ExplicitCountable(languages=(suffix_from(0), suffix_from(5), suffix_from(9)))
            ),
            scripted(suffix_from(9)),
            Mode.identification(),
        ),
    }
    return cases[strategy]


def run_probe(strategy: str, horizon: int, repeats: int) -> dict:
    """Peak traced bytes of one run, then the least time of `repeats` runs.

    The memory run goes first, while the process is fresh; the timed runs
    that follow may find `families._RAY_POOL` warm, as every run after the
    first in a process does.
    """
    import tracemalloc

    from limitgen import engine

    build = probe_case(strategy)
    tracemalloc.start()
    engine.run(*build(), horizon)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    times = []
    for _ in range(repeats):
        generator, source, mode = build()
        start = time.perf_counter()
        engine.run(generator, source, mode, horizon)
        times.append(time.perf_counter() - start)
    return {"mem": peak, "time": min(times)}


def main(argv: list[str]) -> int:
    ready = _import_limitgen()
    import argparse
    import json

    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=("setup", "run", "traced", "probe"), required=True)
    p.add_argument("--spawned-at", type=float, default=None)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--work", type=Path)
    p.add_argument("--strategy")
    p.add_argument("--horizon", type=int)
    p.add_argument("--repeats", type=int, default=1)
    args = p.parse_args(argv)

    out: dict = {}
    if args.spawned_at is not None:
        out["setup_s"] = ready - args.spawned_at
    if args.mode == "probe":
        out.update(run_probe(args.strategy, args.horizon, args.repeats))
    elif args.mode in ("run", "traced"):
        tracer = None
        if args.mode == "traced":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        out.update(run_workload(args.workload, args.seed, args.tiny, args.work, tracer is None))
        if tracer is not None:
            out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
