"""Spans and counters around limitgen's public functions.

The traced run installs these wrappers from the benchmark's own files, in a
fresh interpreter, before the workload starts; nothing under `src/` knows
about them. A span records calls, inclusive time and self time (its time
minus the time its child spans cover). Spans are aggregated by name as they
close instead of being kept one by one, because a workload closes millions
of them. A counter records calls only, for functions too hot or too small
to time.
"""

from __future__ import annotations

import functools
import time
import weakref
from collections import defaultdict
from typing import Callable

from spec import TRACED_GENERATORS


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = defaultdict(int)
        self.violations = 0  # spans whose children took longer than they did
        self._stack = [0.0]  # per open span: time covered by its closed children

    def span(self, name: str, fn: Callable, after: Callable | None = None, depth: list | None = None) -> Callable:
        """Time every call of `fn` as span `name`; `after(args, result)` runs
        once the span has closed; `depth[0]` is raised while the call runs."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth is not None:
                depth[0] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                stack[-1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - inner
                if inner > elapsed:
                    self.violations += 1
                if depth is not None:
                    depth[0] -= 1
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn: Callable, when: list | None = None) -> Callable:
        """Count the calls of `fn` (only while `when[0]` is non-zero, if given)."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or when[0]:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap the public entry points of every limitgen layer."""
        from limitgen import cli, engine, experiments, families, feedback, generators, langs, sources

        counts = self.counts

        def add(name: str, value: int) -> None:
            counts[name] += value

        cli.main = self.span("cli.main", cli.main)
        run_experiment = self.span(
            "experiments.run_experiment",
            experiments.run_experiment,
            after=lambda args, out: add("experiments.subruns", len(out[1])),
        )
        experiments.run_experiment = run_experiment
        cli.run_experiment = run_experiment

        def after_run(args, out) -> None:
            records, result = out
            add("engine.steps", len(records))
            add("sources.staged.certified_mistakes", len(result.certified_mistake_times))

        engine.run = self.span("engine.run", engine.run, after=after_run)
        engine.verdict = self.span("engine.verdict", engine.verdict)
        engine.validate_stream = self.span("engine.validate_stream", engine.validate_stream)
        engine.oracle_answer = self.counter("engine.oracle_calls", engine.oracle_answer)
        engine.write_trace = self.span(
            "engine.write_trace",
            engine.write_trace,
            after=lambda args, out: add("engine.trace_steps", len(args[2])),
        )

        sources.ScriptedSource.emit = self.span("sources.scripted.emit", sources.ScriptedSource.emit)
        sources.StagedAdversary.emit = self.span("sources.staged.emit", sources.StagedAdversary.emit)
        sources.StagedAdversary.observe = self.span("sources.staged.observe", sources.StagedAdversary.observe)

        for name in TRACED_GENERATORS:
            cls = getattr(generators, name)
            cls.step = self.span(f"generators.{name}.step", cls.step)

        # Replay steps are the step_query calls any feedback strategy receives
        # while StripQueries.step is running.
        in_strip = [0]
        for cls in vars(feedback).values():
            if isinstance(cls, type) and issubclass(cls, feedback.FeedbackGenerator) and "step_query" in vars(cls):
                cls.step_query = self.counter("feedback.replay_steps", cls.step_query, when=in_strip)
        feedback.StripQueries.step = self.span(
            "feedback.StripQueries.step", feedback.StripQueries.step, depth=in_strip
        )
        feedback.IndexIdentifier.step_output = self.span(
            "feedback.IndexIdentifier.step_output", feedback.IndexIdentifier.step_output
        )
        union = feedback.UnionFeedbackGenerator
        union.step_query = self.span("feedback.UnionFeedbackGenerator.step_query", union.step_query)
        union.step_output = self.span("feedback.UnionFeedbackGenerator.step_output", union.step_output)

        for cls in vars(families).values():
            if isinstance(cls, type) and issubclass(cls, families.CollectionSpec):
                if "closure" in vars(cls):
                    cls.closure = self.span("families.closure", cls.closure)
                if "consistent" in vars(cls):
                    cls.consistent = self.counter("families.consistent_calls", cls.consistent)
        links: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        chain_at = families.ChainSpec.at

        def at(chain, i):
            seen = links.setdefault(chain, set())
            if i not in seen:
                seen.add(i)
                counts["families.chain_links"] += 1
            return chain_at(chain, i)

        families.ChainSpec.at = at
        families.ChainSpec.intersection_at = self.span(
            "families.intersection_at", families.ChainSpec.intersection_at
        )

        lang = langs.ClosedFormLanguage
        lang.__contains__ = self.counter("langs.contains_calls", lang.__contains__)
        elements = lang.elements

        def counted_elements(language):
            counts["langs.elements_iters"] += 1
            for value in elements(language):
                counts["langs.elements_drawn"] += 1
                yield value

        lang.elements = counted_elements

    # --- report ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.spans.get(name, [0])[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0])[1]

    def own(self, name: str) -> float:
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def us_per_call(self, name: str) -> float:
        calls = self.calls(name)
        return self.total(name) / calls * 1e6 if calls else 0.0

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, name -> (value, unit).

        Layer self times partition the CLI's time: `cli.self_s` is cli.main
        minus its child spans, `experiments.self_s` is run_experiment minus
        engine.run (so the runner's own calls into sources and strategies, as
        in `_first_reveal` and `_part_trajectory`, count as the runner's), and
        engine.run's self time excludes the component calls it makes.
        """
        c = self.counts
        steps = c["engine.steps"]
        per_step = lambda seconds: seconds / steps * 1e6 if steps else 0.0
        trace_steps = c["engine.trace_steps"]
        replay = c["feedback.replay_steps"]
        m: dict[str, tuple[float, str]] = {
            "cli.self_s": (self.own("cli.main"), "s"),
            "experiments.self_s": (
                self.total("experiments.run_experiment") - self.total("engine.run"),
                "s",
            ),
            "experiments.subruns": (c["experiments.subruns"], "count"),
            "engine.steps": (steps, "count"),
            "engine.run_self_us_per_step": (per_step(self.own("engine.run")), "us"),
            "engine.verdict_us_per_call": (self.us_per_call("engine.verdict"), "us"),
            "engine.validate_us_per_step": (per_step(self.total("engine.validate_stream")), "us"),
            "engine.oracle_calls": (c["engine.oracle_calls"], "count"),
            "engine.write_trace_us_per_step": (
                self.total("engine.write_trace") / trace_steps * 1e6 if trace_steps else 0.0,
                "us",
            ),
            "sources.scripted.emit_us_per_call": (self.us_per_call("sources.scripted.emit"), "us"),
            "sources.staged.emit_us_per_call": (self.us_per_call("sources.staged.emit"), "us"),
            "sources.staged.observe_us_per_call": (self.us_per_call("sources.staged.observe"), "us"),
            "sources.staged.certified_mistakes": (c["sources.staged.certified_mistakes"], "count"),
        }
        for name in TRACED_GENERATORS:
            span = f"generators.{name}.step"
            m[f"{span}_us_per_call"] = (self.us_per_call(span), "us")
            m[f"{span}_calls"] = (self.calls(span), "count")
        strip_calls = self.calls("feedback.StripQueries.step")
        m.update(
            {
                "feedback.StripQueries.step_us_per_call": (self.us_per_call("feedback.StripQueries.step"), "us"),
                "feedback.replay_steps": (replay, "count"),
                "feedback.replay_useful_ratio": (strip_calls / replay if replay else 0.0, "ratio"),
                "feedback.IndexIdentifier.step_output_us_per_call": (
                    self.us_per_call("feedback.IndexIdentifier.step_output"),
                    "us",
                ),
                "feedback.UnionFeedbackGenerator.step_query_us_per_call": (
                    self.us_per_call("feedback.UnionFeedbackGenerator.step_query"),
                    "us",
                ),
                "feedback.UnionFeedbackGenerator.step_output_us_per_call": (
                    self.us_per_call("feedback.UnionFeedbackGenerator.step_output"),
                    "us",
                ),
                "families.closure_calls": (self.calls("families.closure"), "count"),
                "families.closure_us_per_call": (self.us_per_call("families.closure"), "us"),
                "families.consistent_calls": (c["families.consistent_calls"], "count"),
                "families.chain_links": (c["families.chain_links"], "count"),
                "families.intersection_at_us_per_call": (self.us_per_call("families.intersection_at"), "us"),
                "langs.contains_calls": (c["langs.contains_calls"], "count"),
                "langs.elements_iters": (c["langs.elements_iters"], "count"),
                "langs.elements_drawn": (c["langs.elements_drawn"], "count"),
                "tracing.span_violations": (self.violations, "count"),
            }
        )
        return m
