"""Acceptance suite: one test per desk-scale criterion.

Each test prints a [PASS]/[FAIL] line for its criterion. Most delegate to
the registered experiments (which carry their own assertions) and then
re-check the criterion's stated thresholds on the returned results.
"""

import io
import time

import pytest

from limitgen import engine
from limitgen.engine import Mode
from limitgen.experiments import (
    _CLASSIFIED_COLLECTIONS,
    EXPERIMENTS,
    run_experiment,
)
from limitgen.families import uniform_without_samples_check
from limitgen.generators import FollowSuffix
from limitgen.langs import ClosedFormLanguage
from limitgen.sources import ScriptedSource, ScriptedSpec

from oracles import brute_closure_window, members_in, minimal_traces, steps


def _report(criterion: str, failures: list[str]) -> None:
    tag = "PASS" if not failures else "FAIL"
    print(f"[{tag}] {criterion}")
    assert not failures, failures


def _run_all(ident: str, **kwargs):
    rows, subs = run_experiment(ident, **kwargs)
    failures = [f"{r.experiment}: {r.detail}" for r in rows if not r.passed]
    return rows, subs, failures


def test_criterion_01_suffix_positive_direction():
    failures = []
    cases = [
        (frozenset(), 0),
        (frozenset({-3}), 2),
        (frozenset({-7, -2, 4}), 9),
        (frozenset({-20, 13}), 25),
        (frozenset({-1}), 50),
    ]
    for a_part, j in cases:
        truth = ClosedFormLanguage(a_part, j, False)
        bound = j + len([v for v in a_part if -20 <= v <= 20])
        for order in ["canonical"] + [f"blocks:{k}" for k in range(5)]:
            src = ScriptedSource(ScriptedSpec(truth, order=order))
            started = time.perf_counter()
            records, result = engine.run(FollowSuffix(), src, Mode.standard(), 1_000)
            elapsed = time.perf_counter() - started
            late = [r.t for r in steps(records) if r.t >= bound and r.verdict != engine.CORRECT]
            if late:
                failures.append(f"j={j},{order}: mistakes at {late[:3]}")
            if elapsed >= 1.0:
                failures.append(f"j={j},{order}: run took {elapsed:.2f}s")
    _report("criterion 1: suffix-target strategy converges by its bound", failures)


def test_criterion_02_staged_union_defeats_baselines():
    rows, subs, failures = _run_all("thm3.1")
    if len(rows) != 3:
        failures.append("expected the three victim strategies")
    for sub in subs:
        if len(sub.result.certified_mistake_times) < 10:
            failures.append(f"{sub.name}: fewer than 10 certified mistakes")
    prefix = next(
        tuple(sub.result.certified_mistake_times[:10])
        for sub in subs
        if "max_plus_one" in sub.name
    )
    if prefix != tuple(range(0, 20, 2)):
        failures.append(f"ascender mistake prefix {prefix}")
    _report("criterion 2: staged union adversary certifies 10+ mistakes", failures)


def test_criterion_03_noisy_sampleless_equivalence():
    rows, subs, failures = _run_all("alg1-2-equiv")
    noisy_runs = [s for s in subs if s.name.startswith("alg1[")]
    if len(noisy_runs) < 10:
        failures.append(f"only {len(noisy_runs)} noisy runs")
    for sub in noisy_runs:
        if sub.header["source"]["noise"] and len(sub.header["source"]["noise"]) > 5:
            failures.append(f"{sub.name}: noise budget above 5")
        late = [t for t in sub.result.mistake_times if t >= 20]
        if late:
            failures.append(f"{sub.name}: mistakes at {late[:3]} past t=20")
    _report("criterion 3: noisy-from-stream play and the round trip hold", failures)


def test_criterion_04_core_check_agrees_with_brute_force():
    failures = []
    lo, hi = -20, 20
    wider = (-25, 25)
    samples = [frozenset(), frozenset({0}), frozenset({-3, 5}), frozenset({1, 2, -7})]
    for name, build, expected in _CLASSIFIED_COLLECTIONS:
        spec = build()
        got = uniform_without_samples_check(spec)
        if got != expected:
            failures.append(f"{name}: analytic check flipped")
            continue
        brute = brute_closure_window(spec, frozenset(), lo, hi)
        analytic = members_in(spec.intersection(), range(lo, hi + 1))
        if frozenset(analytic) != brute:
            failures.append(f"{name}: window core mismatch")
        brute_wide = brute_closure_window(spec, frozenset(), *wider)
        if got and len(brute_wide) <= len(brute):
            failures.append(f"{name}: claimed infinite but the window core stopped growing")
        if not got and len(brute_wide) != len(brute):
            failures.append(f"{name}: claimed finite but the window core grew")
        # spot-check consistency and closures against minimal-language traces
        for sample in samples:
            traces = minimal_traces(spec, sample, lo, hi)
            try:
                agree = (spec.closure(sample) is not None) == (traces is not None)
            except Exception:  # rule-based unknowns would surface here
                agree = False
            if not agree:
                failures.append(f"{name}: consistency mismatch on {sorted(sample)}")
    _report("criterion 4: infinite-core oracle matches window brute force", failures)


def test_criterion_05_omission_insensitivity():
    rows, subs, failures = _run_all("thm4.5-omissions")
    if len(subs) < 20:
        failures.append(f"only {len(subs)} configurations")
    for sub in subs:
        if sub.result.mistakes:
            failures.append(f"{sub.name}: {sub.result.mistakes} mistakes")
    _report("criterion 5: converged strategies survive omissions", failures)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_criterion_06_omission_hierarchy(level):
    rows, subs, failures = _run_all("thm4.8-omit-i", params={"i": level})
    positives = [s for s in subs if "adv" not in s.name]
    if len(positives) < 10:
        failures.append(f"only {len(positives)} scripted sources")
    adversary = next(s for s in subs if "adv" in s.name)
    defeated = len(adversary.result.certified_mistake_times) + adversary.result.final_stage_mistakes
    if defeated < 10:
        failures.append("adversary did not defeat the matching tolerance")
    _report(f"criterion 6 (i={level}): omission tolerance is sharp", failures)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_criterion_07_noise_hierarchy(level):
    rows, subs, failures = _run_all("thm5.2-noise-i", params={"i": level})
    positives = [s for s in subs if "adv" not in s.name]
    if len(positives) < 10:
        failures.append(f"only {len(positives)} scripted sources")
    _report(f"criterion 7 (i={level}): noise tolerance is sharp", failures)


def test_criterion_08_noise_sensitivity():
    rows, subs, failures = _run_all("thm5.4-sensitivity")
    if len(rows) != 5:
        failures.append("expected levels 0..4")
    _report("criterion 8: unknown noise defeats every fixed level", failures)


def test_criterion_09_feedback_union():
    rows, subs, failures = _run_all("alg4-feedback")
    if len(subs) < 20:
        failures.append(f"only {len(subs)} (target, order) pairs")
    _report("criterion 9: one feedback strategy covers the whole union", failures)


def test_criterion_10_query_elimination():
    rows, subs, failures = _run_all("alg5-queries")
    _report("criterion 10: query-free simulation matches, tree never regresses", failures)


def test_criterion_11_identification():
    rows, subs, failures = _run_all("alg6-identify")
    _report("criterion 11: identifier stabilizes at the least correct index", failures)


def test_criterion_12_repetition_equivalence():
    rows, subs, failures = _run_all("appendixA-repetition")
    wrapped = [s for s in subs if "seed=" in s.name]
    if len(wrapped) != 20:
        failures.append(f"expected 10 seeds per strategy, saw {len(wrapped)} runs")
    _report("criterion 12: repetition play matches repetition-free play", failures)


def _suite_traces() -> tuple[bytes, float]:
    started = time.perf_counter()
    chunks = []
    for ident in sorted(EXPERIMENTS):
        rows, subs = run_experiment(ident)
        assert all(r.passed for r in rows), ident
        for sub in subs:
            buf = io.StringIO()
            engine.write_trace(buf, sub.header, sub.records, sub.result)
            chunks.append(f"== {sub.name}\n{buf.getvalue()}")
    return "".join(chunks).encode(), time.perf_counter() - started


def test_criterion_13_determinism_and_runtime():
    failures = []
    first, t1 = _suite_traces()
    second, t2 = _suite_traces()
    if first != second:
        failures.append("traces differ between identical runs")
    if t1 + t2 >= 60:
        failures.append(f"two full suites took {t1 + t2:.1f}s")
    _report("criterion 13: full suite deterministic and fast", failures)
