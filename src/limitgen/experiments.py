"""Named experiments: wire a generator, a source, and a mode; run; assert.

Each registered id reproduces one separation or construction at desk scale
and asserts its finite-horizon witness: positive directions assert zero
mistakes past an analytic step, negative directions assert enough certified
(or final-stage) mistakes. Experiment ids are stable config keys.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import engine
from .engine import Mode, RunResult, StepRecord
from .families import (
    ExplicitCountable,
    marked_neg_union,
    marked_suffix_union,
    marked_union,
    neg_union,
    ray_family,
    ray_prefix_chain,
    sensitivity_collection,
    suffix_union,
    SuffixFamily,
    uniform_without_samples_check,
)
from .feedback import (
    IndexIdentifier,
    OneShotProbeGenerator,
    StripQueries,
    UnionFeedbackGenerator,
)
from .generators import (
    ChainGenerator,
    DedupWrapper,
    FollowSuffix,
    NoiseTolerantGenerator,
    OmissionTolerantGenerator,
    SensitivityGenerator,
    baseline,
    intersection_generator,
    noisy_from_sampleless,
    SamplelessFromNoisy,
)
from .langs import NEGATIVES, ClosedFormLanguage, suffix_from
from .sources import ScriptedSource, ScriptedSpec
from .sources import (
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)

MIN_CERTIFIED = 10


@dataclass
class SubRun:
    """One engine run plus everything needed to write its trace."""

    name: str
    header: dict
    records: list[StepRecord]
    result: RunResult


@dataclass
class SummaryRow:
    experiment: str
    passed: bool
    mistakes: int
    convergence: int
    runtime: float
    detail: str = ""

    def to_record(self) -> dict:
        return {
            "experiment": self.experiment,
            "passed": self.passed,
            "mistakes": self.mistakes,
            "convergence": self.convergence,
            "runtime": round(self.runtime, 6),
            "detail": self.detail,
        }


@dataclass(frozen=True)
class Experiment:
    ident: str
    description: str
    default_horizon: int
    runner: Callable[[int, int, dict], tuple[list[str], list[SubRun]]]
    matrix_key: str | None = None  # config param that may carry a value list


def _scripted(
    truth: ClosedFormLanguage,
    order: str = "canonical",
    omissions=frozenset(),
    noise: Sequence[tuple[int, int]] = (),
    repeat_seed: int | None = None,
) -> ScriptedSource:
    return ScriptedSource(ScriptedSpec(truth, order, omissions, tuple(noise), repeat_seed))


def _run_subrun(
    name: str,
    generator,
    source,
    mode: Mode,
    horizon: int,
    extra_header: dict | None = None,
) -> SubRun:
    records, result = engine.run(generator, source, mode, horizon)
    header = {
        "run": name,
        "mode": mode.to_record(),
        "horizon": horizon,
        "truth": engine.truth_record(source.truth_view()),
    }
    if isinstance(source, ScriptedSource):
        header["source"] = source.spec.to_record()
    if extra_header:
        header.update(extra_header)
    return SubRun(name, header, records, result)


def _mistakes_from(records: list[StepRecord], start: int) -> list[int]:
    return [r.t for r in records if r.t >= start and r.verdict == engine.MISTAKE]


def _defeated(result: RunResult) -> int:
    """Certified mistakes plus every step of a never-triggered final stage."""
    return len(result.certified_mistake_times) + result.final_stage_mistakes


def _first_reveal(source: ScriptedSource, horizon: int, want: Callable[[set[int]], bool]) -> int | None:
    seen: set[int] = set()
    for t in range(horizon):
        seen.add(source.emit(t))
        if want(seen):
            return t
    return None


# --- positive/negative checks shared by several experiments ----------------


def _check_zero_mistakes_from(records, t_star: int, failures: list[str], label: str) -> None:
    bad = _mistakes_from(records, t_star)
    if bad:
        failures.append(f"{label}: mistakes at {bad[:5]} despite t*={t_star}")


def _check_defeat(result: RunResult, failures: list[str], label: str, minimum: int = MIN_CERTIFIED) -> None:
    if _defeated(result) < minimum:
        failures.append(
            f"{label}: only {_defeated(result)} certified/stage mistakes (< {minimum})"
        )


# --- experiment runners -----------------------------------------------------


def union_generator(name: str):
    """The strategy `thm3.1` plays for one of its `generators` names: a
    baseline name or `omission:<level>`. Raises ValueError on any other."""
    if name.startswith("omission:"):
        level = name.removeprefix("omission:")
        if not (level.isascii() and level.isdecimal()):
            raise ValueError(f"omission level must be a non-negative integer, got {name!r}")
        return OmissionTolerantGenerator(int(level))
    return baseline(name)


def _run_union_defeat(horizon: int, seed: int, params: dict):
    name = params.get("generator", "max_plus_one")
    adversary = staged_union_adversary()
    sub = _run_subrun(f"thm3.1[{name}]", union_generator(name), adversary, Mode.standard(), horizon)
    failures: list[str] = []
    certified = len(sub.result.certified_mistake_times)
    if certified < MIN_CERTIFIED:
        failures.append(f"{name}: only {certified} certified mistakes")
    if sub.result.validity_violations:
        failures.append(f"stream violations: {sub.result.validity_violations[:3]}")
    emitted = set(adversary.emitted)
    missing = [v for v in range(-1, -11, -1) if v not in emitted]
    if missing:
        failures.append(f"negatives not all emitted: {missing}")
    if name == "max_plus_one":
        expect = tuple(range(0, 2 * MIN_CERTIFIED, 2))
        got = sub.result.certified_mistake_times[: len(expect)]
        if got != expect:
            failures.append(f"mistake prefix {got} != {expect}")
    return failures, [sub]


def _run_follow_suffix_positive(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    cases = [
        (frozenset(), 0),
        (frozenset({-3}), 2),
        (frozenset({-7, -2, 4}), 9),
        (frozenset({-20, 13}), 25),
        (frozenset({-1}), 50),
    ]
    orders = ["canonical"] + [f"blocks:{seed + k}" for k in range(5)]
    for a_part, j in cases:
        truth = ClosedFormLanguage(a_part, j, False)
        bound = j + len([v for v in a_part if -20 <= v <= 20])
        for order in orders:
            src = _scripted(truth, order=order)
            sub = _run_subrun(
                f"thm3.1-pos[j={j},{order}]", FollowSuffix(), src, Mode.standard(), horizon
            )
            subs.append(sub)
            _check_zero_mistakes_from(sub.records, bound, failures, sub.name)
    return failures, subs


def _run_noisy_sampleless_equiv(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    # skip-seen play over the negatives stream, against noisy enumerations
    neg_cases = [
        (ClosedFormLanguage(frozenset({7}), None, True), ((0, 3), (2, 12))),
        (NEGATIVES, ((1, 4),)),
        (ClosedFormLanguage(frozenset({-9, 2}), None, True), ((0, 5), (3, 6), (5, 11))),
        (ClosedFormLanguage(frozenset({0}), None, True), ()),
        (ClosedFormLanguage(frozenset({42}), None, True), ((4, 1), (6, 2), (8, 3), (10, 5), (12, 7))),
    ]
    for idx, (truth, noise) in enumerate(neg_cases):
        gen = noisy_from_sampleless(intersection_generator(neg_union()))
        src = _scripted(truth, noise=noise)
        sub = _run_subrun(
            f"alg1[C2,case{idx}]", gen, src, Mode.noisy(len(noise)), horizon
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, 20, failures, sub.name)
    # the same play over the chain stream, against ray targets
    chain = ray_prefix_chain()
    ray_cases = [
        (suffix_from(3), ((0, -5),)),
        (suffix_from(0), ((1, -2), (3, -4))),
        (suffix_from(11), ((0, -1), (1, -3), (2, -6), (3, -8), (4, -9))),
        (suffix_from(7), ()),
        (suffix_from(15), ((2, -11),)),
    ]
    for idx, (truth, noise) in enumerate(ray_cases):
        gen = noisy_from_sampleless(ChainGenerator(chain))
        src = _scripted(truth, noise=noise)
        sub = _run_subrun(
            f"alg1[chain,case{idx}]", gen, src, Mode.noisy(len(noise)), horizon
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, 20, failures, sub.name)
    # round trip: rebuild a sampleless stream from the skip-seen strategy
    base = noisy_from_sampleless(intersection_generator(neg_union()))
    roundtrip = SamplelessFromNoisy(base, integer_universe=True)
    outputs = [roundtrip.step(None) for _ in range(10_000)]
    if len(set(outputs)) != len(outputs):
        failures.append("round-trip stream is not injective")
    late = [z for z in outputs[21:] if z >= 0]
    if late:
        failures.append(f"round-trip stream leaves the common core: {late[:5]}")
    return failures, subs


def _run_chain(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    target = int(params.get("target_ray", 7))
    gen = ChainGenerator(ray_prefix_chain())
    src = _scripted(suffix_from(target))
    sub = _run_subrun(f"alg3[P{target}]", gen, src, Mode.sampleless(), horizon)
    if sub.result.observed_convergence > target:
        failures.append(
            f"convergence {sub.result.observed_convergence} exceeds {target}"
        )
    return failures, [sub]


_CLASSIFIED_COLLECTIONS: list[tuple[str, Callable[[], object], bool]] = [
    ("C1", suffix_union, False),
    ("C2", neg_union, True),
    ("C1^i:1", lambda: marked_suffix_union(1), False),
    ("C2^i:1", lambda: marked_neg_union(1), True),
    ("C^i:0", lambda: marked_union(0), False),
    ("C^i:2", lambda: marked_union(2), False),
    ("P-family", ray_family, False),
    ("P:5", lambda: ExplicitCountable(languages=(suffix_from(5),)), True),
    ("P:0+P:5", lambda: ExplicitCountable(languages=(suffix_from(0), suffix_from(5))), True),
    ("sensitivity", sensitivity_collection, False),
]


def _run_core_check(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    for name, build, expected in _CLASSIFIED_COLLECTIONS:
        got = uniform_without_samples_check(build())
        if got != expected:
            failures.append(f"{name}: infinite-core check returned {got}, expected {expected}")
    return failures, []


def _run_omission_insensitivity(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    truths = [
        ClosedFormLanguage(frozenset({7}), None, True),
        ClosedFormLanguage(frozenset({-3, 4}), None, True),
        NEGATIVES,
    ]
    omission_variants: list = [frozenset(), "one", "every_other"]
    orders = ["canonical", f"blocks:{seed}"]
    for truth in truths:
        for variant in omission_variants:
            omissions = variant
            if variant == "one":
                omissions = frozenset({next(iter(truth.elements()))})
            for order in orders:
                mode = (
                    Mode.lossy("infinite")
                    if variant == "every_other"
                    else Mode.lossy(len(omissions))
                )
                gen = noisy_from_sampleless(intersection_generator(neg_union()))
                src = _scripted(truth, order=order, omissions=omissions)
                name = f"thm4.5[stream,{variant},{order},{truth.to_record()['finite_part']}]"
                sub = _run_subrun(name, gen, src, mode, horizon)
                subs.append(sub)
                _check_zero_mistakes_from(sub.records, 0, failures, name)
                fgen = UnionFeedbackGenerator([neg_union()])
                fsrc = _scripted(truth, order=order, omissions=omissions)
                fname = name.replace("stream", "union1")
                fsub = _run_subrun(fname, fgen, fsrc, Mode.feedback(), horizon)
                subs.append(fsub)
                _check_zero_mistakes_from(fsub.records, 0, failures, fname)
    return failures, subs


def _marked_suffix_truth(level: int, a_part: frozenset[int], j: int) -> ClosedFormLanguage:
    return ClosedFormLanguage(frozenset(range(level + 1)) | a_part, j, False)


def _omission_sources(level: int, seed: int) -> list[tuple[ScriptedSource, int]]:
    """(source, analytic t*) pairs for play with <= level omissions."""
    markers = frozenset(range(level + 1))
    cases: list[tuple[ScriptedSource, int]] = []
    suffix_shapes = [
        (frozenset(), level + 1),
        (frozenset({-4}), level + 3),
        (frozenset({-9, -2}), 2 * level + 4),
        (frozenset({-15}), level + 2),
        (frozenset({-3, -11, level + 6}), level + 5),
    ]
    horizon_probe = 4000
    for a_part, j in suffix_shapes:
        truth = _marked_suffix_truth(level, a_part, j)
        omission_sets = [frozenset()]
        if level >= 1:
            omission_sets.append(frozenset(range(level)))  # all but one marker
            if a_part:
                omission_sets.append(frozenset({min(a_part)}))
        for omissions in omission_sets:
            src = _scripted(truth, omissions=omissions)
            t_marker = _first_reveal(src, horizon_probe, lambda s: bool(s & markers))
            src = _scripted(truth, omissions=omissions)  # replay from the start
            cases.append((src, max(j, horizon_probe if t_marker is None else t_marker)))
    neg_shapes = [
        frozenset({level + 5}),
        frozenset({-6, level + 2}),
        frozenset(),
        frozenset({level + 9, -13}),
        frozenset({2 * level + 4}),
    ]
    for a_part in neg_shapes:
        truth = ClosedFormLanguage(a_part, None, True)
        omissions = frozenset({min(a_part)}) if a_part and level >= 1 else frozenset()
        cases.append((_scripted(truth, omissions=omissions), 0))
    return cases


def _run_omission_hierarchy(horizon: int, seed: int, params: dict):
    level = int(params["i"])
    failures: list[str] = []
    subs: list[SubRun] = []
    for idx, (src, t_star) in enumerate(_omission_sources(level, seed)):
        gen = OmissionTolerantGenerator(level)
        n_omit = len(src.spec.omissions)
        sub = _run_subrun(
            f"thm4.8[i={level},src{idx}]", gen, src, Mode.lossy(n_omit), min(horizon, 2000)
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, t_star, failures, sub.name)
    adversary = omission_adversary(level)
    sub = _run_subrun(
        f"thm4.8-adv[i={level}]",
        OmissionTolerantGenerator(level),
        adversary,
        Mode.standard(),
        horizon,
    )
    subs.append(sub)
    _check_defeat(sub.result, failures, sub.name)
    if any(v in adversary.emitted_set for v in range(level + 1)):
        failures.append(f"adversary emitted an omitted marker (i={level})")
    return failures, subs


def _noise_sources(level: int, seed: int) -> list[tuple[ScriptedSource, int]]:
    markers = frozenset(range(level + 1))
    cases: list[tuple[ScriptedSource, int]] = []
    horizon_probe = 4000
    one_if_noisy = 1 if level >= 1 else 0
    suffix_shapes = [
        (frozenset(), level + 1, ()),
        (frozenset({-4}), level + 2, ((0, -15),)[:one_if_noisy]),
        (frozenset({-9, -2}), 2 * level + 3, tuple((k, -20 - k) for k in range(level))),
        (frozenset({-12}), level + 4, ((2, -25),)[:one_if_noisy]),
        (frozenset({-5, level + 7}), level + 3, tuple((2 * k + 1, -30 - k) for k in range(level))),
    ]
    for a_part, j, noise in suffix_shapes:
        truth = _marked_suffix_truth(level, a_part, j)
        src = _scripted(truth, noise=noise)
        t_marked = _first_reveal(src, horizon_probe, lambda s: markers <= s)
        src = _scripted(truth, noise=noise)
        cases.append((src, max(j, horizon_probe if t_marked is None else t_marked)))
    neg_shapes = [
        (frozenset({level + 5}), ()),
        (frozenset(), tuple((2 * k, k) for k in range(level))),  # markers as noise
        (frozenset({-6, level + 3}), tuple((3 * k + 1, k) for k in range(level))),
        (frozenset({level + 11}), ((1, level + 12),)[:one_if_noisy]),
        (frozenset({-2, -17}), ()),
    ]
    for a_part, noise in neg_shapes:
        truth = ClosedFormLanguage(a_part, None, True)
        cases.append((_scripted(truth, noise=noise), 0))
    return cases


def _run_noise_hierarchy(horizon: int, seed: int, params: dict):
    level = int(params["i"])
    failures: list[str] = []
    subs: list[SubRun] = []
    for idx, (src, t_star) in enumerate(_noise_sources(level, seed)):
        gen = NoiseTolerantGenerator(level)
        sub = _run_subrun(
            f"thm5.2[i={level},src{idx}]",
            gen,
            src,
            Mode.noisy(src.spec.noise_count),
            min(horizon, 2000),
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, t_star, failures, sub.name)
    adversary = noise_prefix_adversary(level)
    sub = _run_subrun(
        f"thm5.2-adv[i={level}]",
        NoiseTolerantGenerator(level),
        adversary,
        Mode.standard(),
        horizon,
    )
    subs.append(sub)
    _check_defeat(sub.result, failures, sub.name)
    if adversary.noise_count() != level + 1:
        failures.append(
            f"adversary emitted {adversary.noise_count()} non-members, wanted {level + 1}"
        )
    return failures, subs


def _run_sensitivity(horizon: int, seed: int, params: dict):
    level = int(params["i"])
    failures: list[str] = []
    subs: list[SubRun] = []
    horizon_probe = 4000
    # ray targets: the strategy stays on the high branch throughout
    for idx, (j, noise) in enumerate(
        [(0, ()), (3, ((0, -2),)[: level and 1]), (9, tuple((k, -3 - k) for k in range(level)))]
    ):
        src = _scripted(suffix_from(j), noise=noise)
        gen = SensitivityGenerator(level)
        sub = _run_subrun(
            f"thm5.4[i={level},ray{idx}]", gen, src, Mode.noisy(len(noise)), min(horizon, 2000)
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, j, failures, sub.name)
    # negative-side targets: correct once all the probe negatives have shown up
    probes = frozenset(range(-1, -(level + 2), -1))
    for idx, a_part in enumerate([frozenset(), frozenset({4}), frozenset({11, 6})]):
        truth = ClosedFormLanguage(a_part, None, True)
        src = _scripted(truth)
        t_probe = _first_reveal(src, horizon_probe, lambda s: probes <= s)
        src = _scripted(truth)
        gen = SensitivityGenerator(level)
        sub = _run_subrun(
            f"thm5.4[i={level},neg{idx}]", gen, src, Mode.noisy(0), min(horizon, 2000)
        )
        subs.append(sub)
        _check_zero_mistakes_from(sub.records, t_probe, failures, sub.name)
    adversary = sensitivity_adversary()
    sub = _run_subrun(
        f"thm5.4-adv[i={level}]",
        SensitivityGenerator(level),
        adversary,
        Mode.standard(),
        horizon,
    )
    subs.append(sub)
    _check_defeat(sub.result, failures, sub.name)
    for stage in adversary.stages[1:]:
        prev = adversary.stages[stage.index - 1]
        if prev.trigger_time is not None and stage.declared_noise_level != prev.trigger_time + 2:
            failures.append(
                f"stage {stage.index} declared noise {stage.declared_noise_level}, "
                f"expected {prev.trigger_time + 2}"
            )
    return failures, subs


def _feedback_parts() -> list:
    return [neg_union()] + [SuffixFamily(offset=j) for j in range(10)]


def _first_part_index(truth: ClosedFormLanguage) -> int:
    norm = truth.normalized()
    if norm.include_negatives:
        return 0
    return norm.tail_start + 1


def _run_feedback_union(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    truths = [
        ClosedFormLanguage(frozenset({3}), None, True),
        NEGATIVES,
        ClosedFormLanguage(frozenset({-1, 5}), None, True),
        suffix_from(0),
        ClosedFormLanguage(frozenset({-2}), 1, False),
        suffix_from(4),
        ClosedFormLanguage(frozenset({-5, -4}), 6, False),
        ClosedFormLanguage(frozenset({2, -8}), 9, False),
        suffix_from(9),
        ClosedFormLanguage(frozenset({-30}), 5, False),
    ]
    orders = ["canonical", f"blocks:{seed + 1}"]
    for truth in truths:
        for order in orders:
            gen = UnionFeedbackGenerator(_feedback_parts())
            src = _scripted(truth, order=order)
            name = f"alg4[{_first_part_index(truth)}:{order}]"
            sub = _run_subrun(name, gen, src, Mode.feedback(), horizon)
            subs.append(sub)
            limit = _first_part_index(truth)
            if gen.part_idx > limit:
                failures.append(
                    f"{name}: reached part {gen.part_idx}, first fit is {limit}"
                )
            # locate the last part switch by replaying the transcript
            switch_steps = [
                r.t
                for r, part_before, part_after in _part_trajectory(sub.records)
                if part_after != part_before
            ]
            last_switch = max(switch_steps, default=-1) + 1
            _check_zero_mistakes_from(sub.records, last_switch, failures, name)
            for r in sub.records:
                if r.y is not None and r.a != (r.y in truth):
                    failures.append(f"{name}: oracle answer mismatch at t={r.t}")
                    break
    return failures, subs


def _part_trajectory(records: list[StepRecord]):
    """Replay the union strategy over a transcript, yielding per-step part moves."""
    probe = UnionFeedbackGenerator(_feedback_parts())
    for r in records:
        before = probe.part_idx
        probe.step_query(r.x)
        probe.step_output(r.a)
        yield r, before, probe.part_idx


def _run_query_elimination(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    truths = [
        ClosedFormLanguage(frozenset({5}), None, True),
        suffix_from(3),
        ClosedFormLanguage(frozenset({-3, 7}), 0, False),
        NEGATIVES,
    ]
    for idx, truth in enumerate(truths):
        oracle_gen = OneShotProbeGenerator(probe=-1)
        oracle_sub = _run_subrun(
            f"alg5-oracle[{idx}]", oracle_gen, _scripted(truth), Mode.feedback(budget=1), horizon
        )
        stripped = StripQueries(OneShotProbeGenerator(probe=-1))
        plain_sub = _run_subrun(
            f"alg5-stripped[{idx}]", stripped, _scripted(truth), Mode.standard(), horizon
        )
        subs.extend([oracle_sub, plain_sub])
        tail = horizon // 2
        oracle_tail = [r.verdict for r in oracle_sub.records[tail:]]
        plain_tail = [r.verdict for r in plain_sub.records[tail:]]
        if oracle_tail != plain_tail:
            first = next(
                t for t, (a, b) in enumerate(zip(oracle_tail, plain_tail)) if a != b
            )
            failures.append(f"alg5[{idx}]: tail verdicts diverge at offset {first}")
        if not stripped.monitor.non_decreasing():
            failures.append(f"alg5[{idx}]: decision-tree position regressed")
    return failures, subs


def _run_identification(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    listed = (suffix_from(0), suffix_from(5), suffix_from(9))
    collection = ExplicitCountable(languages=listed)
    for k, truth in enumerate(listed):
        others = range(k)
        t_bound = max(
            [k]
            + [
                min(
                    n
                    for n in range(100)
                    if (n in listed[j]) != (n in truth)
                )
                for j in others
            ]
        )
        gen = IndexIdentifier(collection)
        sub = _run_subrun(
            f"alg6[k={k}]", gen, _scripted(truth), Mode.identification(), horizon
        )
        subs.append(sub)
        bad = [r.t for r in sub.records if r.t >= t_bound and r.z != k]
        if bad:
            failures.append(f"alg6[k={k}]: wrong index at {bad[:5]} despite t*={t_bound}")
    return failures, subs


def _run_repetition(horizon: int, seed: int, params: dict):
    failures: list[str] = []
    subs: list[SubRun] = []
    cases = [
        ("follow_suffix", lambda: FollowSuffix(), ClosedFormLanguage(frozenset({-3}), 4, False)),
        (
            "neg-stream",
            lambda: intersection_generator(neg_union()),
            ClosedFormLanguage(frozenset({3, 7}), None, True),
        ),
    ]
    for label, make, truth in cases:
        plain = _run_subrun(
            f"appendixA-base[{label}]",
            make(),
            _scripted(truth),
            Mode.standard(),
            horizon,
        )
        base_convergence = plain.result.observed_convergence
        for rep_seed in range(seed, seed + 10):
            wrapped = DedupWrapper(make())
            src = _scripted(truth, repeat_seed=rep_seed)
            sub = _run_subrun(
                f"appendixA[{label},seed={rep_seed}]",
                wrapped,
                src,
                Mode.repetition(),
                horizon,
            )
            subs.append(sub)
            distinct: set[int] = set()
            for r in sub.records:
                distinct.add(r.x)
                if len(distinct) >= base_convergence + 1 and r.verdict != engine.CORRECT:
                    failures.append(f"{sub.name}: mistake at t={r.t} after convergence length")
                    break
        subs.append(plain)
    return failures, subs


# --- registry ---------------------------------------------------------------


def _matrix(values: Iterable[int], key: str, horizon: int, seed: int, params: dict, runner):
    chosen = params.get(key)
    levels = [int(chosen)] if chosen is not None else list(values)
    for level in levels:
        sub_params = dict(params)
        sub_params[key] = level
        failures, subs = runner(horizon, seed, sub_params)
        yield f"{key}={level}", failures, subs


def _single(runner):
    def generate(horizon: int, seed: int, params: dict):
        failures, subs = runner(horizon, seed, params)
        yield "all", failures, subs

    return generate


EXPERIMENTS: dict[str, Experiment] = {}


def _register(
    ident: str, description: str, default_horizon: int, runner, matrix_key: str | None = None
) -> None:
    EXPERIMENTS[ident] = Experiment(ident, description, default_horizon, runner, matrix_key)


def _expand_generators(horizon: int, seed: int, params: dict):
    for name in params.get("generators", ["max_plus_one", "follow_suffix", "omission:0"]):
        failures, subs = _run_union_defeat(horizon, seed, {"generator": name})
        yield name, failures, subs


_register(
    "thm3.1",
    "staged union adversary certifies unboundedly many mistakes against "
    "fixed strategies for the suffix+negatives union",
    10_000,
    _expand_generators,
)
_register(
    "thm3.1-pos",
    "the ascending baseline converges on every suffix-family target",
    1_000,
    _single(_run_follow_suffix_positive),
)
_register(
    "alg1-2-equiv",
    "noisy play from a sampleless stream, and the sampleless stream "
    "recovered from noisy play (round trip stays in the common core)",
    1_000,
    _single(_run_noisy_sampleless_equiv),
)
_register(
    "alg3-chain",
    "sampleless play along a growing chain of ray families converges at the "
    "target's index",
    500,
    _single(_run_chain),
)
_register(
    "thm4.3-check",
    "infinite-common-core test classifies every registered collection",
    1,
    _single(_run_core_check),
)
_register(
    "thm4.5-omissions",
    "strategies that converge on full enumerations stay converged under "
    "finite and infinite omissions",
    300,
    _single(_run_omission_insensitivity),
)
_register(
    "thm4.8-omit-i",
    "marker strategies tolerate their declared omission budget and fail one "
    "past it",
    10_000,
    lambda h, s, p: _matrix((0, 1, 2), "i", h, s, p, _run_omission_hierarchy),
    matrix_key="i",
)
_register(
    "thm5.2-noise-i",
    "marker strategies tolerate their declared noise level and fail one past it",
    10_000,
    lambda h, s, p: _matrix((0, 1, 2), "i", h, s, p, _run_noise_hierarchy),
    matrix_key="i",
)
_register(
    "thm5.4-sensitivity",
    "every fixed-noise-level strategy for rays+negatives is defeated when "
    "the level is unknown",
    10_000,
    lambda h, s, p: _matrix((0, 1, 2, 3, 4), "i", h, s, p, _run_sensitivity),
    matrix_key="i",
)
_register(
    "alg4-feedback",
    "membership queries let one strategy cover a countable union of "
    "uniformly generatable parts",
    400,
    _single(_run_feedback_union),
)
_register(
    "alg5-queries",
    "a finite-query strategy is simulated without queries; the decision-tree "
    "position never regresses",
    1_000,
    _single(_run_query_elimination),
)
_register(
    "alg6-identify",
    "index identification with queries stabilizes at the least correct index",
    1_000,
    _single(_run_identification),
)
_register(
    "appendixA-repetition",
    "first-occurrence filtering makes repetition play equivalent to "
    "repetition-free play",
    1_000,
    _single(_run_repetition),
)


def run_experiment(
    ident: str,
    horizon: int | None = None,
    seed: int = 0,
    params: dict | None = None,
) -> tuple[list[SummaryRow], list[SubRun]]:
    exp = EXPERIMENTS[ident]
    horizon = exp.default_horizon if horizon is None else horizon
    started = time.perf_counter()
    rows: list[SummaryRow] = []
    all_subs: list[SubRun] = []
    for label, failures, subs in exp.runner(horizon, seed, params or {}):
        for sub in subs:
            sub.header.setdefault("experiment", ident)
            sub.header.setdefault("seed", seed)
        elapsed = time.perf_counter() - started
        started = time.perf_counter()
        mistakes = sum(s.result.mistakes for s in subs)
        convergence = max((s.result.observed_convergence for s in subs), default=0)
        name = ident if label == "all" else f"{ident}[{label}]"
        rows.append(
            SummaryRow(
                name,
                passed=not failures,
                mistakes=mistakes,
                convergence=convergence,
                runtime=elapsed,
                detail="; ".join(failures[:3]),
            )
        )
        all_subs.extend(subs)
    return rows, all_subs


def emit_summary(rows: list[SummaryRow]) -> str:
    if not rows:
        raise ValueError("no experiments selected")
    rows = sorted(rows, key=lambda r: r.experiment)
    width = max(len(r.experiment) for r in rows)
    lines = [
        f"{'experiment'.ljust(width)}  result  mistakes  convergence  runtime",
    ]
    for r in rows:
        lines.append(
            f"{r.experiment.ljust(width)}  {'PASS' if r.passed else 'FAIL'}  "
            f"{str(r.mistakes).rjust(8)}  {str(r.convergence).rjust(11)}  "
            f"{r.runtime:7.3f}s"
            + (f"  {r.detail}" if r.detail else "")
        )
    return "\n".join(lines)
