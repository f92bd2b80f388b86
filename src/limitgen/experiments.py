"""Named experiments: one table of rows, each a lazy list of cases.

Each registered id reproduces one separation or construction at desk scale
and asserts its finite-horizon witness. A case is one engine run: no case
may break its stream's declared mode, a positive case asserts zero mistakes
from an analytic step t* (below its horizon) on, a defeat case (one against
an adaptive adversary) asserts enough certified (or final-stage) mistakes,
and the row may add its own checks of the finished run.
`run_experiment` is the one loop that runs, checks and drops the cases one
at a time. Experiment ids are stable config keys.
"""

from __future__ import annotations

import bisect
import itertools
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Generator, Iterator, NamedTuple

from . import engine
from .engine import Mode, RunResult, Transcript
from .errors import DuplicateSubRun
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
from .sources import ScriptedSource, ScriptedSpec, Source
from .sources import (
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)

MIN_CERTIFIED = 10
# the longest horizon of the hierarchy rows' scripted cases; a level whose
# largest t* is not below it fails at every horizon, so the rows' kind
# rejects it
SCRIPTED_HORIZON = 2000


@dataclass
class SubRun:
    """One engine run plus everything needed to write its trace."""

    name: str
    header: dict
    records: Transcript
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


class Case(NamedTuple):
    """One engine run and what it must show: no stream violation, and against
    an adaptive adversary at least MIN_CERTIFIED certified or final-stage
    mistakes; otherwise, with `t_star` set, a t_star below the horizon and no
    mistake from step t_star on."""

    name: str
    generator: object
    source: Source
    mode: Mode
    horizon: int
    t_star: int | None = None


class Param(NamedTuple):
    """A row's one config parameter: `kind(value, origin)` checks the config's
    value, else `default`, and returns the tuple of values it stands for. With
    `matrix`, each value makes its own summary row."""

    name: str
    kind: Callable[[object, str], tuple]
    default: object
    matrix: bool = False


@dataclass(frozen=True)
class Experiment:
    """One table row. `cases(horizon, seed, params)` is a generator: it yields
    each Case lazily and is sent back the finished SubRun, so that it can
    check that run, and it yields the message of every check that fails.
    `param` is the row's one config parameter, if it takes one; `params`
    then maps its name to one checked value (see `matrix_rows`)."""

    ident: str
    description: str
    default_horizon: int
    cases: Callable[[int, int, dict], Generator[Case | str, SubRun | None, None]]
    param: Param | None = None


def _scripted(
    truth: ClosedFormLanguage,
    order: str = "canonical",
    omissions=frozenset(),
    noise=(),
    repeat_seed: int | None = None,
) -> ScriptedSource:
    return ScriptedSource(ScriptedSpec(truth, order, omissions, tuple(noise), repeat_seed))


def _first_reveal(spec: ScriptedSpec, horizon: int, want: Callable[[set[int]], bool]) -> int:
    """First step below `horizon` whose reveal makes `want` hold, or
    `horizon` if none does: a t* that late fails its case anyway. It reads
    its own stream of the spec, so the run's source plays from step 0."""
    seen: set[int] = set()
    for t, x in enumerate(itertools.islice(spec.stream(), horizon)):
        seen.add(x)
        if want(seen):
            return t
    return horizon


# --- positive/negative checks shared by every experiment -------------------


def _check_zero_mistakes_from(
    result: RunResult, t_star: int, horizon: int, label: str
) -> list[str]:
    """No mistake from t_star on; a t_star at or past the horizon leaves no
    step to check, so it fails too."""
    if t_star >= horizon:
        return [f"{label}: t*={t_star} is not below the horizon {horizon}"]
    first = bisect.bisect_left(result.mistake_times, t_star)  # the times are sorted
    bad = list(result.mistake_times[first : first + 5])
    return [f"{label}: mistakes at {bad} despite t*={t_star}"] if bad else []


def _check_valid(result: RunResult, label: str) -> list[str]:
    """A run whose stream broke its declared mode shows nothing."""
    if result.validity_violations:
        return [f"{label}: stream violations: {result.validity_violations[:3]}"]
    return []


def _check_defeat(result: RunResult, label: str) -> list[str]:
    """Certified mistakes plus every step of a never-triggered final stage."""
    defeated = len(result.certified_mistake_times) + result.final_stage_mistakes
    if defeated < MIN_CERTIFIED:
        return [f"{label}: only {defeated} certified/stage mistakes (< {MIN_CERTIFIED})"]
    return []


# --- cases of each experiment ----------------------------------------------


def union_generator(name: str):
    """The strategy `thm3.1` plays for one of its `generators` names: a
    baseline name or `omission:<level>`. Raises ValueError on any other."""
    if name.startswith("omission:"):
        level = name.removeprefix("omission:")
        if not (level.isascii() and level.isdecimal()):
            raise ValueError(f"omission level must be a non-negative integer, got {name!r}")
        return OmissionTolerantGenerator(int(level))
    return baseline(name)


def _union_defeat_cases(horizon: int, seed: int, params: dict):
    name = params["generators"]
    adversary = staged_union_adversary()
    sub = yield Case(f"thm3.1[{name}]", union_generator(name), adversary, Mode.standard(), horizon)
    # trigger k's negative -(k + 1) is owed on the step after the trigger,
    # so for each of the sorted trigger times below horizon - 1
    certified = sub.result.certified_mistake_times
    owed = min(MIN_CERTIFIED, bisect.bisect_left(certified, horizon - 1))
    missing = [-k for k in range(1, owed + 1) if not adversary.emitted(-k)]
    if missing:
        yield f"negatives not all emitted: {missing}"
    if name == "max_plus_one":
        expect = tuple(range(0, 2 * MIN_CERTIFIED, 2))
        got = tuple(certified[: len(expect)])
        if got != expect:
            yield f"mistake prefix {got} != {expect}"


def _follow_suffix_cases(horizon: int, seed: int, params: dict):
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
            yield Case(
                f"thm3.1-pos[j={j},{order}]", FollowSuffix(), src, Mode.standard(), horizon, bound
            )


def _noisy_sampleless_cases(horizon: int, seed: int, params: dict):
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
        yield Case(f"alg1[C2,case{idx}]", gen, src, Mode.noisy(len(noise)), horizon, 20)
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
        yield Case(f"alg1[chain,case{idx}]", gen, src, Mode.noisy(len(noise)), horizon, 20)
    # round trip: rebuild a sampleless stream from the skip-seen strategy
    base = noisy_from_sampleless(intersection_generator(neg_union()))
    roundtrip = SamplelessFromNoisy(base)
    outputs = [roundtrip.step(None) for _ in range(10_000)]
    if len(set(outputs)) != len(outputs):
        yield "round-trip stream is not injective"
    late = [z for z in outputs[21:] if z >= 0]
    if late:
        yield f"round-trip stream leaves the common core: {late[:5]}"


def _chain_cases(horizon: int, seed: int, params: dict):
    target = params["target_ray"]
    gen = ChainGenerator(ray_prefix_chain())
    src = _scripted(suffix_from(target))
    # converging by the target's index is having no mistake from it on
    yield Case(f"alg3[P{target}]", gen, src, Mode.sampleless(), horizon, target)


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


def _core_check_cases(horizon: int, seed: int, params: dict):
    for name, build, expected in _CLASSIFIED_COLLECTIONS:
        got = uniform_without_samples_check(build())
        if got != expected:
            yield f"{name}: infinite-core check returned {got}, expected {expected}"


def _omission_insensitivity_cases(horizon: int, seed: int, params: dict):
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
                yield Case(name, gen, src, mode, horizon, 0)
                fgen = UnionFeedbackGenerator([neg_union()])
                fsrc = _scripted(truth, order=order, omissions=omissions)
                yield Case(name.replace("stream", "union1"), fgen, fsrc, Mode.feedback(), horizon, 0)


def _marked_suffix_truth(level: int, a_part: frozenset[int], j: int) -> ClosedFormLanguage:
    return ClosedFormLanguage(frozenset(range(level + 1)) | a_part, j, False)


def _omission_sources(level: int, horizon: int) -> Iterator[tuple[ScriptedSource, int]]:
    """(source, analytic t*) pairs for <= level omissions over `horizon` steps."""
    markers = frozenset(range(level + 1))
    suffix_shapes = [
        (frozenset(), level + 1),
        (frozenset({-4}), level + 3),
        (frozenset({-9, -2}), 2 * level + 4),
        (frozenset({-15}), level + 2),
        (frozenset({-3, -11, level + 6}), level + 5),
    ]
    for a_part, j in suffix_shapes:
        truth = _marked_suffix_truth(level, a_part, j)
        omission_sets = [frozenset()]
        if level >= 1:
            omission_sets.append(frozenset(range(level)))  # all but one marker
            if a_part:
                omission_sets.append(frozenset({min(a_part)}))
        for omissions in omission_sets:
            src = _scripted(truth, omissions=omissions)
            yield src, max(j, _first_reveal(src.spec, horizon, lambda s: bool(s & markers)))
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
        yield _scripted(truth, omissions=omissions), 0


def _omission_t_star(level: int) -> int:
    """The largest t* of `_omission_sources(level, ...)`: the largest j of
    its suffix shapes, since no source reveals its first marker later."""
    return max(level + 5, 2 * level + 4)


def _omission_hierarchy_cases(horizon: int, seed: int, params: dict):
    level = params["i"]
    scripted = min(horizon, SCRIPTED_HORIZON)
    for idx, (src, t_star) in enumerate(_omission_sources(level, scripted)):
        gen = OmissionTolerantGenerator(level)
        n_omit = len(src.spec.omissions)
        yield Case(f"thm4.8[i={level},src{idx}]", gen, src, Mode.lossy(n_omit), scripted, t_star)
    adversary = omission_adversary(level)
    gen = OmissionTolerantGenerator(level)
    yield Case(f"thm4.8-adv[i={level}]", gen, adversary, Mode.standard(), horizon)
    if any(adversary.emitted(v) for v in range(level + 1)):
        yield f"adversary emitted an omitted marker (i={level})"


def _noise_sources(level: int, horizon: int) -> Iterator[tuple[ScriptedSource, int]]:
    """(source, analytic t*) pairs for noise level <= level over `horizon` steps."""
    markers = frozenset(range(level + 1))
    one_if_noisy = 1 if level >= 1 else 0
    suffix_shapes = [
        (frozenset(), level + 1, ()),
        (frozenset({-4}), level + 2, ((0, -15),)[:one_if_noisy]),
        (frozenset({-9, -2}), 2 * level + 3, tuple((k, -20 - k) for k in range(level))),
        (frozenset({-12}), level + 4, ((2, -25),)[:one_if_noisy]),
        (frozenset({-5, level + 7}), level + 3, tuple((2 * k + 1, -30 - k) for k in range(level))),
    ]
    for a_part, j, noise in suffix_shapes:
        src = _scripted(_marked_suffix_truth(level, a_part, j), noise=noise)
        yield src, max(j, _first_reveal(src.spec, horizon, lambda s: markers <= s))
    neg_shapes = [
        (frozenset({level + 5}), ()),
        (frozenset(), tuple((2 * k, k) for k in range(level))),  # markers as noise
        (frozenset({-6, level + 3}), tuple((3 * k + 1, k) for k in range(level))),
        (frozenset({level + 11}), ((1, level + 12),)[:one_if_noisy]),
        (frozenset({-2, -17}), ()),
    ]
    for a_part, noise in neg_shapes:
        truth = ClosedFormLanguage(a_part, None, True)
        yield _scripted(truth, noise=noise), 0


def _noise_t_star(level: int) -> int:
    """The largest t* of `_noise_sources(level, ...)`: the largest j of its
    suffix shapes, since no source reveals its last marker later."""
    return max(level + 4, 2 * level + 3)


def _noise_hierarchy_cases(horizon: int, seed: int, params: dict):
    level = params["i"]
    scripted = min(horizon, SCRIPTED_HORIZON)
    for idx, (src, t_star) in enumerate(_noise_sources(level, scripted)):
        gen = NoiseTolerantGenerator(level)
        yield Case(
            f"thm5.2[i={level},src{idx}]", gen, src, Mode.noisy(src.spec.noise_count), scripted, t_star
        )
    adversary = noise_prefix_adversary(level)
    gen = NoiseTolerantGenerator(level)
    yield Case(f"thm5.2-adv[i={level}]", gen, adversary, Mode.standard(), horizon)
    if adversary.noise_count() != level + 1:
        yield f"adversary emitted {adversary.noise_count()} non-members, wanted {level + 1}"


def _sensitivity_t_star(level: int) -> int:
    """The largest t* of `_sensitivity_cases`' scripted cases: ray2's j, or
    neg2's, whose probes -1..-(i+1) follow 6 and 11, the last at step i + 2."""
    return max(9, level + 2)


def _sensitivity_cases(horizon: int, seed: int, params: dict):
    level = params["i"]
    scripted = min(horizon, SCRIPTED_HORIZON)
    # ray targets: the strategy stays on the high branch throughout
    for idx, (j, noise) in enumerate(
        [(0, ()), (3, ((0, -2),)[: level and 1]), (9, tuple((k, -3 - k) for k in range(level)))]
    ):
        src = _scripted(suffix_from(j), noise=noise)
        gen = SensitivityGenerator(level)
        yield Case(f"thm5.4[i={level},ray{idx}]", gen, src, Mode.noisy(len(noise)), scripted, j)
    # negative-side targets: correct once all the probe negatives have shown up
    probes = frozenset(range(-1, -(level + 2), -1))
    for idx, a_part in enumerate([frozenset(), frozenset({4}), frozenset({11, 6})]):
        src = _scripted(ClosedFormLanguage(a_part, None, True))
        t_probe = _first_reveal(src.spec, scripted, lambda s: probes <= s)
        gen = SensitivityGenerator(level)
        yield Case(f"thm5.4[i={level},neg{idx}]", gen, src, Mode.noisy(0), scripted, t_probe)
    gen = SensitivityGenerator(level)
    yield Case(f"thm5.4-adv[i={level}]", gen, sensitivity_adversary(), Mode.standard(), horizon)


def _feedback_parts() -> list:
    return [neg_union()] + [SuffixFamily(offset=j) for j in range(10)]


def _first_part_index(truth: ClosedFormLanguage) -> int:
    norm = truth.normalized()
    if norm.include_negatives:
        return 0
    return norm.tail_start + 1


def _feedback_union_cases(horizon: int, seed: int, params: dict):
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
    for idx, truth in enumerate(truths):
        limit = _first_part_index(truth)
        for order in orders:
            gen = UnionFeedbackGenerator(_feedback_parts())
            src = _scripted(truth, order=order)
            name = f"alg4[case{idx},{limit}:{order}]"
            sub = yield Case(name, gen, src, Mode.feedback(), horizon)
            if gen.part_idx > limit:
                yield f"{name}: reached part {gen.part_idx}, first fit is {limit}"
            # no mistake once the strategy has settled on its last part
            yield from _check_zero_mistakes_from(sub.result, gen.last_part_move + 1, horizon, name)
            for t, y, a in sub.records.asked():
                if a != (y in truth):
                    yield f"{name}: oracle answer mismatch at t={t}"
                    break


def _query_elimination_cases(horizon: int, seed: int, params: dict):
    truths = [
        ClosedFormLanguage(frozenset({5}), None, True),
        suffix_from(3),
        ClosedFormLanguage(frozenset({-3, 7}), 0, False),
        NEGATIVES,
    ]
    for idx, truth in enumerate(truths):
        oracle_gen = OneShotProbeGenerator(probe=-1)
        oracle_sub = yield Case(
            f"alg5-oracle[{idx}]", oracle_gen, _scripted(truth), Mode.feedback(budget=1), horizon
        )
        stripped = StripQueries(OneShotProbeGenerator(probe=-1))
        plain_sub = yield Case(
            f"alg5-stripped[{idx}]", stripped, _scripted(truth), Mode.standard(), horizon
        )
        # scripted verdicts are binary, so equal tails are equal mistake times
        tail = horizon // 2
        diverged = {t for t in oracle_sub.result.mistake_times if t >= tail} ^ {
            t for t in plain_sub.result.mistake_times if t >= tail
        }
        if diverged:
            yield f"alg5[{idx}]: tail verdicts diverge at offset {min(diverged) - tail}"
        if any(a > b for a, b in itertools.pairwise(stripped.positions)):
            yield f"alg5[{idx}]: decision-tree position regressed"


def _identification_cases(horizon: int, seed: int, params: dict):
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
        # an identification step is a mistake exactly when z is not k
        yield Case(
            f"alg6[k={k}]", gen, _scripted(truth), Mode.identification(), horizon, t_bound
        )


def _repetition_cases(horizon: int, seed: int, params: dict):
    # the base runs' t*: follow_suffix misses only at step 0 (its output 1);
    # every later output is above every reveal and past the tail start 4.
    # The negatives stream stays two ahead of their canonical reveals.
    cases = [
        ("follow_suffix", FollowSuffix, ClosedFormLanguage(frozenset({-3}), 4, False), 1),
        (
            "neg-stream",
            lambda: intersection_generator(neg_union()),
            ClosedFormLanguage(frozenset({3, 7}), None, True),
            0,
        ),
    ]
    for label, make, truth, t_star in cases:
        runs = []
        for rep_seed in range(seed, seed + 10):
            wrapped = DedupWrapper(make())
            src = _scripted(truth, repeat_seed=rep_seed)
            name = f"appendixA[{label},seed={rep_seed}]"
            runs.append((yield Case(name, wrapped, src, Mode.repetition(), horizon)))
        # the base run is checked against, but comes after the runs it checks
        name = f"appendixA-base[{label}]"
        plain = yield Case(name, make(), _scripted(truth), Mode.standard(), horizon, t_star)
        for sub in runs:
            # no mistake once more distinct samples came than the base run needed
            if sub.result.distinct_at_convergence > plain.result.observed_convergence:
                yield (
                    f"{sub.name}: mistake at t={sub.result.observed_convergence - 1} "
                    "after convergence length"
                )


# --- the table --------------------------------------------------------------


def _count(value: object, origin: str) -> tuple[int]:
    """One non-negative integer."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ValueError(f"{origin} must be a non-negative integer, got {value!r}")
    return (value,)


def _counts(value: object, origin: str) -> tuple[int, ...]:
    """A non-negative integer or a non-empty list of them."""
    values = value if isinstance(value, list) else [value]
    if not values:
        raise ValueError(f"{origin} is an empty list")
    return tuple(_count(item, origin)[0] for item in values)


def _levels(largest_t_star: Callable[[int], int], value: object, origin: str) -> tuple[int, ...]:
    """Like `_counts`, but below the row's bound: the least level whose
    largest scripted t*, `largest_t_star(level)`, is not below
    SCRIPTED_HORIZON, so that the level fails at every horizon."""
    levels = _counts(value, origin)
    for level in levels:
        if largest_t_star(level) >= SCRIPTED_HORIZON:
            bound = next(i for i in itertools.count() if largest_t_star(i) >= SCRIPTED_HORIZON)
            raise ValueError(f"{origin} must be below {bound}, got {level}")
    return levels


def _generator_names(value: object, origin: str) -> tuple[str, ...]:
    """A non-empty list of names that `union_generator` accepts."""
    if not isinstance(value, list) or not value:
        raise ValueError(f"{origin} must be a non-empty list, got {value!r}")
    for name in value:
        if not isinstance(name, str):
            raise ValueError(f"generator name must be a string, got {name!r}")
        union_generator(name)
    return tuple(value)


EXPERIMENTS: dict[str, Experiment] = {
    exp.ident: exp
    for exp in [
        Experiment(
            "thm3.1",
            "staged union adversary certifies unboundedly many mistakes against "
            "fixed strategies for the suffix+negatives union",
            10_000,
            _union_defeat_cases,
            Param(
                "generators", _generator_names, ["max_plus_one", "follow_suffix", "omission:0"], True
            ),
        ),
        Experiment(
            "thm3.1-pos",
            "the ascending baseline converges on every suffix-family target",
            1_000,
            _follow_suffix_cases,
        ),
        Experiment(
            "alg1-2-equiv",
            "noisy play from a sampleless stream, and the sampleless stream "
            "recovered from noisy play (round trip stays in the common core)",
            1_000,
            _noisy_sampleless_cases,
        ),
        Experiment(
            "alg3-chain",
            "sampleless play along a growing chain of ray families converges at the "
            "target's index",
            500,
            _chain_cases,
            Param("target_ray", _count, 7),
        ),
        Experiment(
            "thm4.3-check",
            "infinite-common-core test classifies every registered collection",
            1,
            _core_check_cases,
        ),
        Experiment(
            "thm4.5-omissions",
            "strategies that converge on full enumerations stay converged under "
            "finite and infinite omissions",
            300,
            _omission_insensitivity_cases,
        ),
        Experiment(
            "thm4.8-omit-i",
            "marker strategies tolerate their declared omission budget and fail one "
            "past it",
            10_000,
            _omission_hierarchy_cases,
            Param("i", partial(_levels, _omission_t_star), [0, 1, 2], matrix=True),
        ),
        Experiment(
            "thm5.2-noise-i",
            "marker strategies tolerate their declared noise level and fail one past it",
            10_000,
            _noise_hierarchy_cases,
            Param("i", partial(_levels, _noise_t_star), [0, 1, 2], matrix=True),
        ),
        Experiment(
            "thm5.4-sensitivity",
            "every fixed-noise-level strategy for rays+negatives is defeated when "
            "the level is unknown",
            10_000,
            _sensitivity_cases,
            Param("i", partial(_levels, _sensitivity_t_star), [0, 1, 2, 3, 4], matrix=True),
        ),
        Experiment(
            "alg4-feedback",
            "membership queries let one strategy cover a countable union of "
            "uniformly generatable parts",
            400,
            _feedback_union_cases,
        ),
        Experiment(
            "alg5-queries",
            "a finite-query strategy is simulated without queries; the decision-tree "
            "position never regresses",
            1_000,
            _query_elimination_cases,
        ),
        Experiment(
            "alg6-identify",
            "index identification with queries stabilizes at the least correct index",
            1_000,
            _identification_cases,
        ),
        Experiment(
            "appendixA-repetition",
            "first-occurrence filtering makes repetition play equivalent to "
            "repetition-free play",
            1_000,
            _repetition_cases,
        ),
    ]
}


def matrix_rows(exp: Experiment, params: object) -> list[tuple[str, dict]]:
    """(row name, checked params) per summary row of `exp`: `ident`, or with a
    matrix param `ident[key=value]`, or `ident[value]` for a name-valued one.
    Raises ValueError on params outside the row's schema or its kind, and on
    a matrix value given twice, whose traces would overwrite each other."""
    if not isinstance(params, dict):
        raise ValueError(f"params of {exp.ident} must be an object, got {params!r}")
    param = exp.param
    unknown = sorted(set(params) - ({param.name} if param else set()))
    if unknown:
        takes = repr(param.name) if param else "none"
        raise ValueError(f"unknown params {unknown} for {exp.ident}, which takes {takes}")
    if param is None:
        return [(exp.ident, {})]
    rows = {}
    for value in param.kind(params.get(param.name, param.default), f"{param.name} of {exp.ident}"):
        label = value if isinstance(value, str) else f"{param.name}={value}"
        row = f"{exp.ident}[{label}]" if param.matrix else exp.ident
        if row in rows:
            raise ValueError(f"config runs {row} twice, so its traces would overwrite each other")
        rows[row] = {param.name: value}
    return list(rows.items())


def _run_case(case: Case, ident: str, seed: int) -> SubRun:
    records, result = engine.run(case.generator, case.source, case.mode, case.horizon)
    header = {
        "run": case.name,
        "mode": case.mode.to_record(),
        "horizon": case.horizon,
        "truth": engine.truth_record(case.source.truth_view()),
        "experiment": ident,
        "seed": seed,
    }
    if isinstance(case.source, ScriptedSource):
        header["source"] = case.source.spec.to_record()
    return SubRun(case.name, header, records, result)


def run_experiment(
    ident: str,
    horizon: int | None = None,
    seed: int = 0,
    params: dict | None = None,
) -> tuple[list[SummaryRow], list[SubRun]]:
    """Run every case of every matrix row of `ident`, one case at a time: each
    case is run, checked and sent back to its row's generator before the next
    one is drawn, so a case's strategy and source go once the row moves on.

    Raises ValueError, before any case runs, when `params` does not fit the
    row's schema (see `matrix_rows`), and DuplicateSubRun when two sub-runs
    share a name, since the trace of one would overwrite the other's.
    """
    exp = EXPERIMENTS[ident]
    horizon = exp.default_horizon if horizon is None else horizon
    rows: list[SummaryRow] = []
    all_subs: list[SubRun] = []
    names: set[str] = set()
    for row_name, row_params in matrix_rows(exp, {} if params is None else params):
        started = time.perf_counter()
        failures: list[str] = []
        subs: list[SubRun] = []
        cases = exp.cases(horizon, seed, row_params)
        reply = None
        while True:
            try:
                case = cases.send(reply)
            except StopIteration:
                break
            reply = None
            if isinstance(case, str):
                failures.append(case)
                continue
            if case.name in names:
                raise DuplicateSubRun(f"{ident} has two sub-runs named {case.name!r}")
            names.add(case.name)
            reply = _run_case(case, ident, seed)
            failures += _check_valid(reply.result, case.name)
            if case.source.adaptive:
                failures += _check_defeat(reply.result, case.name)
            elif case.t_star is not None:
                failures += _check_zero_mistakes_from(
                    reply.result, case.t_star, case.horizon, case.name
                )
            subs.append(reply)
        rows.append(
            SummaryRow(
                row_name,
                passed=not failures,
                mistakes=sum(s.result.mistakes for s in subs),
                convergence=max((s.result.observed_convergence for s in subs), default=0),
                runtime=time.perf_counter() - started,
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
