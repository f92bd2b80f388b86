"""Independent brute-force oracles for the family oracles.

Two levels:

* literal materialization on a tiny window: enumerate every language of a
  family restricted to the window (all finite-part subsets drawn from the
  window, all tail offsets up to just past the window) and answer
  consistency/closure by direct set operations;

* minimal-language construction on larger windows: the intersection of all
  consistent languages equals the intersection of the *minimal* consistent
  language per admissible tail offset (adding elements to the free part only
  enlarges a language), which brute-forces [-20,20]-scale checks without
  2^41 subsets.

Both are deliberately separate code paths from the analytic oracles they
check.

A few inspection helpers that only tests use live here too: the members of
a closure on a window, a staged adversary's stage language rebuilt from its
run's reveals and its tail-start column, a staged adversary with faults
injected for its guards to refuse, the inverse of the zigzag pairing,
the drawn scripted specs that several test modules play, and the memory a
run leaves allocated, per step.

The later sections keep the straightforward, superlinear versions of three
incremental paths (query elimination, index identification and the
ray-prefix chain links), the transcript replay that located the union
strategy's last part move, the decoding of a transcript into one
`StepRecord` per step (with its inverse, `transcript_of`) that the trace
writer and `Transcript.asked` are checked against, the dict-per-step trace
writer built on it, the game loop that branched on the mode every step,
judged with the string verdicts and kept one record object per step, and
whose stream checks rebuilt every set from those records, the scripted
stream that passed through all four stages of its pipeline whatever the
spec used, the enumeration that remembered every value
it produced, the max/min pools kept with the `max` and `min` builtins, the
strategies built on them (among them the marker strategies that walked every
marker against the set of every reveal), the limit language of an adaptive
run with its tri-state verdict, the staged adversary that kept one record per
stage and every value it played in a list and a set, built from its own
table of the four constructions, and the noisy and
sampleless converters that kept every stream entry they read in a list
behind a cursor, as references for differential tests.
"""

from __future__ import annotations

import copy
import gc
import itertools
import json
import random
import tracemalloc
from array import array
from dataclasses import dataclass
from typing import NamedTuple

from hypothesis import strategies as st

from limitgen import engine, generators
from limitgen.engine import (
    CORRECT,
    IDENTIFICATION,
    MISTAKE,
    REPETITION,
    SAMPLELESS,
    UNKNOWN_VERDICT,
    RunResult,
    Transcript,
)
from limitgen.errors import AdversaryRepeat, BudgetViolation, CertificateBroken, SearchExhausted
from limitgen.families import (
    ExplicitCountable,
    NegFamily,
    RayFamily,
    SuffixFamily,
    UnionSpec,
)
from limitgen.feedback import YES, IndexIdentifier, UnionFeedbackGenerator, preorder_index
from limitgen.langs import (
    NEGATIVES,
    ClosedFormLanguage,
    suffix_from,
    zigzag_encode,
)
from limitgen.sources import PERMUTATION_BLOCK, ScriptedSource, ScriptedSpec, StagedAdversary

TINY_LO, TINY_HI = -6, 6


def window(lo: int, hi: int) -> list[int]:
    return list(range(lo, hi + 1))


# --- inspection helpers --------------------------------------------------------


def members_in(closure: ClosedFormLanguage | frozenset[int], pts) -> frozenset[int]:
    """The members of a closure (infinite or finite) among the given points."""
    return frozenset(x for x in pts if x in closure)


def stage_language(
    adversary: StagedAdversary, reveals, index: int, extras: frozenset[int] = frozenset()
) -> ClosedFormLanguage:
    """Materialize a stage's intended language from the run's reveals: stage
    0's is the first stage `naive_construction` gives for the adversary's
    construction and level, the ray from the tail start plus the extras. A
    later stage's is the truth values revealed after the noise prefix and
    before the stage started (the step after the negative that followed
    trigger index - 1), plus `extras` (what the construction's `next_stage`
    adds; none for the staged union and noise-prefix constructions), plus
    the ray from the stage's tail start, which is its first ramp value, the
    stage's first reveal."""
    (tail_start, first_extras), _, prefix, _ = naive_construction(
        adversary.construction, adversary.level
    )
    if index == 0:
        return ClosedFormLanguage(first_extras, tail_start, False)
    started_at = adversary.trigger_times[index - 1] + 2
    finite = frozenset(reveals[len(prefix) : started_at]) | extras
    return ClosedFormLanguage(finite, reveals[started_at], False)


def zigzag_decode(z: int) -> int:
    """Inverse of `langs.zigzag_encode`."""
    return 2 * z if z >= 0 else -2 * z - 1


TRUTHS = st.builds(
    lambda finite, tail: ClosedFormLanguage(finite, tail, tail is None),
    st.frozensets(st.integers(-8, 12), max_size=3),
    st.one_of(st.none(), st.integers(-3, 12)),
)


@st.composite
def scripted_specs(draw):
    """A drawn scripted spec: any order, omissions, noise and repeats."""
    truth = draw(TRUTHS)
    head = list(itertools.islice(truth.elements(), 12))
    omissions = draw(
        st.one_of(st.just("every_other"), st.frozensets(st.sampled_from(head), max_size=3))
    )
    outside = [v for v in range(-30, 31) if v not in truth]
    n = draw(st.integers(0, min(3, len(outside))))
    values = draw(st.lists(st.sampled_from(outside), min_size=n, max_size=n, unique=True)) if n else []
    positions = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n, unique=True))
    order = draw(st.sampled_from(["canonical", "blocks:0", "blocks:3"]))
    repeat_seed = draw(st.one_of(st.none(), st.integers(0, 5)))
    return ScriptedSpec(truth, order, omissions, tuple(zip(positions, values)), repeat_seed)


def retained_per_step(steps: int, play):
    """(bytes per step, what `play()` returned): what `play()` leaves
    allocated once the cycle collector has run, by tracemalloc, divided by
    `steps`. What `play` returns is still alive when it is measured."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = play()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / steps, kept


def peak_per_step(steps: int, play):
    """(bytes per step, what `play()` returned): the most that tracemalloc
    saw allocated while `play()` ran, above what was allocated before it,
    divided by `steps`."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = play()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return peak / steps, kept


def _suffix_traces(fam: SuffixFamily, lo: int, hi: int) -> list[frozenset[int]]:
    pts = window(lo, hi)
    if fam.offset is not None:
        offsets = [fam.offset]
    else:
        offsets = list(range(hi + 2))  # hi+1 stands in for all larger
    traces = set()
    for j in offsets:
        for r in range(len(pts) + 1):
            for a_part in itertools.combinations(pts, r):
                lang = set(fam.required) | set(a_part) | {v for v in pts if v >= j}
                traces.add(frozenset(v for v in lang if lo <= v <= hi))
    return sorted(traces, key=sorted)


def _neg_traces(fam: NegFamily, lo: int, hi: int) -> list[frozenset[int]]:
    pts = window(lo, hi)
    pool = [v for v in pts if v not in fam.forbidden]
    traces = set()
    for r in range(len(pool) + 1):
        for a_part in itertools.combinations(pool, r):
            lang = set(a_part) | {v for v in pts if v < 0}
            traces.add(frozenset(v for v in lang if lo <= v <= hi))
    return sorted(traces, key=sorted)


def literal_traces(spec, lo: int = TINY_LO, hi: int = TINY_HI) -> list[frozenset[int]]:
    """Every member of the family, restricted to the window."""
    if isinstance(spec, SuffixFamily):
        return _suffix_traces(spec, lo, hi)
    if isinstance(spec, NegFamily):
        return _neg_traces(spec, lo, hi)
    if isinstance(spec, (ExplicitCountable, RayFamily)):
        pts = window(lo, hi)
        return [frozenset(v for v in pts if v in lang) for lang in _listed(spec, hi)]
    if isinstance(spec, UnionSpec):
        merged = []
        for part in spec.parts:
            merged.extend(literal_traces(part, lo, hi))
        return merged
    raise TypeError(f"no literal oracle for {type(spec)!r}")


def _listed(spec: ExplicitCountable | RayFamily, hi: int):
    """Languages of a listed or ray collection relevant to a window check.

    A ray family is materialized up to ray min(top, hi + 1); this is exact on
    the window (later rays trace identically to ray hi+1 on the window and
    cannot contain window samples).
    """
    if isinstance(spec, ExplicitCountable):
        return spec.languages
    top = hi + 1 if spec.top is None else min(spec.top, hi + 1)
    return tuple(suffix_from(k) for k in range(top + 1))


def brute_consistent(traces, sample) -> bool:
    sample = frozenset(sample)
    return any(sample <= trace for trace in traces)


def brute_closure(traces, sample):
    """Window trace of the closure, or None when nothing is consistent."""
    sample = frozenset(sample)
    live = [trace for trace in traces if sample <= trace]
    if not live:
        return None
    out = set(live[0])
    for trace in live[1:]:
        out &= trace
    return frozenset(out)


# --- minimal-language oracle for larger windows -----------------------------


def minimal_traces(spec, sample, lo: int, hi: int) -> list[frozenset[int]] | None:
    """Window traces of the minimal consistent languages for the sample.

    Their intersection equals the closure's window trace: enlarging the free
    part only enlarges a language, so minimal members decide the
    intersection.
    """
    sample = frozenset(sample)
    pts = window(lo, hi)
    if isinstance(spec, SuffixFamily):
        lows = [spec.offset] if spec.offset is not None else list(range(hi + 2))
        traces = []
        for j in lows:
            lang = set(spec.required) | sample | {v for v in pts if v >= j}
            traces.append(frozenset(v for v in lang if lo <= v <= hi))
        return traces
    if isinstance(spec, NegFamily):
        if any(x >= 0 and x in spec.forbidden for x in sample):
            return None
        lang = sample | {v for v in pts if v < 0}
        return [frozenset(v for v in lang if lo <= v <= hi)]
    if isinstance(spec, (ExplicitCountable, RayFamily)):
        live = [
            frozenset(v for v in pts if v in lang)
            for lang in _listed(spec, hi)
            if all(x in lang for x in sample)
        ]
        return live or None
    if isinstance(spec, UnionSpec):
        merged: list[frozenset[int]] = []
        for part in spec.parts:
            sub = minimal_traces(part, sample, lo, hi)
            if sub:
                merged.extend(sub)
        return merged or None
    raise TypeError(f"no minimal-language oracle for {type(spec)!r}")


def brute_closure_window(spec, sample, lo: int, hi: int):
    traces = minimal_traces(spec, sample, lo, hi)
    if traces is None:
        return None
    out = set(traces[0])
    for trace in traces[1:]:
        out &= trace
    return frozenset(out)


# --- from-scratch references for the incremental strategies -----------------


class NaiveStripQueries:
    """Query elimination by replaying a copy of the unplayed base on the
    whole revealed prefix at every step (quadratic in the horizon).
    `positions` keeps that replay's decision-tree position after each step."""

    def __init__(self, base) -> None:
        if base.budget is None:
            raise ValueError("base strategy must declare a finite query budget")
        self.base = base
        self.positions: list[int] = []
        self.revealed: list[int] = []
        self.seen: set[int] = set()

    def step(self, revealed: int) -> int:
        self.revealed.append(revealed)
        self.seen.add(revealed)
        replay = copy.deepcopy(self.base)
        answers: list[bool] = []
        z = 0
        for xj in self.revealed:
            y = replay.step_query(xj)
            if y is None:
                a = None
            else:
                a = y in self.seen
                answers.append(a)
                if len(answers) > self.base.budget:
                    raise BudgetViolation(
                        f"replay asked {len(answers)} queries, budget {self.base.budget}"
                    )
            z = replay.step_output(xj, a)
        self.positions.append(preorder_index(answers, self.base.budget))
        return z


class NaiveIndexIdentifier(IndexIdentifier):
    """Index identification that re-tests every admitted, surviving language
    against all positive and negative examples at every step."""

    def __init__(self, collection: ExplicitCountable) -> None:
        self.languages = collection.languages
        self.positive: set[int] = set()
        self.negative: set[int] = set()
        self.t = -1
        self._failed = [False] * len(self.languages)

    def step_query(self, revealed: int) -> int | None:
        self.t += 1
        self.positive.add(revealed)
        return self.t

    def step_output(self, revealed: int, answer: bool | None) -> int:
        if answer is YES:
            self.positive.add(self.t)
        else:
            self.negative.add(self.t)
        for i, lang in enumerate(self.languages):
            if i > self.t or self._failed[i]:
                continue
            if any(v not in lang for v in self.positive) or any(
                v in lang for v in self.negative
            ):
                self._failed[i] = True
        for i in range(min(self.t + 1, len(self.languages))):
            if not self._failed[i]:
                return i
        return 0


def naive_ray_prefix_link(t: int) -> ExplicitCountable:
    """Link t of the ray-prefix chain as the plain list of rays P_0..P_t,
    answered by intersecting the listed rays."""
    return ExplicitCountable(languages=tuple(suffix_from(k) for k in range(t + 1)))


def replayed_last_part_move(parts, records) -> int:
    """The last step on which the union strategy moved to another part, found
    by replaying the transcript through a fresh strategy (-1 if it never
    moved)."""
    probe = UnionFeedbackGenerator(parts)
    last = -1
    for r in steps(records):
        before = probe.part_idx
        probe.step_query(r.x)
        probe.step_output(r.x, r.a)
        if probe.part_idx != before:
            last = r.t
    return last


# --- step records and the dict-per-step reference for the trace writer -----


class StepRecord(NamedTuple):
    t: int
    x: int | None
    y: int | None
    a: bool | None
    z: int
    verdict: str


# A step's code byte is its verdict's index, plus 3 for a "Yes" answer or 6
# for a "No".
_ANSWER_OF = (None,) * 3 + (True,) * 3 + (False,) * 3
_VERDICT_OF = (CORRECT, MISTAKE, UNKNOWN_VERDICT) * 3
_ANSWER_CODE = {None: 0, True: 3, False: 6}


def steps(transcript: Transcript) -> list[StepRecord]:
    """Every step of a transcript as a `StepRecord`, decoded from its columns:
    the reference that `Transcript.asked` and `write_trace` are checked
    against."""
    codes = transcript.codes
    ys = [None] * len(codes)
    asked = (t for t, code in enumerate(codes) if _ANSWER_OF[code] is not None)
    for t, y in zip(asked, transcript.queries):
        ys[t] = y
    xs = transcript.reveals or itertools.repeat(None)
    return [
        StepRecord(t, x, y, _ANSWER_OF[code], z, _VERDICT_OF[code])
        for t, (x, y, code, z) in enumerate(zip(xs, ys, codes, transcript.outputs))
    ]


def transcript_of(records) -> Transcript:
    """The transcript holding `records`, the inverse of `steps`. Step t must
    be records[t], every step or none must reveal a sample, and a step asks a
    query exactly when it has an answer."""
    transcript = Transcript()
    if len({r.x is None for r in records}) > 1:
        raise ValueError("either every step reveals a sample or none does")
    for t, r in enumerate(records):
        if r.t != t or (r.y is None) != (r.a is None):
            raise ValueError(f"malformed step {r}")
        if r.x is not None:
            transcript.reveals.append(r.x)
        if r.y is not None:
            transcript.queries.append(r.y)
        transcript.outputs.append(r.z)
        transcript.codes.append(_ANSWER_CODE[r.a] + _VERDICT_OF.index(r.verdict))
    return transcript


def _dump(record: dict) -> str:
    # an int64 column, in a header's truth or the summary, is written as the
    # list of its values
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=array.tolist)


def naive_write_trace(fp, header: dict, records: Transcript, result) -> None:
    """The trace writer that decodes every step into a `StepRecord` and
    serializes one dict per step with `json.dumps`."""
    fp.write(_dump({"header": header}) + "\n")
    for r in steps(records):
        answer = None if r.a is None else ("Yes" if r.a else "No")
        step = {"t": r.t, "x": r.x, "y": r.y, "a": answer, "z": r.z, "verdict": r.verdict}
        fp.write(_dump(step) + "\n")
    fp.write(_dump({"summary": result.to_record()}) + "\n")


# --- two-protocol, two-pass reference for the game loop ----------------------


def naive_run(generator, source, mode, horizon):
    """The game loop that steps plain strategies with `step` and feedback
    strategies with `step_query`/`step_output`, compares the mode on every
    step, judges with `engine.verdict`'s strings, checks sampleless output
    repeats as it goes, and keeps one `StepRecord` per step, from which it
    validates the stream. It counts no queries. An adaptive source is not
    played itself: its `NaiveStagedAdversary.twin` plays in its place, and
    the run is judged against the twin's limit language."""
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    engine._check_compat(generator, source, mode)
    twin = NaiveStagedAdversary.twin(source) if source.adaptive else None
    truth = source.truth_view() if twin is None else twin.limit
    target_index = (
        engine._identification_target(generator, truth) if mode.kind == IDENTIFICATION else None
    )
    records = []
    seen = set()
    outputs_seen = set()
    violations = []
    mistakes = []
    unknown = 0
    if mode.kind == SAMPLELESS:
        reveals = None
    else:
        reveals = source.reveals() if twin is None else map(twin.emit, itertools.count())
    for t in range(horizon):
        x = None if reveals is None else next(reveals)
        y = a = None
        if mode.kind in (engine.FEEDBACK, IDENTIFICATION):
            y = generator.step_query(x)
            if y is not None:
                a = engine.oracle_answer(truth, y)
            z = generator.step_output(x, a)
        else:
            z = generator.step(x)
        if x is not None:
            seen.add(x)
        if twin is not None:
            twin.observe(t, z)  # the reaction only; `naive_verdict` judges
        if mode.kind == IDENTIFICATION:
            v = CORRECT if z == target_index else MISTAKE
        else:
            v = naive_verdict(z, truth, seen)
        if mode.kind == SAMPLELESS:
            if z in outputs_seen:
                violations.append(f"output-repeat@{t}:{z}")
            outputs_seen.add(z)
        if v == MISTAKE:
            mistakes.append(t)
        elif v == UNKNOWN_VERDICT:
            unknown += 1
        records.append(StepRecord(t, x, y, a, z, v))
    violations.extend(naive_validate_stream(records, source, mode, horizon))
    convergence = mistakes[-1] + 1 if mistakes else 0
    distinct = None
    if mode.kind == REPETITION:
        distinct = len({r.x for r in records[:convergence] if r.x is not None})
    no_trigger = False
    certified = array("q")
    stage_mistakes = 0
    if twin is not None:
        certified = twin.certified_mistake_times
        no_trigger = not certified
        stage_mistakes = twin.final_stage_mistakes(horizon)
    return records, RunResult(
        mistake_times=array("q", mistakes),
        observed_convergence=convergence,
        unknown_count=unknown,
        validity_violations=tuple(violations),
        no_trigger=no_trigger,
        certified_mistake_times=certified,
        final_stage_mistakes=stage_mistakes,
        distinct_at_convergence=distinct,
    )


def naive_validate_stream(records, source, mode, horizon):
    """Every stream check on revealed samples, from the finished records:
    each repeat found by walking them all, and the noise as a set rebuilt
    from them and tested with the truth's own `__contains__`. Coverage is
    checked only when samples are revealed, that is, not in sampleless
    play."""
    violations = []
    xs = [r.x for r in records if r.x is not None]
    if mode.kind != REPETITION:
        seen = set()
        for r in records:
            if r.x is None:
                continue
            if r.x in seen:
                violations.append(f"repeat@{r.t}:{r.x}")
            seen.add(r.x)
    if not isinstance(source, ScriptedSource):
        return violations
    spec = source.spec
    truth = spec.truth
    emitted = set(xs)
    noise_emitted = {v for v in xs if v not in truth}
    declared_noise = spec.noise_count
    if len(noise_emitted) > declared_noise:
        violations.append(f"noise-budget:{len(noise_emitted)}>{declared_noise}")
    if isinstance(spec.omissions, frozenset):
        if spec.order == "canonical" and spec.repeat_seed is None and mode.kind != SAMPLELESS:
            must_show = min(horizon // 2, max(horizon - declared_noise - 1, 0))
            for k, v in enumerate(truth.elements()):
                if k >= must_show:
                    break
                if v not in emitted and v not in spec.omissions:
                    violations.append(f"coverage-miss:{v}")
    return violations


# --- the scripted stream as a fixed four-stage pipeline -----------------------


def naive_stream(spec: ScriptedSpec):
    """The enumeration of a scripted spec, through every stage whether the
    spec uses it or not: base order with the omissions filtered out, the
    block shuffle (or a `yield from` for canonical order), the noise stage
    that looks up every position, then the repeats."""

    def base():
        elems = spec.truth.elements()
        if spec.omissions == "every_other":
            return itertools.islice(elems, 0, None, 2)
        return (v for v in elems if v not in spec.omissions)

    def ordered():
        stream = base()
        if spec.order == "canonical":
            yield from stream
            return
        rng = random.Random(int(spec.order.split(":", 1)[1]))
        while True:
            block = list(itertools.islice(stream, PERMUTATION_BLOCK))
            if not block:
                return
            rng.shuffle(block)
            yield from block

    def with_noise():
        schedule = dict(spec.noise)
        stream = ordered()
        for pos in itertools.count():
            if pos in schedule:
                yield schedule[pos]
            else:
                yield next(stream)

    if spec.repeat_seed is None:
        return with_noise()
    rng = random.Random(spec.repeat_seed)
    return (v for v in with_noise() for _ in range(rng.randint(1, 5)))


# --- remember-everything enumeration and set-walking marker strategies -------


def naive_elements(lang: ClosedFormLanguage):
    """The canonical enumeration that keeps every value it produced in a set
    and skips any value found there."""
    emitted = set()
    for v in sorted(lang.finite_part):
        emitted.add(v)
        yield v
    streams = []
    if lang.tail_start is not None:
        streams.append(itertools.count(lang.tail_start))
    if lang.include_negatives:
        streams.append(itertools.count(-1, -1))
    while True:
        for stream in streams:
            for v in stream:
                if v not in emitted:
                    emitted.add(v)
                    yield v
                    break


class NaivePool:
    """The running max/min pools kept with the `max` and `min` builtins: the
    max pool is {t} u revealed u own outputs, the min pool {0} u revealed u
    own outputs."""

    def __init__(self) -> None:
        self.t = -1
        self._max = None
        self._min = None

    def _absorb(self, value: int) -> None:
        self._max = value if self._max is None else max(self._max, value)
        self._min = value if self._min is None else min(self._min, value)

    def _observe(self, revealed: int) -> int:
        self.t += 1
        self._absorb(revealed)
        return revealed

    def max_candidate(self) -> int:
        return max(self.t, self._max) + 1

    def min_candidate(self) -> int:
        return min(0, self._min) - 1

    def step(self, revealed: int) -> int:
        self._observe(revealed)
        z = self._decide()
        self._absorb(z)
        return z


class NaiveMaxPlusOne(NaivePool):
    def _decide(self) -> int:
        return self.max_candidate()


class NaiveMinMinusOne(NaivePool):
    def _decide(self) -> int:
        return self.min_candidate()


class NaiveFollowSuffix(NaivePool):
    def __init__(self) -> None:
        super().__init__()
        self._nat_max = 0
        self._out_max = 0

    def step(self, revealed: int) -> int:
        x = self._observe(revealed)
        if x >= 0:
            self._nat_max = max(self._nat_max, x)
        z = max(self.t, self._nat_max, self._out_max) + 1
        self._out_max = z
        return z


class NaiveOneShotProbe(NaivePool):
    """Asks whether `probe` is in the target at the first step, then plays
    low if Yes and high if No."""

    def __init__(self, probe: int = -1) -> None:
        super().__init__()
        self.probe = probe
        self.answer: bool | None = None

    def step_query(self, revealed: int) -> int | None:
        self.t += 1
        self._absorb(revealed)
        return self.probe if self.t == 0 else None

    def step_output(self, revealed: int, answer: bool | None) -> int:
        if self.t == 0:
            self.answer = answer
        z = self.min_candidate() if self.answer is YES else self.max_candidate()
        self._absorb(z)
        return z


class _SetWalkingMarkers(NaivePool):
    """Keeps every reveal and walks all level+1 markers against it on every
    step."""

    def __init__(self, level: int) -> None:
        super().__init__()
        self.level = level
        self.revealed: set[int] = set()

    def _observe(self, revealed: int) -> int:
        x = super()._observe(revealed)
        self.revealed.add(x)
        return x


class NaiveOmissionTolerant(_SetWalkingMarkers):
    def _decide(self) -> int:
        if any(m in self.revealed for m in range(self.level + 1)):
            return self.max_candidate()
        return self.min_candidate()


class NaiveNoiseTolerant(_SetWalkingMarkers):
    def _decide(self) -> int:
        if all(m in self.revealed for m in range(self.level + 1)):
            return self.max_candidate()
        return self.min_candidate()


class NaiveSensitivity(_SetWalkingMarkers):
    def _decide(self) -> int:
        if all(m in self.revealed for m in range(-1, -(self.level + 2), -1)):
            return self.min_candidate()
        return self.max_candidate()


# --- the limit language of an adaptive run, and the tri-state verdict ----------

IN = "In"
OUT = "Out"
UNKNOWN = "Unknown"


class TranscriptLimitLanguage:
    """The limit language of an adaptive run, known only through certificates.

    `seen` holds members enumerated so far, `excluded` holds elements the
    adversary has committed never to enumerate, and `promised`, the negative
    ray, is guaranteed to end up in the limit.
    """

    promised = NEGATIVES

    def __init__(self, excluded=()) -> None:
        self.seen: set[int] = set()
        self.excluded: set[int] = set(excluded)
        if any(x in self.promised for x in self.excluded):
            raise ValueError("excluded element lies in the promised part")

    @classmethod
    def of(cls, adversary: StagedAdversary) -> "TranscriptLimitLanguage":
        """A view of a staged adversary's limit language, its live sets."""
        limit = cls()
        limit.seen, limit.excluded = adversary.seen, adversary.excluded
        return limit

    def status(self, x: int) -> str:
        if x in self.seen or x in self.promised:
            return IN
        if x in self.excluded:
            return OUT
        return UNKNOWN


def naive_verdict(z: int, truth, seen: set[int]) -> str:
    """`engine.verdict`'s rule, tri-state for an adaptive run's limit
    language: a seen output or an excluded one is a Mistake, a promised or
    enumerated one Correct, and any other Unknown."""
    if z in seen:
        return MISTAKE
    if isinstance(truth, ClosedFormLanguage):
        return CORRECT if z in truth else MISTAKE
    return {IN: CORRECT, OUT: MISTAKE, UNKNOWN: UNKNOWN_VERDICT}[truth.status(z)]


# --- one-record-per-stage staged adversary -------------------------------------


def naive_construction(construction: str, level: int):
    """(first stage, next_stage, noise prefix, pre-excluded) of one of the
    four staged constructions at a level, each written out as the paper
    gives it. A stage is a (tail start, extras) pair, and `next_stage(z, m)`
    builds the next one from the trigger output z and the running max m."""
    markers = frozenset(range(level + 1))
    if construction == "union":  # P_0, then a ramp two above the trigger
        return (0, frozenset()), lambda z, _m: (z + 2, frozenset()), (), ()
    if construction == "omission":  # the markers in every stage, never played
        return (level + 1, markers), lambda _z, m: (m + 1, markers), (), sorted(markers)
    if construction == "noise_prefix":  # the markers as noise, then the union one above
        first = (level + 1, frozenset())
        return first, lambda z, _m: (z + 2, frozenset()), sorted(markers), sorted(markers)
    if construction == "sensitivity":  # P_0, then a ramp above everything so far
        return (0, frozenset()), lambda _z, m: (m + 1, frozenset()), (), ()
    raise ValueError(f"unknown construction {construction!r}")


@dataclass
class StageRecord:
    """One stage of `NaiveStagedAdversary`. Its language is the truth values
    among the first `snapshot_len` values played (none for stage 0), plus
    `extras`, plus the ray from `tail_start`; the stage plays the ramp from
    `tail_start`."""

    index: int
    started_at: int  # first step whose output is judged against this stage
    snapshot_len: int
    tail_start: int
    extras: frozenset[int]
    trigger_time: int | None = None
    trigger_output: int | None = None

    def contains_unseen(self, z: int, emitted_set: set[int]) -> bool:
        """Trigger predicate: z is an unseen member of this stage language."""
        if z in emitted_set:
            return False
        return z in self.extras or z >= self.tail_start


class NaiveStagedAdversary:
    """The staged adversary that keeps one `StageRecord` per stage and every
    value it played in the list `emitted` and the set `emitted_set`, besides
    `limit.seen`, takes its running max with `max`, and writes its limit
    language through the checked `add_seen` and `add_excluded`."""

    adaptive = True

    def __init__(self, first_stage, next_stage, prefix=(), pre_excluded=()) -> None:
        self._next_stage = next_stage
        self.prefix = tuple(prefix)
        self.limit = TranscriptLimitLanguage(excluded=pre_excluded)
        self.emitted: list[int] = []
        self.emitted_set: set[int] = set()
        tail_start, extras = first_stage
        self.stages: list[StageRecord] = [
            StageRecord(0, len(self.prefix), len(self.prefix), tail_start, extras)
        ]
        self._ramp_next = tail_start
        self._pending_negative: int | None = None
        self._negative_step: int | None = None
        self._last_trigger_output: int | None = None
        self._running_max: int | None = None

    @classmethod
    def twin(cls, adversary: StagedAdversary) -> "NaiveStagedAdversary":
        """The reference for an adversary's construction and level, or the
        one a faulty adversary's `reference()` builds from its own plan."""
        if hasattr(adversary, "reference"):
            return adversary.reference()
        return cls(*naive_construction(adversary.construction, adversary.level))

    def play(self, outputs, codes, horizon):
        """`StagedAdversary.play`'s protocol over `emit` and `observe`: yield
        x_t, then react to `outputs[t]` and write `naive_verdict`'s code
        against this adversary's limit language, with every value it played
        as the seen set."""
        for t in range(horizon):
            yield self.emit(t)
            z = outputs[t]
            self.observe(t, z)
            codes[t] = engine._VERDICTS.index(naive_verdict(z, self.limit, self.emitted_set))

    def add_seen(self, x: int) -> None:
        """Record a played truth value; a certified output is never played."""
        if x in self.limit.excluded:
            raise CertificateBroken(f"{x} was committed as never-enumerated")
        self.limit.seen.add(x)

    def add_excluded(self, x: int) -> None:
        """Certify that x is never played: not yet played, and outside the
        promised part."""
        if x in self.limit.seen:
            raise ValueError(f"{x} was already enumerated")
        if x in self.limit.promised:
            raise CertificateBroken(f"{x} lies in the promised part")
        self.limit.excluded.add(x)

    def emit(self, t: int) -> int:
        if t < len(self.prefix):
            v = self.prefix[t]
            self._record_emit(v, is_truth=False)
            return v
        if self._pending_negative is not None:
            v = self._pending_negative
            self._pending_negative = None
            self._negative_step = t
        else:
            v = self._ramp_next
            self._ramp_next += 1
        self._record_emit(v, is_truth=True)
        return v

    def _record_emit(self, v: int, is_truth: bool) -> None:
        if v in self.emitted_set:
            raise AdversaryRepeat(f"adversary repeated {v}")
        self.emitted.append(v)
        self.emitted_set.add(v)
        if is_truth:
            self.add_seen(v)
        self._absorb(v)

    def _absorb(self, v: int) -> None:
        self._running_max = v if self._running_max is None else max(self._running_max, v)

    def observe(self, t: int, output: int) -> None:
        if t < len(self.prefix):
            return
        self._absorb(output)
        current = self.stages[-1]
        if self._negative_step == t:
            tail_start, extras = self._next_stage(self._last_trigger_output, self._running_max)
            self.stages.append(
                StageRecord(current.index + 1, t + 1, len(self.emitted), tail_start, extras)
            )
            self._ramp_next = tail_start
            self._negative_step = None
            return
        if current.contains_unseen(output, self.emitted_set):
            current.trigger_time = t
            current.trigger_output = output
            self.add_excluded(output)
            self._last_trigger_output = output
            self._pending_negative = -(current.index + 1)

    @property
    def certified_mistake_times(self) -> array:
        return array("q", [s.trigger_time for s in self.stages if s.trigger_time is not None])

    def final_stage_mistakes(self, horizon: int) -> int:
        last = self.stages[-1]
        if last.trigger_time is not None:
            return 0
        return max(0, horizon - last.started_at)

    def noise_count(self) -> int:
        return sum(1 for v in self.emitted if self.limit.status(v) != "In")


class FaultyStagedAdversary(StagedAdversary):
    """The staged union construction with faults injected as the data that
    `play` reads when it starts: the given noise prefix, stage 0 the ray from
    `start`, and each rebuilt ray `shift` above the trigger output instead of
    two. Its prefix and ramps may then repeat a value, replay a certified
    output or reach into the promised negatives, which the construction's
    own `play` must refuse. `reference()` is its `NaiveStagedAdversary`."""

    def __init__(self, prefix=(), start: int = 0, shift: int = 2) -> None:
        super().__init__("union")
        self.prefix, self._first_tail, self._gap = tuple(prefix), start, shift
        self.plan = (tuple(prefix), start, shift)

    def reference(self) -> NaiveStagedAdversary:
        prefix, start, shift = self.plan
        return NaiveStagedAdversary(
            (start, frozenset()), lambda z, _m: (z + shift, frozenset()), prefix
        )


# --- the converters that kept every stream entry they read -------------------


class NaiveNoisyFromStream:
    """Skip-seen play that keeps every stream entry it read in a list, behind
    a cursor."""

    def __init__(self, stream) -> None:
        self._iter = stream
        self._memo: list[int] = []
        self._cursor = 0
        self._seen: set[int] = set()

    def _entry(self, j: int) -> int:
        while j >= len(self._memo):
            self._memo.append(next(self._iter))
        return self._memo[j]

    def step(self, revealed: int) -> int:
        self._seen.add(revealed)
        while self._entry(self._cursor) in self._seen:
            self._cursor += 1
        z = self._memo[self._cursor]
        self._cursor += 1
        return z


class NaiveSamplelessFromNoisy:
    """Sampleless play from a sample-consuming base that keeps every base
    output in a list, behind a cursor."""

    def __init__(self, base) -> None:
        self.base = base
        self._memo: list[int] = []
        self._cursor = 0
        self._emitted: set[int] = set()

    def _entry(self, j: int) -> int:
        while j >= len(self._memo):
            self._memo.append(self.base.step(zigzag_encode(len(self._memo))))
        return self._memo[j]

    def step(self, revealed: int | None = None) -> int:
        j = self._cursor
        while self._entry(j) in self._emitted:
            j += 1
            if j - self._cursor > generators.PROBE_CAP:
                raise SearchExhausted("base strategy never produced a fresh value")
        z = self._memo[j]
        self._cursor = j + 1
        self._emitted.add(z)
        return z
