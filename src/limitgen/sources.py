"""String sources: scripted enumerations and adaptive staged adversaries.

A source hands the game loop its values as one iterator, `reveals()`.
A scripted source commits to a target language up front and plays a
deterministic enumeration of it (with declared omissions, noise insertions,
order shuffles, or repetitions). An adaptive source watches the generator's
outputs and switches its intended language in stages, certifying a mistake
each time the generator emits an unseen member of the current stage language.
Every stage, the first one included, is the values played before it plus
some extras plus an upward ray, and plays the ramp up that ray. The source's
`observe` also judges each output, since it holds the sets the verdict
reads. It keeps only the current stage and flat int64 columns of the past
ones, and every value it played once.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import AdversaryRepeat
from .langs import (
    NEGATIVES,
    ClosedFormLanguage,
    TranscriptLimitLanguage,
)

PERMUTATION_BLOCK = 16


class Source:
    """One value per step; adaptive subclasses react to generator outputs
    and judge them, with `observe(t, output)` returning the output's verdict
    code, and keep their own seen set, with `played_count()` the number of
    distinct values played."""

    adaptive = False

    def emit(self, t: int) -> int:
        raise NotImplementedError

    def reveals(self) -> Iterator[int]:
        """The values of steps 0, 1, 2, ..., each pulled when its step is
        played."""
        return map(self.emit, itertools.count())

    def truth_view(self) -> ClosedFormLanguage | TranscriptLimitLanguage:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptedSpec:
    """Declarative description of a scripted enumeration.

    omissions: finite subset of the truth to skip, or "every_other" to keep
    only alternate elements (an infinite-omission subsequence).
    noise: (position, value) insertions; values must lie outside the truth.
    order: "canonical" or "blocks:<seed>" (seeded shuffle inside fixed-size
    blocks, so coverage stays horizon-checkable).
    repeat_seed: when set, each element is repeated 1-5 times (seeded).
    """

    truth: ClosedFormLanguage
    order: str = "canonical"
    omissions: frozenset[int] | str = frozenset()
    noise: tuple[tuple[int, int], ...] = ()
    repeat_seed: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.omissions, str):
            if self.omissions != "every_other":
                raise ValueError(f"unknown omission marker {self.omissions!r}")
        else:
            object.__setattr__(self, "omissions", frozenset(self.omissions))
            for v in self.omissions:
                if v not in self.truth:
                    raise ValueError(f"omission {v} is not in the truth")
        object.__setattr__(self, "noise", tuple(self.noise))
        positions = [p for p, _ in self.noise]
        values = [v for _, v in self.noise]
        if len(set(positions)) != len(positions) or len(set(values)) != len(values):
            raise ValueError("noise positions and values must be unique")
        for v in values:
            if v in self.truth:
                raise ValueError(f"noise value {v} belongs to the truth")
        if self.order != "canonical" and not self.order.startswith("blocks:"):
            raise ValueError(f"unknown order {self.order!r}")

    @property
    def noise_count(self) -> int:
        return len(self.noise)

    def stream(self) -> Iterator[int]:
        """A fresh iterator over the enumeration from its first step. Every
        call plays the same values. It is built from only the stages the
        spec uses, in this order: the truth's canonical order, the
        omissions, the block shuffle, the noise insertions and the repeats.
        A canonical spec with no omissions, noise or repeats plays
        `truth.elements()` itself; for a truth with one infinite part, that
        and the finite omissions are iterators of C builtins, which the game
        loop reads without a Python frame."""
        stream = self.truth.elements()
        if self.omissions == "every_other":
            stream = itertools.islice(stream, 0, None, 2)
        elif self.omissions:
            stream = _omitting(stream, self.omissions)
        if self.order != "canonical":
            stream = _shuffled(stream, int(self.order.split(":", 1)[1]))
        if self.noise:
            stream = _with_noise(stream, dict(self.noise))
        if self.repeat_seed is not None:
            stream = _repeated(stream, random.Random(self.repeat_seed))
        return stream

    def to_record(self) -> dict:
        return {
            "kind": "scripted",
            "truth": self.truth.to_record(),
            "order": self.order,
            "omissions": (
                self.omissions
                if isinstance(self.omissions, str)
                else sorted(self.omissions)
            ),
            "noise": [list(pair) for pair in self.noise],
            "repeat_seed": self.repeat_seed,
        }


class ScriptedSource(Source):
    """Plays its spec's stream once: `reveals()` hands it out a single time,
    and the source keeps none of the values played."""

    def __init__(self, spec: ScriptedSpec) -> None:
        self.spec = spec
        self._played = False

    def reveals(self) -> Iterator[int]:
        # the stream refers to the spec's values only, not back to the
        # source, so a dropped source is freed at once, not by the cycle
        # collector
        if self._played:
            raise ValueError("a scripted source plays its stream once")
        self._played = True
        return self.spec.stream()

    def truth_view(self) -> ClosedFormLanguage:
        return self.spec.truth


# the stages of `ScriptedSpec.stream`; each refers to its input stream and
# its own parameters only, never back to the spec or the source
def _omitting(stream: Iterator[int], omit: frozenset[int]) -> Iterator[int]:
    return itertools.filterfalse(omit.__contains__, stream)


def _shuffled(stream: Iterator[int], seed: int) -> Iterator[int]:
    rng = random.Random(seed)
    while True:
        block = list(itertools.islice(stream, PERMUTATION_BLOCK))
        if not block:
            return
        rng.shuffle(block)
        yield from block


def _with_noise(stream: Iterator[int], schedule: dict[int, int]) -> Iterator[int]:
    for pos in itertools.count():
        if pos in schedule:
            yield schedule[pos]
        else:
            yield next(stream)


def _repeated(stream: Iterator[int], rng: random.Random) -> Iterator[int]:
    for v in stream:
        for _ in range(rng.randint(1, 5)):
            yield v


class StagedAdversary(Source):
    """Shared engine for the staged constructions.

    Every stage's language is the truth values played before it, plus the
    extras, plus the ray from the tail start, and the stage plays the ramp
    from that tail start. Stage 0's `(tail_start, extras)` pair is
    `first_stage`. Whenever the generator outputs an unseen member of the
    current stage language, the adversary records the time, commits never to
    emit that output (the certificate), emits the next unused negative, and
    on the step after it builds the next stage from the pair
    `next_stage(trigger_output, running_max)` gives.

    An optional noise prefix is emitted before stage 0 and counted outside
    the limit language. The limit language promises the negative ray.

    Only the current stage is kept as state; the past ones leave flat int64
    columns: `trigger_times` and `trigger_outputs` (trigger k ends stage k),
    and `tail_starts` (stage k + 1 is built after trigger k, so the current
    stage is `len(tail_starts)`). Every value played is kept once, in
    `limit.seen` or, for the noise prefix, in a set of the prefix values
    played so far.
    """

    adaptive = True

    def __init__(
        self,
        first_stage: tuple[int, frozenset[int]],
        next_stage: Callable[[int, int], tuple[int, frozenset[int]]],
        prefix: Sequence[int] = (),
        pre_excluded: Sequence[int] = (),
    ) -> None:
        self.first_stage = first_stage
        self._next_stage = next_stage
        self.prefix = tuple(prefix)
        self.limit = TranscriptLimitLanguage(promised=NEGATIVES, excluded=pre_excluded)
        self._seen, self._excluded = self.limit.seen, self.limit.excluded
        self.trigger_times = array("q")
        self.trigger_outputs = array("q")
        self.tail_starts = array("q")
        self._play_from = len(self.prefix)  # the first step of stage 0
        # the current stage's language, less the values played: the ray from
        # the tail start and the extras; its ramp plays `_ramp_next` next
        self.stage_start = self._play_from  # first step judged against it
        self._tail_start, self._extras = first_stage
        self._ramp_next = self._tail_start
        self._prefix_shown: set[int] = set()  # noise prefix values played so far
        self._pending_negative: int | None = None
        self._negative_step: int | None = None
        # read only after a trigger, whose output is >= 0, so -1 stands for
        # "nothing yet" without a None test
        self._running_max = -1

    # -- emission ----------------------------------------------------------
    def emit(self, t: int) -> int:
        if t < self._play_from:
            return self._emit_noise(self.prefix[t])
        v = self._pending_negative
        if v is not None:
            self._pending_negative = None
            self._negative_step = t
        else:
            v = self._ramp_next
            self._ramp_next = v + 1
        if v in self._seen or v in self._prefix_shown:
            raise AdversaryRepeat(f"adversary repeated {v}")
        if v in self._excluded:  # a certified output is never played
            raise ValueError(f"{v} was committed as never-enumerated")
        self._seen.add(v)
        if v > self._running_max:
            self._running_max = v
        return v

    def _emit_noise(self, v: int) -> int:
        if v in self._prefix_shown:
            raise AdversaryRepeat(f"adversary repeated {v}")
        self._prefix_shown.add(v)
        if v > self._running_max:
            self._running_max = v
        return v

    def emitted(self, v: int) -> bool:
        """Whether `v` has been played, as a truth value or as noise."""
        return v in self._seen or v in self._prefix_shown

    # -- reaction ----------------------------------------------------------
    def observe(self, t: int, output: int) -> int:
        """React to step t's output (a trigger or a stage rebuild), then
        judge it by `engine.verdict`'s rule, with the values played as the
        seen set: the verdict's code, 0 Correct, 1 Mistake or 2 Unknown."""
        played = output in self._seen or output in self._prefix_shown
        if t >= self._play_from:  # before it, the prefix is noise
            if output > self._running_max:
                self._running_max = output
            if t == self._negative_step:
                # the step after a trigger: rebuild the stage, no trigger check
                tail_start, self._extras = self._next_stage(
                    self.trigger_outputs[-1], self._running_max
                )
                self.stage_start = t + 1
                self._tail_start = self._ramp_next = tail_start
                self.tail_starts.append(tail_start)
                self._negative_step = None
            elif not played and (output >= self._tail_start or output in self._extras):
                # a trigger: an unseen member of the stage language
                self.trigger_times.append(t)
                self.trigger_outputs.append(output)
                # a certificate lies outside the promise; the output is unplayed
                if output < 0:
                    raise ValueError(f"{output} lies in the promised part")
                self._excluded.add(output)
                # trigger k owes the negative -(k + 1)
                self._pending_negative = -len(self.trigger_times)
                return 1
        if played:
            return 1
        if output < 0:  # the promised negatives
            return 0
        return 1 if output in self._excluded else 2

    # -- reporting ---------------------------------------------------------
    def truth_view(self) -> TranscriptLimitLanguage:
        return self.limit

    @property
    def certified_mistake_times(self) -> array:
        """A copy of the trigger times, a sorted int64 column."""
        return self.trigger_times[:]

    def played_count(self) -> int:
        """How many distinct values have been played: the truth values and
        the noise prefix values, which `emit` keeps in two disjoint sets."""
        return len(self._seen) + len(self._prefix_shown)

    @property
    def no_trigger(self) -> bool:
        return not self.trigger_times

    def final_stage_mistakes(self, horizon: int) -> int:
        """Steps judged against the last (never-triggered) stage language.

        Every such step is a mistake against that language: a correct fresh
        output would have triggered.
        """
        if len(self.trigger_times) > len(self.tail_starts):
            return 0
        return max(0, horizon - self.stage_start)

    def noise_count(self) -> int:
        """Values played outside the limit language: the noise prefix values
        that the promised part does not hold."""
        return sum(v >= 0 for v in self._prefix_shown)


_NO_EXTRAS: frozenset[int] = frozenset()  # a stage adding no extras


def staged_union_adversary() -> StagedAdversary:
    """Defeats generators for the union of the suffix family with the
    negatives family: stage 0 is P_0, and later stage languages are the
    revealed set plus a ramp two above the triggering output."""
    return StagedAdversary(
        first_stage=(0, _NO_EXTRAS),
        next_stage=lambda trigger_z, _m: (trigger_z + 2, _NO_EXTRAS),
    )


def omission_adversary(level: int) -> StagedAdversary:
    """Plays enumerations that omit the markers {0..level} (level+1 omissions
    in every stage), defeating strategies that tolerate only `level`. Every
    stage holds the markers as extras under a ramp above them, so stage 0 is
    P_0."""
    markers = frozenset(range(level + 1))
    return StagedAdversary(
        first_stage=(level + 1, markers),
        next_stage=lambda _z, m: (m + 1, markers),
        pre_excluded=sorted(markers),
    )


def noise_prefix_adversary(level: int) -> StagedAdversary:
    """Emits the level+1 noise strings 0..level first, then plays the staged
    union construction transported onto the universe without them: stage 0
    is P_{level+1}."""
    markers = frozenset(range(level + 1))
    return StagedAdversary(
        first_stage=(level + 1, _NO_EXTRAS),
        next_stage=lambda trigger_z, _m: (trigger_z + 2, _NO_EXTRAS),
        prefix=sorted(markers),
        pre_excluded=sorted(markers),
    )


def sensitivity_adversary() -> StagedAdversary:
    """Defeats any fixed-noise-level strategy for rays-plus-negatives; each
    stage's revealed prefix counts as noise against the ramp suffix, at a
    level that grows with the trigger time. Stage 0 is P_0. The noise level
    of stage k + 1 is `trigger_times[k] + 2`: the values played through its
    negative."""
    return StagedAdversary(
        first_stage=(0, _NO_EXTRAS),
        next_stage=lambda _z, m: (m + 1, _NO_EXTRAS),
    )
