"""String sources: scripted enumerations and adaptive staged adversaries.

A scripted source commits to a target language up front and plays a
deterministic enumeration of it (with declared omissions, noise insertions,
order shuffles, or repetitions). An adaptive source watches the generator's
outputs and switches its intended language in stages, certifying a mistake
each time the generator emits an unseen member of the current stage language.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import AdversaryRepeat
from .langs import (
    NEGATIVES,
    ClosedFormLanguage,
    TranscriptLimitLanguage,
    suffix_from,
)

PERMUTATION_BLOCK = 16


class Source:
    """One value per step; adaptive subclasses react to generator outputs."""

    adaptive = False

    def emit(self, t: int) -> int:
        raise NotImplementedError

    def observe(self, t: int, output: int) -> None:
        pass

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
    adaptive = False

    def __init__(self, spec: ScriptedSpec) -> None:
        self.spec = spec
        self._memo: list[int] = []
        self._iter = self._build()

    # stream pipeline: base order -> omissions -> block shuffle -> noise -> repeats
    def _base(self) -> Iterator[int]:
        elems = self.spec.truth.elements()
        if self.spec.omissions == "every_other":
            return itertools.islice(elems, 0, None, 2)
        omit = self.spec.omissions
        return (v for v in elems if v not in omit)

    def _ordered(self) -> Iterator[int]:
        base = self._base()
        if self.spec.order == "canonical":
            yield from base
            return
        seed = int(self.spec.order.split(":", 1)[1])
        rng = random.Random(seed)
        while True:
            block = list(itertools.islice(base, PERMUTATION_BLOCK))
            if not block:
                return
            rng.shuffle(block)
            yield from block

    def _with_noise(self) -> Iterator[int]:
        schedule = dict(self.spec.noise)
        ordered = self._ordered()
        for pos in itertools.count():
            if pos in schedule:
                yield schedule[pos]
            else:
                yield next(ordered)

    def _build(self) -> Iterator[int]:
        stream = self._with_noise()
        if self.spec.repeat_seed is None:
            return stream
        rng = random.Random(self.spec.repeat_seed)

        def repeated() -> Iterator[int]:
            for v in stream:
                for _ in range(rng.randint(1, 5)):
                    yield v

        return repeated()

    def emit(self, t: int) -> int:
        while t >= len(self._memo):
            self._memo.append(next(self._iter))
        return self._memo[t]

    def truth_view(self) -> ClosedFormLanguage:
        return self.spec.truth


@dataclass
class StageRecord:
    """One stage: its language is the emitted prefix (up to snapshot_len,
    minus `dropped`), plus `extras`, plus the upward ray from tail_start.
    Stage 0 instead carries an explicit base language."""

    index: int
    started_at: int  # first step whose output is judged against this stage
    snapshot_len: int = 0
    tail_start: int | None = None
    extras: frozenset[int] = frozenset()
    dropped: frozenset[int] = frozenset()
    base: ClosedFormLanguage | None = None  # stage 0 only
    trigger_time: int | None = None
    trigger_output: int | None = None
    declared_noise_level: int | None = None

    def contains_unseen(self, z: int, emitted_set: set[int]) -> bool:
        """Trigger predicate: z is an unseen member of this stage language.

        The emitted-prefix part of the language can never hold an unseen z,
        so only the ray, the extras, and stage 0's base matter.
        """
        if z in emitted_set:
            return False
        if self.base is not None:
            return z in self.base
        return z in self.extras or z >= self.tail_start


@dataclass(frozen=True)
class StagePlan:
    """How to build the next stage after a trigger."""

    tail_start: int
    extras: frozenset[int] = frozenset()
    dropped: frozenset[int] = frozenset()


class StagedAdversary(Source):
    """Shared engine for the staged constructions.

    Stage 0 plays a fixed enumeration of `stage0_language`. Whenever the
    generator outputs an unseen member of the current stage language, the
    adversary records the time, commits never to emit that output (the
    certificate), emits the next unused negative, and rebuilds the stage
    around a fresh upward ramp that stays above everything played so far.

    An optional noise prefix is emitted before stage 0 and counted outside
    the limit language. The limit language promises the negative ray.
    """

    adaptive = True

    def __init__(
        self,
        stage0_value: Callable[[int], int],
        stage0_language: ClosedFormLanguage,
        next_stage: Callable[[int, int], StagePlan],
        prefix: Sequence[int] = (),
        pre_excluded: Sequence[int] = (),
        noise_level_at: Callable[[int], int] | None = None,
    ) -> None:
        self._stage0_value = stage0_value
        self._next_stage = next_stage
        self.prefix = tuple(prefix)
        self.limit = TranscriptLimitLanguage(promised=NEGATIVES, excluded=pre_excluded)
        self.emitted: list[int] = []
        self.emitted_set: set[int] = set()
        self._noise_level_at = noise_level_at
        self.stages: list[StageRecord] = [
            StageRecord(0, started_at=len(self.prefix), base=stage0_language)
        ]
        self._stage0_pos = 0
        self._ramp_next: int | None = None
        self._pending_negative: int | None = None
        self._negative_step: int | None = None
        self._last_trigger_output: int | None = None
        self._running_max: int | None = None

    # -- emission ----------------------------------------------------------
    def emit(self, t: int) -> int:
        if t < len(self.prefix):
            v = self.prefix[t]
            self._record_emit(v, is_truth=False)
            return v
        if self._pending_negative is not None:
            v = self._pending_negative
            self._pending_negative = None
            self._negative_step = t
        elif self._ramp_next is not None:
            v = self._ramp_next
            self._ramp_next += 1
        else:
            v = self._stage0_value(self._stage0_pos)
            self._stage0_pos += 1
        self._record_emit(v, is_truth=True)
        return v

    def _record_emit(self, v: int, is_truth: bool) -> None:
        if v in self.emitted_set:
            raise AdversaryRepeat(f"adversary repeated {v}")
        self.emitted.append(v)
        self.emitted_set.add(v)
        if is_truth:
            self.limit.add_seen(v)
        self._absorb(v)

    def _absorb(self, v: int) -> None:
        self._running_max = v if self._running_max is None else max(self._running_max, v)

    # -- reaction ----------------------------------------------------------
    def observe(self, t: int, output: int) -> None:
        if t < len(self.prefix):
            return  # the prefix is noise; staged play has not started
        self._absorb(output)
        current = self.stages[-1]
        if self._negative_step == t:
            # the step after a trigger: rebuild the stage, no trigger check
            plan = self._next_stage(self._last_trigger_output, self._running_max)
            record = StageRecord(
                current.index + 1,
                started_at=t + 1,
                snapshot_len=len(self.emitted),
                tail_start=plan.tail_start,
                extras=plan.extras,
                dropped=plan.dropped,
            )
            if self._noise_level_at is not None:
                record.declared_noise_level = self._noise_level_at(t)
            self.stages.append(record)
            self._ramp_next = plan.tail_start
            self._negative_step = None
            return
        if current.contains_unseen(output, self.emitted_set):
            current.trigger_time = t
            current.trigger_output = output
            self.limit.add_excluded(output)
            self._last_trigger_output = output
            self._pending_negative = -(current.index + 1)

    # -- reporting ---------------------------------------------------------
    def truth_view(self) -> TranscriptLimitLanguage:
        return self.limit

    @property
    def certified_mistake_times(self) -> tuple[int, ...]:
        return tuple(s.trigger_time for s in self.stages if s.trigger_time is not None)

    @property
    def no_trigger(self) -> bool:
        return not self.certified_mistake_times

    def final_stage_mistakes(self, horizon: int) -> int:
        """Steps judged against the last (never-triggered) stage language.

        Every such step is a mistake against that language: a correct fresh
        output would have triggered.
        """
        last = self.stages[-1]
        if last.trigger_time is not None:
            return 0
        return max(0, horizon - last.started_at)

    def noise_count(self) -> int:
        return sum(1 for v in self.emitted if self.limit.status(v) != "In")


def staged_union_adversary() -> StagedAdversary:
    """Defeats generators for the union of the suffix family with the
    negatives family: stage languages are the revealed set plus a ramp two
    above the triggering output."""
    return StagedAdversary(
        stage0_value=lambda k: k,
        stage0_language=suffix_from(0),
        next_stage=lambda trigger_z, _m: StagePlan(tail_start=trigger_z + 2),
    )


def omission_adversary(level: int) -> StagedAdversary:
    """Plays enumerations that omit the markers {0..level} (level+1 omissions
    in every stage), defeating strategies that tolerate only `level`."""
    markers = frozenset(range(level + 1))
    return StagedAdversary(
        stage0_value=lambda k: k + level + 1,
        stage0_language=suffix_from(0),
        next_stage=lambda _z, m: StagePlan(tail_start=m + 1, extras=markers),
        pre_excluded=sorted(markers),
    )


def noise_prefix_adversary(level: int) -> StagedAdversary:
    """Emits the level+1 noise strings 0..level first, then plays the staged
    union construction transported onto the universe without them."""
    markers = frozenset(range(level + 1))
    return StagedAdversary(
        stage0_value=lambda k: k + level + 1,
        stage0_language=suffix_from(level + 1),
        next_stage=lambda trigger_z, _m: StagePlan(
            tail_start=trigger_z + 2, dropped=markers
        ),
        prefix=sorted(markers),
        pre_excluded=sorted(markers),
    )


def sensitivity_adversary() -> StagedAdversary:
    """Defeats any fixed-noise-level strategy for rays-plus-negatives; each
    stage's revealed prefix counts as noise against the ramp suffix, at a
    declared level that grows with the trigger time."""
    return StagedAdversary(
        stage0_value=lambda k: k,
        stage0_language=suffix_from(0),
        next_stage=lambda _z, m: StagePlan(tail_start=m + 1),
        noise_level_at=lambda negative_step: negative_step + 1,
    )
