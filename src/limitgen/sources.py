"""String sources: scripted enumerations and adaptive staged adversaries.

A scripted source hands the game loop its values as one iterator,
`reveals()`. It commits to a target language up front and plays a
deterministic enumeration of it (with declared omissions, noise insertions,
order shuffles, or repetitions). An adaptive source watches the generator's
outputs and switches its intended language in stages, certifying a mistake
each time the generator emits an unseen member of the current stage language.
It is described whole by its construction and level, and plays as one
generator, `play`, that yields each step's value and, when resumed, reads
the step's output, reacts to it and judges it, since it holds the sets the
verdict reads: the values played and the values certified never to be.
Every stage, the first one included, is the values played before it plus
some extras plus an upward ray, and plays the ramp up that ray. The current
stage lives in `play`'s locals; the adversary keeps one flat int64 column of
the past ones, their trigger times, and every value it played once.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import AdversaryRepeat, CertificateBroken
from .langs import ClosedFormLanguage

PERMUTATION_BLOCK = 16


class Source:
    """One value per step. A source that does not react hands out its values
    as one iterator, `reveals()`, and declares its truth, `truth_view()`. An
    adaptive source plays as a generator instead, `play(outputs, codes,
    horizon)`, which reads each output from the run's column, reacts to it
    and writes its verdict's code, and keeps its own seen set, with
    `played_count()` the number of distinct values played.

    `emit` and `observe` are stubs that no source defines: the benchmark's
    tracer (`bench/tracer.py`) wraps `ScriptedSource.emit`,
    `StagedAdversary.emit` and `StagedAdversary.observe` by name."""

    adaptive = False

    def emit(self, t: int) -> int:
        raise NotImplementedError

    def observe(self, t: int, output: int) -> int:
        raise NotImplementedError

    def reveals(self) -> Iterator[int]:
        """The values of steps 0, 1, 2, ..., each pulled when its step is
        played."""
        raise NotImplementedError

    def truth_view(self) -> ClosedFormLanguage:
        raise NotImplementedError


@dataclass(frozen=True)
class ScriptedSpec:
    """Declarative description of a scripted enumeration.

    omissions: finite subset of the truth to skip, or "every_other" to keep
    only alternate elements (an infinite-omission subsequence).
    noise: (position, value) insertions; values must lie outside the truth.
    order: "canonical" or "blocks:<seed>" (seeded shuffle inside fixed-size
    blocks, so coverage stays horizon-checkable); the seed is an integer as
    `str` spells it, with no "+", space or leading zero.
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
        if self.order != "canonical":
            # one spelling per seed, so the header names the order played
            seed = self.order.removeprefix("blocks:")
            if not seed.removeprefix("-").isdecimal() or self.order != f"blocks:{int(seed)}":
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
        `truth.elements()` itself; that and the finite omissions are
        iterators of C builtins, which the game loop reads without a Python
        frame."""
        stream = self.truth.elements()
        if self.omissions == "every_other":
            stream = itertools.islice(stream, 0, None, 2)
        elif self.omissions:
            stream = itertools.filterfalse(self.omissions.__contains__, stream)
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
    """One of the paper's four staged constructions at a level: "union"
    (thm3.1), "omission" (thm4.8), "noise_prefix" (thm5.2) or "sensitivity"
    (thm5.4). Union and sensitivity take level 0 only.

    Every stage's language is the truth values played before it, plus the
    extras, plus the ray from the tail start, and the stage plays the ramp
    from that tail start. Omission and noise prefix have the markers
    {0..level}, which are pre-certified never to be played: omission holds
    them as every stage's extras, and noise prefix plays them first, as
    noise outside the limit language. Stage 0's ray starts just above the
    markers. Whenever the generator outputs an unseen member of the current
    stage language, the adversary records the time, commits never to emit
    that output (the certificate), emits the next unused negative, and on
    the step after it rebuilds the stage with its ray one above the running
    max (omission, sensitivity) or two above the trigger output (union,
    noise prefix). The limit language promises the negative ray.

    The adversary plays as one generator, `play`, whose locals hold the
    current stage; the past ones leave one flat int64 column,
    `trigger_times` (trigger k ends stage k; stage k + 1 starts two steps
    after it, its negative coming between). The rest is in the transcript:
    trigger k's output is the output at its time, and a stage's tail start
    is the reveal at its start step. Every value played is kept once, in
    `seen` or, for the noise prefix, in a set of the prefix values played so
    far; the certified outputs and the markers are in `excluded`.
    """

    adaptive = True

    def __init__(self, construction: str, level: int = 0) -> None:
        marked, self._above_max = _CONSTRUCTIONS[construction]
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if level and not marked:
            raise ValueError(f"the {construction} construction takes level 0 only, got {level}")
        self.construction, self.level = construction, level
        markers = range(level + 1) if marked else range(0)
        self.prefix = () if self._above_max else tuple(markers)
        self._extras = frozenset(markers) if self._above_max else frozenset()
        self._first_tail = len(markers)  # stage 0's ray starts above the markers
        # a rebuilt ray starts this far above the running max or the trigger output
        self._gap = 1 if self._above_max else 2
        self.seen: set[int] = set()
        self.excluded: set[int] = set(markers)
        self.trigger_times = array("q")
        self._prefix_shown: set[int] = set()  # noise prefix values played so far

    def play(self, outputs: Sequence[int], codes: bytearray, horizon: int) -> Iterator[int]:
        """Play `horizon` steps: yield x_t, and when resumed read the
        strategy's output z_t at `outputs[t]`, react to it (a trigger or a
        stage rebuild) and judge it against the limit language. A played or
        certified output is a Mistake, a promised negative Correct, and any
        other Unknown; the verdict's code (1 Mistake, 2 Unknown) goes to
        `codes[t]`, and a Correct leaves its zero byte. The generator stops
        once step `horizon - 1` is judged. It reads each output once, after
        yielding its step's value, so it can replay a recorded column."""
        seen, shown, excluded = self.seen, self._prefix_shown, self.excluded
        extras, triggers = self._extras, self.trigger_times
        t = 0
        for v in self.prefix[:horizon]:  # noise, judged but never reacted to
            if v in shown:
                raise AdversaryRepeat(f"adversary repeated {v}")
            shown.add(v)
            yield v
            z = outputs[t]
            if z in seen or z in shown:
                codes[t] = 1
            elif z >= 0:
                codes[t] = 1 if z in excluded else 2
            t += 1
        tail = ramp = self._first_tail
        # the running max rule's constructions play no prefix, so the max
        # starts here
        above_max, gap, running_max = self._above_max, self._gap, -1
        trigger_output = None  # set on a trigger's step, while its negative is owed
        while t < horizon:
            if trigger_output is None:
                v = ramp
                ramp = v + 1
            else:  # trigger k owes the negative -(k + 1)
                v = -len(triggers)
            if v in seen or v in shown:
                raise AdversaryRepeat(f"adversary repeated {v}")
            if v in excluded:  # a certified output is never played
                raise CertificateBroken(f"{v} was committed as never-enumerated")
            seen.add(v)
            if v > running_max:
                running_max = v
            yield v
            z = outputs[t]
            if z > running_max:
                running_max = z
            played = z in seen or z in shown
            if trigger_output is not None:  # the negative's step rebuilds the stage
                tail = ramp = (running_max if above_max else trigger_output) + gap
                trigger_output = None
            elif not played and (z >= tail or z in extras):
                # a trigger: an unseen member of the stage language
                triggers.append(t)
                # a certificate lies outside the promise; the output is unplayed
                if z < 0:
                    raise CertificateBroken(f"{z} lies in the promised part")
                excluded.add(z)
                trigger_output = z
                codes[t] = 1
                t += 1
                continue
            if played:
                codes[t] = 1
            elif z >= 0:  # the negatives are promised
                codes[t] = 1 if z in excluded else 2
            t += 1

    def emitted(self, v: int) -> bool:
        """Whether `v` has been played, as a truth value or as noise."""
        return v in self.seen or v in self._prefix_shown

    # -- reporting ---------------------------------------------------------
    @property
    def certified_mistake_times(self) -> array:
        """A copy of the trigger times, a sorted int64 column."""
        return self.trigger_times[:]

    def played_count(self) -> int:
        """How many distinct values have been played: the truth values and
        the noise prefix values, which `play` keeps in two disjoint sets."""
        return len(self.seen) + len(self._prefix_shown)

    def final_stage_mistakes(self, horizon: int) -> int:
        """Steps of a finished `horizon`-step play judged against its last,
        never-triggered stage language.

        Every such step is a mistake against that language: a correct fresh
        output would have triggered. The last stage starts two steps after
        the last trigger, or after the noise prefix when nothing triggered;
        a trigger on one of the last two steps leaves none.
        """
        times = self.trigger_times
        return max(0, horizon - (times[-1] + 2 if times else len(self.prefix)))

    def noise_count(self) -> int:
        """Values played outside the limit language: the noise prefix values
        that the promised part does not hold."""
        return sum(v >= 0 for v in self._prefix_shown)


# construction: (it has the markers {0..level}, it rebuilds one above the
# running max rather than two above the trigger output). The max rule's
# markers are every stage's extras, the trigger rule's a noise prefix; union
# is noise prefix with no markers, and sensitivity is omission with none.
_CONSTRUCTIONS = {
    "union": (False, False),
    "noise_prefix": (True, False),
    "sensitivity": (False, True),
    "omission": (True, True),
}


def staged_union_adversary() -> StagedAdversary:
    """Defeats generators for the union of the suffix family with the
    negatives family: stage 0 is P_0, and later stage languages are the
    revealed set plus a ramp two above the triggering output."""
    return StagedAdversary("union")


def omission_adversary(level: int) -> StagedAdversary:
    """Plays enumerations that omit the markers {0..level} (level+1 omissions
    in every stage), defeating strategies that tolerate only `level`. Every
    stage holds the markers as extras under a ramp above them, so stage 0 is
    P_0."""
    return StagedAdversary("omission", level)


def noise_prefix_adversary(level: int) -> StagedAdversary:
    """Emits the level+1 noise strings 0..level first, then plays the staged
    union construction transported onto the universe without them: stage 0
    is P_{level+1}."""
    return StagedAdversary("noise_prefix", level)


def sensitivity_adversary() -> StagedAdversary:
    """Defeats any fixed-noise-level strategy for rays-plus-negatives; each
    stage's revealed prefix counts as noise against the ramp suffix, at a
    level that grows with the trigger time. Stage 0 is P_0. The noise level
    of stage k + 1 is `trigger_times[k] + 2`: the values played through its
    negative."""
    return StagedAdversary("sensitivity")
