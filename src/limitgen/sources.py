"""String sources: scripted enumerations and adaptive staged adversaries.

A source hands the game loop its values as one iterator, `reveals()`.
A scripted source commits to a target language up front and plays a
deterministic enumeration of it (with declared omissions, noise insertions,
order shuffles, or repetitions). An adaptive source watches the generator's
outputs and switches its intended language in stages, certifying a mistake
each time the generator emits an unseen member of the current stage language.
It is described whole by its construction and level. Every stage, the first
one included, is the values played before it plus some extras plus an upward
ray, and plays the ramp up that ray. The source's `observe` also judges each
output, since it holds the sets the verdict reads: the values played and the
values certified never to be. It keeps only the current stage and one flat
int64 column of the past ones, their trigger times, and every value it played
once.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import Iterator

from .errors import AdversaryRepeat, CertificateBroken
from .langs import ClosedFormLanguage

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
    (thm5.4).

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

    Only the current stage is kept as state; the past ones leave one flat
    int64 column, `trigger_times` (trigger k ends stage k; stage k + 1 is
    built on the step after it). The rest is in the transcript: trigger k's
    output is the output at its time, and a stage's tail start is the reveal
    at its start step. Every value played is kept once, in `seen` or, for
    the noise prefix, in a set of the prefix values played so far; the
    certified outputs and the markers are in `excluded`.
    """

    adaptive = True

    def __init__(self, construction: str, level: int = 0) -> None:
        marked, self._above_max = _CONSTRUCTIONS[construction]
        self.construction, self.level = construction, level
        markers = range(level + 1) if marked else range(0)
        self.prefix = () if self._above_max else tuple(markers)
        self._extras = frozenset(markers) if self._above_max else frozenset()
        self.seen: set[int] = set()
        self.excluded: set[int] = set(markers)
        self.trigger_times = array("q")
        self._play_from = len(self.prefix)  # the first step of stage 0
        # the current stage's language, less the values played: the ray from
        # the tail start and the extras; its ramp plays `_ramp_next` next
        self._tail_start = self._ramp_next = len(markers)
        self._prefix_shown: set[int] = set()  # noise prefix values played so far
        # the step after the last trigger while its rebuild is pending: it
        # plays the trigger's negative and rebuilds the stage; else -1, which
        # no step equals
        self._rebuild_at = -1
        # read only after a trigger, whose output is >= 0, so -1 stands for
        # "nothing yet" without a None test
        self._trigger_output = -1  # the last trigger's, for the next rebuild
        self._running_max = -1

    # -- emission ----------------------------------------------------------
    def emit(self, t: int) -> int:
        if t < self._play_from:
            return self._emit_noise(self.prefix[t])
        if t == self._rebuild_at:  # trigger k owes the negative -(k + 1)
            v = -len(self.trigger_times)
        else:
            v = self._ramp_next
            self._ramp_next = v + 1
        if v in self.seen or v in self._prefix_shown:
            raise AdversaryRepeat(f"adversary repeated {v}")
        if v in self.excluded:  # a certified output is never played
            raise CertificateBroken(f"{v} was committed as never-enumerated")
        self.seen.add(v)
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
        return v in self.seen or v in self._prefix_shown

    # -- reaction ----------------------------------------------------------
    def observe(self, t: int, output: int) -> int:
        """React to step t's output (a trigger or a stage rebuild), then
        judge it against the limit language: a played or certified output is
        a Mistake, a promised negative Correct, and any other Unknown. The
        verdict's code, 0 Correct, 1 Mistake or 2 Unknown."""
        played = output in self.seen or output in self._prefix_shown
        if t >= self._play_from:  # before it, the prefix is noise
            if output > self._running_max:
                self._running_max = output
            if t == self._rebuild_at:
                # the step after a trigger: rebuild the stage, no trigger check
                self._tail_start = self._ramp_next = (
                    self._running_max + 1 if self._above_max else self._trigger_output + 2
                )
                self._rebuild_at = -1
            elif not played and (output >= self._tail_start or output in self._extras):
                # a trigger: an unseen member of the stage language
                self.trigger_times.append(t)
                self._trigger_output = output
                self._rebuild_at = t + 1
                # a certificate lies outside the promise; the output is unplayed
                if output < 0:
                    raise CertificateBroken(f"{output} lies in the promised part")
                self.excluded.add(output)
                return 1
        if played:
            return 1
        if output < 0:  # the promised negatives
            return 0
        return 1 if output in self.excluded else 2

    # -- reporting ---------------------------------------------------------
    @property
    def certified_mistake_times(self) -> array:
        """A copy of the trigger times, a sorted int64 column."""
        return self.trigger_times[:]

    def played_count(self) -> int:
        """How many distinct values have been played: the truth values and
        the noise prefix values, which `emit` keeps in two disjoint sets."""
        return len(self.seen) + len(self._prefix_shown)

    @property
    def stage_start(self) -> int:
        """The first step judged against the current stage, stage k: two
        after trigger k - 1, whose negative comes between. k counts the
        triggers, less the last one while its rebuild is pending."""
        k = len(self.trigger_times) - (self._rebuild_at >= 0)
        return self.trigger_times[k - 1] + 2 if k else self._play_from

    def final_stage_mistakes(self, horizon: int) -> int:
        """Steps judged against the last (never-triggered) stage language.

        Every such step is a mistake against that language: a correct fresh
        output would have triggered. A stage whose trigger's rebuild is
        still pending has triggered, so it has none.
        """
        if self._rebuild_at >= 0:
            return 0
        return max(0, horizon - self.stage_start)

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
