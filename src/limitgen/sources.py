"""String sources: scripted enumerations and adaptive staged adversaries.

A scripted source hands the game loop its values as one iterator,
`reveals()`. It commits to a target language up front and plays a
deterministic enumeration of it (with declared omissions, noise insertions,
order shuffles, or repetitions). An adaptive source watches the generator's
outputs and switches its intended language in stages, certifying a mistake
each time the generator emits an unseen member of the current stage language.
It is described whole by its construction and level, and plays the whole
game in one loop, `play(step, records, horizon)`: each step it records
its value, calls the strategy's `step` on it, records the output, reacts
to it and judges it, since it holds the sets the verdict reads: the values
played and the values certified never to be.
Every stage, the first one included, is the values played before it plus
some extras plus an upward ray, and plays the ramp up that ray; a noise
prefix is the ramp just below stage 0's ray. The current stage lives in
`play`'s locals; the adversary keeps one flat int64 column of the past
ones, their trigger times, and every value it played once. What a played
game shows, such as its noise prefix or its owed negatives, is read from
the transcript's columns, not from the adversary.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import AdversaryRepeat, CertificateBroken
from .langs import ClosedFormLanguage, is_int

if TYPE_CHECKING:
    from .engine import Transcript

PERMUTATION_BLOCK = 16


class Source:
    """One value per step. A source that does not react hands out its values
    as one iterator, `reveals()`, and declares its truth, `truth_view()`. An
    adaptive source plays the game itself instead, `play(step, records,
    horizon)`: it hands each value to the strategy's `step`, records the
    value and the output in the run's columns, reacts to the output and
    writes its verdict's code. It keeps every value it played once, in
    `seen`, and reports its certified mistakes as `trigger_times` and
    `final_stage_mistakes(horizon)`. Both kinds give their trace header's
    `source` record as `header()`; a scripted one holds the truth.

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

    omissions: finite subset of the truth to skip, each an int, or
    "every_other" to keep only alternate elements (an infinite-omission
    subsequence).
    noise: (position, value) insertions; a position is a non-negative int,
    and a value an int outside the truth.
    order: "canonical" or "blocks:<seed>" (seeded shuffle inside fixed-size
    blocks, so coverage stays horizon-checkable); the seed is a non-negative
    integer as `str` spells it, with no "+", space or leading zero.
    repeat_seed: when set, a non-negative int: each element is repeated 1-5
    times (seeded).

    A seed is never negative: `random.Random(n)` seeds with `abs(n)`, so
    seeds -n and n would play one order under two names.
    """

    truth: ClosedFormLanguage
    order: str = "canonical"
    omissions: frozenset[int] | str = frozenset()
    noise: tuple[tuple[int, int], ...] = ()
    repeat_seed: int | None = None

    def __post_init__(self) -> None:
        # the header writes the spec as given, so a bool written as `true`,
        # a float or a noise position never played is refused
        seed = self.repeat_seed
        if seed is not None and not is_int(seed):
            raise TypeError(f"repeat_seed must be an int or None, got {seed!r}")
        if seed is not None and seed < 0:
            raise ValueError(f"repeat_seed must be non-negative, got {seed}")
        if isinstance(self.omissions, str):
            if self.omissions != "every_other":
                raise ValueError(f"unknown omission marker {self.omissions!r}")
        else:
            object.__setattr__(self, "omissions", frozenset(self.omissions))
            for v in self.omissions:
                if not is_int(v):
                    raise TypeError(f"an omission must be an int, got {v!r}")
                if v not in self.truth:
                    raise ValueError(f"omission {v} is not in the truth")
        object.__setattr__(self, "noise", tuple(self.noise))
        positions = [p for p, _ in self.noise]
        for p in positions:
            if not is_int(p) or p < 0:
                raise ValueError(f"noise position must be a non-negative int, got {p!r}")
        values = [v for _, v in self.noise]
        for v in values:
            if not is_int(v):
                raise TypeError(f"a noise value must be an int, got {v!r}")
        if len(set(positions)) != len(positions) or len(set(values)) != len(values):
            raise ValueError("noise positions and values must be unique")
        for v in values:
            if v in self.truth:
                raise ValueError(f"noise value {v} belongs to the truth")
        if self.order != "canonical":
            # one spelling per seed, so the header names the order played
            seed = self.order.removeprefix("blocks:")
            if not seed.isdecimal() or self.order != f"blocks:{int(seed)}":
                raise ValueError(
                    f"unknown order {self.order!r}: its seed is a non-negative int as str spells it"
                )

    def stream(self) -> Iterator[int]:
        """A fresh iterator over the enumeration from its first step. Every
        call plays the same values. It is built from only the stages the
        spec uses, in this order: the truth's canonical order, the
        omissions, the block shuffle, the noise insertions and the repeats.
        A canonical spec with no omissions, noise or repeats plays
        `truth.elements()` itself. Every stage is an iterator of C builtins,
        so the game loop reads a value without a Python frame; only the
        shuffle calls one Python function, once per block."""
        stream = self.truth.elements()
        if self.omissions == "every_other":
            stream = itertools.islice(stream, 0, None, 2)
        elif self.omissions:
            stream = itertools.filterfalse(self.omissions.__contains__, stream)
        if self.order != "canonical":
            stream = _shuffled(stream, int(self.order.split(":", 1)[1]))
        if self.noise:
            stream = _with_noise(stream, self.noise)
        if self.repeat_seed is not None:
            stream = _repeated(stream, self.repeat_seed)
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

    def header(self) -> dict:
        return {"source": self.spec.to_record()}


# the stages of `ScriptedSpec.stream`; each refers to its input stream and
# its own parameters only, never back to the spec or the source. They draw
# from `getrandbits` as `random.shuffle` and `randint(1, 5)` do today, since
# the `random` docs allow those algorithms to change across versions.

# random.shuffle's swaps over a block: (i, bits of i + 1), i from last to 1
_SWAPS = tuple((i, (i + 1).bit_length()) for i in range(PERMUTATION_BLOCK - 1, 0, -1))


def _shuffled(stream: Iterator[int], seed: int) -> Iterator[int]:
    getrandbits = random.Random(seed).getrandbits

    def shuffle(block: tuple[int, ...]) -> list[int]:
        out = list(block)
        for i, bits in _SWAPS:
            j = getrandbits(bits)  # drawn again until it is in 0..i
            while j > i:
                j = getrandbits(bits)
            out[i], out[j] = out[j], out[i]
        return out

    # every truth is infinite, so every block is full
    blocks = zip(*(stream,) * PERMUTATION_BLOCK)
    return itertools.chain.from_iterable(map(shuffle, blocks))


def _with_noise(stream: Iterator[int], noise: tuple[tuple[int, int], ...]) -> Iterator[int]:
    parts: list[Iterable[int]] = []
    start = 0  # the stream's values fill the positions from here to the next noise
    for pos, value in sorted(noise):
        parts += itertools.islice(stream, pos - start), (value,)
        start = pos + 1
    return itertools.chain(*parts, stream)


def _repeated(stream: Iterator[int], seed: int) -> Iterator[int]:
    # a count is 1 plus the first 3-bit draw below 5, as randint(1, 5) draws it
    draws = map(random.Random(seed).getrandbits, itertools.repeat(3))
    counts = map((1).__add__, filter((5).__gt__, draws))
    return itertools.chain.from_iterable(map(itertools.repeat, stream, counts))


class StagedAdversary(Source):
    """One of the paper's four staged constructions at a level: "union"
    (thm3.1), "omission" (thm4.8), "noise_prefix" (thm5.2) or "sensitivity"
    (thm5.4). Union and sensitivity take level 0 only, and no level is
    negative; any other construction is a ValueError, and a level that is
    not an int (a bool included) a TypeError.

    Every stage's language is the truth values played before it, plus the
    extras, plus the ray from the tail start, and the stage plays the ramp
    from that tail start. Omission and noise prefix have the markers
    {0..level}, which are pre-certified never to be played: omission holds
    them as every stage's extras, and noise prefix plays them first, as
    noise outside the limit language. Stage 0's ray starts just above the
    markers, so the noise prefix is the ramp just below it: one loop plays
    both, and only a ramp step at or above the tail can trigger. Whenever
    the generator outputs an unseen member of the current stage language,
    the adversary records the time, commits never to emit that output (the
    certificate), emits the next unused negative, and on the step after it
    rebuilds the stage with its ray one above the running max (omission,
    sensitivity) or two above the trigger output (union, noise prefix). The
    limit language promises the negative ray.

    The adversary plays the game in one call, `play`, whose locals hold
    the current stage; the past ones leave one flat int64 column,
    `trigger_times` (trigger k ends stage k; stage k + 1 starts two steps
    after it, its negative coming between), which is also the run's report
    of its certified mistakes. The rest is in the transcript:
    trigger k's output is the output at its time, and a stage's tail start
    is the reveal at its start step, and the noise prefix is the first
    `len(prefix)` reveals. Every value played, the noise prefix included,
    is kept once in `seen`, which the guards and the verdict read; the
    certified outputs and the markers are in `excluded`.
    It plays one game, and is deterministic given the outputs: its header
    names its construction and level, and a fresh one's `play` fed a trace's
    outputs gives back the trace's reveals, verdicts and trigger times.
    """

    adaptive = True

    def __init__(self, construction: str, level: int = 0) -> None:
        if construction not in _CONSTRUCTIONS:
            names = ", ".join(map(repr, _CONSTRUCTIONS))
            raise ValueError(f"unknown construction {construction!r}, not one of {names}")
        if not is_int(level):
            raise TypeError(f"level must be an int, got {level!r}")
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

    def play(self, step: Callable[[int], int], records: Transcript, horizon: int) -> None:
        """Play `horizon` steps against `step`, the strategy's per-step
        call, in one loop. Each step appends x_t to `records.reveals` (the
        next ramp value, the noise prefix's values first, or an owed
        negative), calls `z_t = step(x_t)` and appends z_t to
        `records.outputs`, then reacts to it (a trigger or a stage rebuild)
        and judges it against the limit language. A played or certified
        output is a Mistake, a promised negative Correct, and any other
        Unknown; a trigger's output is judged by the same rule, just
        certified. The verdict's code (1 Mistake, 2 Unknown) goes to
        `records.codes[t]`, and a Correct leaves its zero byte. A guard
        refuses a value before it is recorded. The adversary reads each
        output only from what `step` returns, so a `step` that returns a
        recorded output column replays that run. A played adversary is
        refused before anything is recorded."""
        seen, excluded = self.seen, self.excluded
        if seen:
            raise ValueError("a staged adversary plays its game once")
        extras, triggers = self._extras, self.trigger_times
        reveal, put_z, codes = records.reveals.append, records.outputs.append, records.codes
        above_max, gap, running_max = self._above_max, self._gap, -1
        tail = self._first_tail
        ramp = tail - len(self.prefix)  # the noise prefix is the ramp just below the tail
        trigger_output = None  # set on a trigger's step, while its negative is owed
        for t in range(horizon):
            if trigger_output is None:
                v = ramp
                ramp = v + 1
            else:  # trigger k owes the negative -(k + 1)
                v = -len(triggers)
            if v in seen:
                raise AdversaryRepeat(f"adversary repeated {v}")
            # a certified output is never played; the prefix's markers are
            # certified before they are played, and no certificate is negative
            if v >= tail and v in excluded:
                raise CertificateBroken(f"{v} was committed as never-enumerated")
            seen.add(v)
            if v > running_max:
                running_max = v
            reveal(v)
            z = step(v)
            put_z(z)
            if z > running_max:
                running_max = z
            played = z in seen
            if trigger_output is not None:  # the negative's step rebuilds the stage
                tail = ramp = (running_max if above_max else trigger_output) + gap
                trigger_output = None
            elif v >= tail and not played and (z >= tail or z in extras):
                # a trigger on a ramp step: an unseen member of the stage language
                triggers.append(t)
                # a certificate lies outside the promise; the output is unplayed
                if z < 0:
                    raise CertificateBroken(f"{z} lies in the promised part")
                excluded.add(z)
                trigger_output = z
            if played:
                codes[t] = 1
            elif z >= 0:  # the negatives are promised
                codes[t] = 1 if z in excluded else 2

    def header(self) -> dict:
        return {"source": {"kind": "staged", "construction": self.construction, "level": self.level}}

    # -- reporting ---------------------------------------------------------
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
