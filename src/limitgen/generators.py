"""Generator strategies: the constructive algorithms played against sources.

Every strategy is a deterministic state machine whose state is a pure
function of the prefix it has observed, so replays from the same prefix are
reproducible. The game loop calls a strategy's own `step` once a round.

The pool strategies output one past a running max, or one below a running
min, of what they have seen and produced. `MaxPlusOne` (and `FollowSuffix`,
the same rule under its own name) keeps only its last output, which tops
the reveals and the step number; `MinMinusOne` keeps the mirror value. The
marker strategies switch between the two directions, so they keep both
extremes and the step number.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import SearchExhausted
from .families import ChainSpec, CollectionSpec
from .langs import ClosedFormLanguage, zigzag_encode

# base outputs `SamplelessFromNoisy` reads for a fresh value before giving up:
# the only fresh-value scan whose stream may repeat forever
PROBE_CAP = 1_000_000


class Generator:
    """Maps each revealed element (None in sampleless play) to an output.

    `needs_samples` is False only for a strategy that ignores its input; the
    engine checks it once per run, and only such a strategy plays sampleless.
    """

    needs_samples = True

    def step(self, revealed: int | None) -> int:
        raise NotImplementedError


class MaxPlusOne(Generator):
    """Outputs one past its last output and the reveal:
    z_t = max(z_{t-1}, x_t) + 1 with z_{-1} = 0. The last output already
    tops every earlier reveal and output, and the step number t, since the
    outputs climb by at least one a step from 0, so it is the only state."""

    def __init__(self) -> None:
        self._last = 0

    def step(self, revealed: int) -> int:
        z = self._last
        if revealed > z:
            z = revealed
        self._last = z = z + 1
        return z


class MinMinusOne(Generator):
    """Outputs one below its last output and the reveal:
    z_t = min(z_{t-1}, x_t) - 1 with z_{-1} = 0, so below everything seen
    or produced and below 0."""

    def __init__(self) -> None:
        self._last = 0

    def step(self, revealed: int) -> int:
        z = self._last
        if revealed < z:
            z = revealed
        self._last = z = z - 1
        return z


class FollowSuffix(MaxPlusOne):
    """Outputs fresh integers above every nonnegative sample: correct in the
    limit for any language containing an upward ray. Its rule is
    `MaxPlusOne`'s: skipping the negative samples changes no output, since
    the last output tops the step number t >= 0 and so every negative. It
    stays a class of its own so that a tracer wrapping methods by class
    name counts its steps apart from `MaxPlusOne`'s."""


class _MarkerBranchGenerator(Generator):
    """Two-branch strategies: output one past the step number and the max of
    everything seen or produced, or one below the min of it and 0, depending
    on which of the level+1 markers have been revealed. Both extremes start
    at 0, which t >= 0 tops and which the low branch undercuts anyway. Only
    the markers revealed so far are kept, at most level+1 values. The branch
    depends on them alone, so it is kept in `_high` and recomputed by
    `_goes_high` only when a marker is revealed: a step without one makes no
    call."""

    def __init__(self, level: int) -> None:
        self.t = -1
        self._max = self._min = 0
        self.level = level
        self.markers = range(level + 1)
        self.hits: set[int] = set()  # the markers revealed so far
        self._high = self._goes_high()

    def step(self, revealed: int) -> int:
        self.t = t = self.t + 1
        hi = self._max
        if revealed > hi:
            self._max = hi = revealed
        elif revealed < self._min:
            self._min = revealed
        if revealed in self.markers:
            self.hits.add(revealed)
            self._high = self._goes_high()
        if self._high:
            self._max = z = (t if t > hi else hi) + 1
        else:
            self._min = z = self._min - 1
        return z

    def _goes_high(self) -> bool:
        raise NotImplementedError


class OmissionTolerantGenerator(_MarkerBranchGenerator):
    """Handles up to `level` omissions for the marked union family: goes high
    once ANY marker in {0..level} has been revealed, low otherwise."""

    def _goes_high(self) -> bool:
        return bool(self.hits)


class NoiseTolerantGenerator(_MarkerBranchGenerator):
    """Handles noise level up to `level` for the marked union family: goes
    high only once ALL markers in {0..level} have been revealed."""

    def _goes_high(self) -> bool:
        return len(self.hits) > self.level


class SensitivityGenerator(_MarkerBranchGenerator):
    """Level-aware strategy for rays-plus-negatives: goes low once all of
    {-1..-(level+1)} have been revealed, high otherwise."""

    def __init__(self, level: int) -> None:
        super().__init__(level)
        self.markers = range(-1, -(level + 2), -1)

    def _goes_high(self) -> bool:
        return len(self.hits) <= self.level


class StreamGenerator(Generator):
    """A sampleless strategy: emits a fixed injective stream, ignoring input."""

    needs_samples = False

    def __init__(self, stream: Iterator[int]) -> None:
        self._iter = stream

    def step(self, revealed: int | None = None) -> int:
        return next(self._iter)


def intersection_generator(spec: CollectionSpec) -> StreamGenerator:
    """Enumerate the (infinite) common intersection of the collection."""
    core = spec.intersection()
    if not isinstance(core, ClosedFormLanguage):
        raise ValueError("collection has a finite common intersection")
    return StreamGenerator(core.elements())


class ChainGenerator(Generator):
    """Sampleless strategy for a growing chain of collections: at step t,
    emit the first unused element (canonical order) of the common
    intersection of link t. The chain builds each link when asked and the
    link answers its intersection itself, so a ray-prefix link costs the
    same at every step."""

    needs_samples = False

    def __init__(self, chain: ChainSpec) -> None:
        self.chain = chain
        self.emitted: set[int] = set()
        self.t = -1

    def step(self, revealed: int | None = None) -> int:
        self.t += 1
        core = self.chain.intersection_at(self.t)
        if not isinstance(core, ClosedFormLanguage):
            raise SearchExhausted(f"chain link {self.t} has a finite common core")
        # the core is infinite and the used set finite, so the scan ends
        v = next(itertools.filterfalse(self.emitted.__contains__, core.elements()))
        self.emitted.add(v)
        return v


class NoisyFromStream(Generator):
    """Turns an injective stream into a sample-consuming strategy by skipping
    stream entries that have already been revealed. The stream is read once,
    forward; only the reveals are kept."""

    def __init__(self, stream: Iterator[int]) -> None:
        self._iter = stream
        self._seen: set[int] = set()

    def step(self, revealed: int) -> int:
        self._seen.add(revealed)
        return next(itertools.filterfalse(self._seen.__contains__, self._iter))


def noisy_from_sampleless(stream: Generator) -> NoisyFromStream:
    """Noisy play over the outputs of a sampleless strategy, which it consumes."""
    return NoisyFromStream(stream.step(None) for _ in itertools.count())


class SamplelessFromNoisy(Generator):
    """Runs a sample-consuming strategy on the canonical enumeration of Z,
    0, -1, 1, -2, ... (the zigzag order), and re-emits its outputs, skipping
    ones already emitted. Each base output is read once, in order; only the
    values emitted are kept."""

    needs_samples = False

    def __init__(self, base: Generator) -> None:
        self._outputs = (base.step(zigzag_encode(n)) for n in itertools.count())
        self._emitted: set[int] = set()

    def step(self, revealed: int | None = None) -> int:
        emitted = self._emitted
        for z in itertools.islice(self._outputs, PROBE_CAP + 1):
            if z not in emitted:
                emitted.add(z)
                return z
        raise SearchExhausted("base strategy never produced a fresh value")


class DedupWrapper(Generator):
    """Feeds the base strategy only the first occurrence of each sample;
    repeats re-emit the base strategy's latest output."""

    def __init__(self, base: Generator) -> None:
        self.base = base
        self._seen: set[int] = set()
        self._last: int | None = None

    def step(self, revealed: int) -> int:
        if revealed in self._seen:
            return self._last
        self._seen.add(revealed)
        self._last = self.base.step(revealed)
        return self._last


def reduce_by_prefix(base: Generator, removed: tuple[int, ...]) -> Generator:
    """G'(x_0..x_t) = G(y_1..y_d, x_0..x_t) for the removed elements y: `base`
    itself, fed each y first, with those outputs discarded."""
    for y in removed:
        base.step(y)
    return base
