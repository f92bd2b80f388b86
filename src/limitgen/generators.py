"""Generator strategies: the constructive algorithms played against sources.

Every strategy is a deterministic state machine whose state is a pure
function of the prefix it has observed, so replays from the same prefix are
reproducible. The game loop calls a strategy's own `step` once a round.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from .errors import SearchExhausted
from .families import ChainSpec, CollectionSpec
from .langs import ClosedFormLanguage, zigzag_encode

PROBE_CAP = 1_000_000  # candidates a fresh-value scan tries before giving up


class Generator:
    """Maps each revealed element (None in sampleless play) to an output.

    `needs_samples` is False only for a strategy that ignores its input; the
    engine checks it once per run, and only such a strategy plays sampleless.
    """

    needs_samples = True

    def step(self, revealed: int | None) -> int:
        raise NotImplementedError


class _PoolGenerator(Generator):
    """Shared bookkeeping for strategies built from running max/min pools.

    The max pool is {t} u revealed u own outputs; the min pool is
    {0} u revealed u own outputs. Only the pools' extremes are kept, not the
    reveals themselves, and they are updated by plain comparisons: a step
    makes no builtin call. Each strategy's `step` absorbs the reveal and its
    output in its own frame; the max candidate always tops the max pool and
    the min candidate always undercuts the min pool.
    """

    def __init__(self) -> None:
        self.t = -1
        self._max = None  # max of revealed + outputs
        self._min = None

    def _absorb(self, value: int) -> None:
        if self._max is None:
            self._max = self._min = value
        elif value > self._max:
            self._max = value
        elif value < self._min:
            self._min = value

    def max_candidate(self) -> int:
        t, m = self.t, self._max
        return (t if t > m else m) + 1

    def min_candidate(self) -> int:
        m = self._min
        return (m if m < 0 else 0) - 1


class MaxPlusOne(_PoolGenerator):
    """Always outputs one past everything seen or produced."""

    def step(self, revealed: int) -> int:
        self.t = t = self.t + 1
        hi = self._max
        if hi is None:
            self._min = hi = revealed
        elif revealed > hi:
            hi = revealed
        elif revealed < self._min:
            self._min = revealed
        self._max = z = (t if t > hi else hi) + 1
        return z


class MinMinusOne(_PoolGenerator):
    """Always outputs one below everything seen or produced (and below 0)."""

    def step(self, revealed: int) -> int:
        self.t += 1
        lo = self._min
        if lo is None:
            self._max = lo = revealed
        elif revealed < lo:
            lo = revealed
        elif revealed > self._max:
            self._max = revealed
        self._min = z = (lo if lo < 0 else 0) - 1
        return z


class FollowSuffix(_PoolGenerator):
    """Outputs fresh integers above every nonnegative sample: correct in the
    limit for any language containing an upward ray. Reads neither pool, so
    it keeps its own two maxima instead."""

    def __init__(self) -> None:
        super().__init__()
        self._nat_max = 0  # t >= 0 dominates an empty pool anyway
        self._out_max = 0

    def step(self, revealed: int) -> int:
        self.t = t = self.t + 1
        if revealed > self._nat_max:
            self._nat_max = revealed
        z = self._nat_max if self._nat_max > t else t
        if self._out_max > z:
            z = self._out_max
        self._out_max = z = z + 1
        return z


class _MarkerBranchGenerator(_PoolGenerator):
    """Two-branch strategies: pick the max or min candidate depending on
    which of the level+1 markers have been revealed. Only the markers
    revealed so far are kept, at most level+1 values. The branch depends on
    them alone, so it is kept in `_high` and recomputed by `_goes_high` only
    when a marker is revealed: a step without one makes no call."""

    def __init__(self, level: int) -> None:
        super().__init__()
        self.level = level
        self.markers = range(level + 1)
        self.hits: set[int] = set()  # the markers revealed so far
        self._high = self._goes_high()

    def step(self, revealed: int) -> int:
        self.t = t = self.t + 1
        hi = self._max
        if hi is None:
            self._max = self._min = hi = revealed
        elif revealed > hi:
            self._max = hi = revealed
        elif revealed < self._min:
            self._min = revealed
        if revealed in self.markers:
            self.hits.add(revealed)
            self._high = self._goes_high()
        if self._high:
            self._max = z = (t if t > hi else hi) + 1
        else:
            lo = self._min
            self._min = z = (lo if lo < 0 else 0) - 1
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
    intersection of link t."""

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
        for v in itertools.islice(core.elements(), PROBE_CAP):
            if v not in self.emitted:
                self.emitted.add(v)
                return v
        raise SearchExhausted("no unused element within the probe cap")


class NoisyFromStream(Generator):
    """Turns an injective stream into a sample-consuming strategy by skipping
    stream entries that have already been revealed. The stream is read once,
    forward; only the reveals are kept."""

    def __init__(self, stream: Iterator[int]) -> None:
        self._iter = stream
        self._seen: set[int] = set()

    def step(self, revealed: int) -> int:
        seen = self._seen
        seen.add(revealed)
        z = next(self._iter)
        while z in seen:
            z = next(self._iter)
        return z


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
        self.base = base
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


class PrefixedGenerator(Generator):
    """Evaluates the base strategy as if a fixed prefix had already been
    revealed before the run started."""

    def __init__(self, base: Generator, prefix: tuple[int, ...]) -> None:
        self.base = base
        self.prefix = tuple(prefix)
        for v in self.prefix:
            self.base.step(v)  # pre-feed; those outputs are discarded

    def step(self, revealed: int | None) -> int:
        return self.base.step(revealed)


def reduce_by_prefix(base: Generator, removed: tuple[int, ...]) -> Generator:
    """G'(x_0..x_t) = G(y_1..y_d, x_0..x_t) for the removed elements y."""
    if not removed:
        return base
    return PrefixedGenerator(base, tuple(removed))


_BASELINES = {
    "max_plus_one": MaxPlusOne,
    "min_minus_one": MinMinusOne,
    "follow_suffix": FollowSuffix,
}


def baseline(name: str) -> Generator:
    try:
        return _BASELINES[name]()
    except KeyError:
        raise ValueError(f"unknown baseline {name!r}") from None
