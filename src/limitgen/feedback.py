"""Strategies that ask membership queries, and the query-elimination wrapper.

Per step the interaction is: the source reveals x_t, the strategy may query
y_t (or pass), the oracle answers a_t, and the strategy outputs z_t. A
strategy reconstructs everything it needs from the transcript, so replays
are exact.
"""

from __future__ import annotations

import copy
import itertools
from array import array
from typing import Callable, Iterator, Sequence

from .errors import BudgetViolation, SearchExhausted
from .families import CollectionSpec, ExplicitCountable
from .generators import Generator, MaxPlusOne, MinMinusOne

YES = True
NO = False


class FeedbackGenerator:
    """Two-phase strategy: query after the reveal, output after the answer.

    A strategy is written as its two phases, both handed the step's reveal;
    the game loop plays a step through `play`, which runs both with the
    run's membership oracle. `budget` is the declared maximum number of
    non-pass queries over any run (None means unlimited).
    """

    budget: int | None = None

    def play(self, ask: Callable[[int], bool], revealed: int) -> int:
        """One step: the query phase, then `ask`'s answer to the query, if
        any, for the output phase."""
        y = self.step_query(revealed)
        return self.step_output(revealed, None if y is None else ask(y))

    def step_query(self, revealed: int) -> int | None:
        raise NotImplementedError

    def step_output(self, revealed: int, answer: bool | None) -> int:
        raise NotImplementedError


class UnionFeedbackGenerator(FeedbackGenerator):
    """Plays a countable union of uniformly-generatable parts.

    Each part is played in two states. Gathering (`_stream` unset): while
    the sample is no larger than the part's closure dimension, query and
    output the running candidate. Streaming (`_stream` set): once the sample
    outgrows the dimension, the part is asked for the sample's closure, once.
    A None closure (no consistent member) skips the part; any other closure
    is infinite, since the sample is past the dimension, and its canonical
    order yields fresh candidates until the first \"No\" answer moves on to
    the next part, which starts gathering.

    A streamed part's candidates come from one iterator, built when the part
    starts streaming: the closure's canonical order less the live sample,
    read through the sample's own `__contains__`, so each draw skips exactly
    what has been revealed by then. A deep copy would share that sample
    through the bound method, so only an unplayed strategy may be copied,
    as `StripQueries` requires of its base.
    """

    def __init__(self, parts: Sequence[CollectionSpec]) -> None:
        self.parts = tuple(parts)
        if not self.parts:
            raise ValueError("need at least one part")
        # rejects parts with unbounded dimension up front
        self.dims = tuple(part.closure_dimension() for part in self.parts)
        self.part_idx = 0
        self.sample: set[int] = set()
        self.candidate: int | None = 0
        self._stream: Iterator[int] | None = None

    def _settle_part(self) -> None:
        """Start streaming once the sample outgrows the current part's
        dimension, skipping parts with no consistent member; runs before
        each reveal while no part streams."""
        while self._stream is None:
            if self.part_idx >= len(self.parts):
                raise SearchExhausted("ran out of parts: target beyond the declared union")
            if len(self.sample) <= self.dims[self.part_idx]:
                return
            closure = self.parts[self.part_idx].closure(self.sample)
            if closure is None:
                self._next_part()
                continue
            self._stream = itertools.filterfalse(self.sample.__contains__, closure.elements())
            self.candidate = None  # so this reveal draws the stream's first candidate

    def _next_part(self) -> None:
        self.part_idx += 1
        self._stream = None

    def step_query(self, revealed: int) -> int | None:
        if self._stream is None:
            self._settle_part()
        self.sample.add(revealed)
        # a streamed candidate is re-offered until it has been revealed
        if self._stream is not None and (self.candidate is None or self.candidate in self.sample):
            self.candidate = next(self._stream)
        return self.candidate

    def step_output(self, revealed: int, answer: bool | None) -> int:
        z = self.candidate
        if self._stream is not None and answer is NO:
            self._next_part()
        return z


def preorder_index(answers: Sequence[bool], depth: int) -> int:
    """Preorder position of the node reached in a full binary tree of the
    given depth by walking No=left / Yes=right along the answers.

    Answers only ever flip from No to Yes (revealed sets grow), so with Yes
    on the right the reached node's preorder position never decreases.
    """
    idx = 0
    remaining = depth
    for yes in answers:
        idx += 2**remaining if yes else 1
        remaining -= 1
    return idx


class StripQueries(Generator):
    """Simulates a query-budgeted strategy without an oracle.

    Keeps one live replay of the strategy on the revealed prefix, answering
    every replayed query \"Yes\" exactly when the queried element has been
    revealed so far, and emits the replay's latest output. Revealed sets only
    grow, so a past answer can only flip from \"No\" to \"Yes\", and only on
    the step that reveals the queried element. Exactly then the replay
    restarts on the whole prefix, from a copy of the base as given, which
    must be unplayed and is itself never stepped. A strategy's state is a
    pure function of its transcript, so every output, and the replay's
    decision-tree position that `positions` keeps after each step, equals
    that of a from-scratch replay of the prefix. Each restart strictly
    raises the replay's preorder position in the decision tree, so the
    number of restarts is bounded by the tree's size, not by the horizon; a
    budget-1 strategy restarts at most once.
    """

    def __init__(self, base: FeedbackGenerator) -> None:
        if base.budget is None or base.budget > 62:
            # a depth-d tree's positions reach 2**(d + 1) - 2, and `positions` holds int64
            raise ValueError("base strategy must declare a finite query budget of at most 62")
        self.base = base
        self.positions = array("q")
        self.revealed = array("q")
        self.seen: set[int] = set()
        self._start_replay()

    def _start_replay(self) -> None:
        self._replay = copy.deepcopy(self.base)
        self._answers: list[bool] = []
        self._refused: set[int] = set()  # queries the live replay heard "No" to

    def _ask(self, y: int) -> bool:
        """The replay's oracle: "Yes" exactly when `y` has been revealed."""
        a = y in self.seen
        self._answers.append(a)
        if not a:
            self._refused.add(y)
        if len(self._answers) > self.base.budget:
            raise BudgetViolation(
                f"replay asked {len(self._answers)} queries, budget {self.base.budget}"
            )
        return a

    def step(self, revealed: int) -> int:
        self.revealed.append(revealed)
        self.seen.add(revealed)
        if revealed in self._refused:
            self._start_replay()
            for xj in self.revealed[:-1]:
                self._replay.play(self._ask, xj)
        z = self._replay.play(self._ask, revealed)
        self.positions.append(preorder_index(self._answers, self.base.budget))
        return z


class PlainAsFeedback(FeedbackGenerator):
    """A never-querying wrapper around a plain strategy (budget 0), so that
    a plain strategy can stand where a budgeted feedback strategy is asked
    for, as `StripQueries`' base. The game loop plays plain strategies
    unwrapped; a replay copies the wrapper with the strategy inside it."""

    budget = 0

    def __init__(self, base: Generator) -> None:
        self.base = base

    def step_query(self, revealed: int) -> int | None:
        return None

    def step_output(self, revealed: int, answer: bool | None) -> int:
        return self.base.step(revealed)


class OneShotProbeGenerator(FeedbackGenerator):
    """Budget-1 fixture: asks once (at the first step) whether `probe` is in
    the target, and the answer picks a plain strategy that makes every
    output, from the first on: `MinMinusOne` on Yes, `MaxPlusOne` on No. So
    its one query only selects which of two plain strategies plays, the
    shape behind the result that finitely many queries add no power."""

    budget = 1

    def __init__(self, probe: int = -1) -> None:
        self.probe = probe
        self._strategy: Generator | None = None  # chosen at the first output

    def step_query(self, revealed: int) -> int | None:
        return self.probe if self._strategy is None else None

    def step_output(self, revealed: int, answer: bool | None) -> int:
        if self._strategy is None:
            self._strategy = MinMinusOne() if answer is YES else MaxPlusOne()
        return self._strategy.step(revealed)


class IndexIdentifier(FeedbackGenerator):
    """Names the target by index in an explicitly listed collection.

    Queries the step number itself (the collection must live over the
    naturals), fails each listed language on the first step whose evidence it
    contradicts (the reveal is a member; the step number is one exactly when
    the answer was "Yes"), and outputs the least index up to the step number
    not yet failed. A failure is permanent, so no example is kept.
    """

    def __init__(self, collection: ExplicitCountable) -> None:
        self.languages = collection.languages
        self.t = -1
        self._failed = [False] * len(self.languages)

    def step_query(self, revealed: int) -> int | None:
        self.t += 1
        return self.t

    def step_output(self, revealed: int, answer: bool | None) -> int:
        t, yes = self.t, answer is YES
        failed = self._failed
        for i, lang in enumerate(self.languages):
            if not failed[i] and (revealed not in lang or (t in lang) != yes):
                failed[i] = True
        for i in range(min(t + 1, len(failed))):
            if not failed[i]:
                return i
        return 0
