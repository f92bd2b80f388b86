"""The game loop: one generator vs one source under a declared mode.

Per step: the source reveals x_t (skipped in sampleless play), the strategy
may query y_t and receive a_t, it outputs z_t, and the verdict is computed
against the source's declared truth. The loop only plays and records these;
every run fact (mistake times, convergence, the unknown count, repeats, and
noise against the source's own spec) is read from the finished columns. A
case's level promise (at most i omissions or noise strings) is checked before
the run, when `experiments` draws the case. A scripted source's reveals
come from one iterator, `source.reveals()`, zipped behind the horizon's
range, so the source is never pulled past the last step; an iterator that
stops early is an invariant breach. Each run binds one `step(x)`: a plain
strategy's own `step`, which never queries, or a feedback strategy's `play`
with the run's `ask`, which answers its queries.

`verdict()` is the reference rule, in strings: a correct output is an
unseen member of a closed-form truth. The loop does not call it. For a
source that does not judge, it binds one judge per run, `judge(t, z)`,
that returns the verdict's code byte directly (0 Correct, 1 Mistake, 2
Unknown). Such a source declares a truth, `truth_view()`, and the judge
follows the mode: the identification target, or the closed-form truth's
parts, bound once per run. An adaptive source is its own judge, and the
loop has no judge call for it: it plays as one generator,
`source.play(records.outputs, codes, horizon)`, which yields x_t and stops
after `horizon` steps. When the loop resumes it for the next value, it
reads z_t from the outputs column, reacts, and writes the verdict's code
byte, judged against its own sets, the values it played and those it
certified never to play, so certified mistakes show up as Mistake verdicts
in the transcript.

`oracle_answer()` is the reference membership rule. The loop does not call
it either: `ask`, bound once per run by `_asker`, counts each query against
the budget, answers it inline from the truth's parts and records it.

A run keeps its steps in a columnar `Transcript` of about 17 bytes a step:
reveals and outputs as int64 columns, the asked queries, and one byte for
the answer and the verdict. The reveal iterator appends each value to its
column as it is pulled. Only for a source that does not judge does it also
add the value to a seen set, which the closed-form judge and the stream
checks read; an adaptive source's own sets hold every value it played, so
the run keeps no second copy. A `RunResult`'s step times, and a staged
adversary's sorted sets in `truth_record`, are int64 columns as well, so no
int object of a finished run outlives its source. Values live in the int64
domain, which no CLI input can leave: they grow with the horizon and the
level `i`, far short of 2**63 in any run that can finish. A value outside it
raises OverflowError rather than being stored truncated.
`Transcript.asked()` decodes the steps that asked a query; `write_trace`
formats every step straight from the columns, one template per code byte,
and writes them in chunks of `_CHUNK` steps, so its memory does not grow
with the horizon.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import math
from array import array
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

from .errors import BudgetViolation, ModeMismatch, StreamEnded
from .feedback import FeedbackGenerator
from .langs import NEGATIVES, ClosedFormLanguage
from .sources import ScriptedSource, Source, StagedAdversary

CORRECT = "Correct"
MISTAKE = "Mistake"
UNKNOWN_VERDICT = "Unknown"

STANDARD = "standard"
LOSSY = "lossy"
NOISY = "noisy"
SAMPLELESS = "sampleless"
FEEDBACK = "feedback"
IDENTIFICATION = "identification"
REPETITION = "repetition"


@dataclass(frozen=True)
class Mode:
    kind: str = STANDARD
    omissions: int | str | None = None  # header data: an int count or "infinite"
    noise: int | None = None  # header data: no check reads either count
    query_budget: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.omissions, int) and self.omissions < 0:
            raise ValueError("omission budget must be nonnegative")
        if self.noise is not None and self.noise < 0:
            raise ValueError("noise level must be nonnegative")
        if self.query_budget is not None and self.query_budget < 0:
            raise ValueError("query budget must be nonnegative")

    @classmethod
    def standard(cls) -> "Mode":
        return cls(STANDARD)

    @classmethod
    def lossy(cls, omissions: int | str) -> "Mode":
        return cls(LOSSY, omissions=omissions)

    @classmethod
    def noisy(cls, noise: int) -> "Mode":
        return cls(NOISY, noise=noise)

    @classmethod
    def sampleless(cls) -> "Mode":
        return cls(SAMPLELESS)

    @classmethod
    def feedback(cls, budget: int | None = None) -> "Mode":
        return cls(FEEDBACK, query_budget=budget)

    @classmethod
    def identification(cls) -> "Mode":
        return cls(IDENTIFICATION)

    @classmethod
    def repetition(cls) -> "Mode":
        return cls(REPETITION)

    def to_record(self) -> dict:
        return {
            "kind": self.kind,
            "omissions": self.omissions,
            "noise": self.noise,
            "noise_known": True,  # a constant the trace format still carries
            "query_budget": self.query_budget,
        }


# A step's code is its verdict's index, plus 3 for a "Yes" answer or 6 for a "No".
_VERDICTS = (CORRECT, MISTAKE, UNKNOWN_VERDICT)
_YES_CODE, _NO_CODE = 3, 6
# a `bytes.translate` table: 1 at each code whose verdict is a Mistake
_MISTAKE_CODES = bytes(code % 3 == 1 for code in range(256))
_UNKNOWN_CODES = bytes((2, 2 + _YES_CODE, 2 + _NO_CODE))  # an Unknown's codes
_ASKED_CODES = bytes(code >= _YES_CODE for code in range(256))  # 1 at each answered code


class Transcript:
    """The steps of one run, column by column.

    `reveals` and `outputs` hold one int64 per step (`reveals` stays empty in
    sampleless play), `queries` holds the asked queries only, in order, and
    `codes` one byte per step for the answer and the verdict. A run sets
    `codes` to one zero byte per step up front and fills them in place.
    `len()` is the step count; `asked()` yields the steps that asked a query.
    """

    __slots__ = ("reveals", "queries", "outputs", "codes")

    def __init__(self, steps: int = 0) -> None:
        self.reveals = array("q")
        self.queries = array("q")
        self.outputs = array("q")
        self.codes = bytearray(steps)

    def __len__(self) -> int:
        return len(self.codes)

    def asked(self) -> Iterator[tuple[int, int, bool]]:
        """(t, query, answer) for each step that asked a query, in order."""
        if not self.queries:  # a run without queries scans no codes
            return iter(())
        codes = self.codes
        mask = codes.translate(_ASKED_CODES)
        times = itertools.compress(itertools.count(), mask)
        answers = map(_NO_CODE.__gt__, itertools.compress(codes, mask))  # "Yes" codes are below it
        return zip(times, self.queries, answers)


@dataclass(frozen=True)
class RunResult:
    """A finished run's facts. Its step times are sorted int64 columns."""

    mistake_times: array
    observed_convergence: int
    unknown_count: int
    validity_violations: tuple[str, ...]
    no_trigger: bool = False
    certified_mistake_times: array = field(default_factory=functools.partial(array, "q"))
    final_stage_mistakes: int = 0
    distinct_at_convergence: int | None = None

    @property
    def mistakes(self) -> int:
        return len(self.mistake_times)

    def to_record(self) -> dict:
        """The trace's summary; `_dump` writes the columns as JSON lists."""
        return {
            "mistake_times": self.mistake_times,
            "observed_convergence": self.observed_convergence,
            "unknown_count": self.unknown_count,
            "validity_violations": list(self.validity_violations),
            "no_trigger": self.no_trigger,
            "certified_mistake_times": self.certified_mistake_times,
            "final_stage_mistakes": self.final_stage_mistakes,
            "distinct_at_convergence": self.distinct_at_convergence,
        }


def oracle_answer(truth: ClosedFormLanguage, query: int) -> bool:
    """Exact membership answer; only committed truths can be queried. The
    reference rule: a run's loop answers each query by the same rule, from
    the `ask` that `_asker` binds."""
    if not isinstance(truth, ClosedFormLanguage):
        raise ModeMismatch("membership queries need a committed (scripted) truth")
    return query in truth


def verdict(z: int, truth: ClosedFormLanguage, seen: set[int]) -> str:
    """Correct iff z is an unseen member of the truth. The reference rule:
    a run's loop takes the same verdict, as a code, from the judge that
    `_judge` binds."""
    if z in seen:
        return MISTAKE
    return CORRECT if z in truth else MISTAKE


def _identification_target(generator, truth: ClosedFormLanguage) -> int:
    languages = getattr(generator, "languages", None)
    if languages is None:
        raise ModeMismatch("identification needs an index-outputting strategy")
    for i, lang in enumerate(languages):
        if lang.same_set(truth):
            return i
    raise ModeMismatch("the truth is not in the identified collection")


def _check_compat(generator, source: Source, mode: Mode) -> None:
    """Settle once per run what no step re-checks: the strategy's kind fits
    the mode, the source can judge, and sampleless play gets a strategy
    that reads no samples (one whose `needs_samples` is False)."""
    needs_feedback = mode.kind in (FEEDBACK, IDENTIFICATION)
    if needs_feedback != isinstance(generator, FeedbackGenerator):
        raise ModeMismatch(f"generator type does not fit mode {mode.kind!r}")
    if not source.adaptive and not isinstance(source.truth_view(), ClosedFormLanguage):
        raise ModeMismatch("only an adaptive source can judge a limit truth")
    if source.adaptive and mode.kind != STANDARD:
        raise ModeMismatch("adaptive sources play in standard mode only")
    if mode.kind == SAMPLELESS and getattr(generator, "needs_samples", True):
        raise ModeMismatch("sampleless play takes a strategy that reads no samples")


def _parts(truth: ClosedFormLanguage) -> tuple[frozenset[int], float, float]:
    """A closed-form truth as (finite part, above, below): x is a member iff
    x is in the finite part, x >= above or x < below. `above` is the tail
    start or +inf, `below` 0 with the negatives or -inf."""
    tail = truth.tail_start
    return (
        truth.finite_part,
        math.inf if tail is None else tail,
        0 if truth.include_negatives else -math.inf,
    )


def _judge(
    truth: ClosedFormLanguage, seen: set[int], target: int | None = None
) -> Callable[[int, int], int]:
    """The run's verdict rule for a source that does not judge: `judge(t, z)`
    returns the verdict's code, its index in `_VERDICTS`. `seen` is the set
    of reveals the loop keeps growing. With a `target`, identification's
    rule: correct iff the output names it. Otherwise `verdict`'s rule for a
    closed-form truth, its membership test inlined from `_parts`."""
    if target is not None:
        return lambda t, z: 0 if z == target else 1
    finite, above, below = _parts(truth)
    return lambda t, z: 1 if z in seen or not (z in finite or z >= above or z < below) else 0


def _asker(truth: ClosedFormLanguage, budget: int, records: Transcript) -> Callable[[int], bool]:
    """The run's membership oracle for a feedback strategy: `ask(y)` counts
    the query against `budget` (BudgetViolation past it), appends it to
    `records.queries` and answers by `oracle_answer`'s rule, its membership
    test inlined from `_parts`. It runs inside step t, before the loop has
    put z_t, so t is the number of outputs put so far; it sets that step's
    code byte to the answer's code, to which the loop adds the verdict's."""
    finite, above, below = _parts(truth)
    queries, outputs, codes = records.queries, records.outputs, records.codes

    def ask(y: int) -> bool:
        if len(queries) >= budget:
            raise BudgetViolation(f"strategy asked {len(queries) + 1} queries, budget {budget}")
        queries.append(y)
        a = y in finite or y >= above or y < below
        codes[len(outputs)] = _YES_CODE if a else _NO_CODE
        return a

    return ask


def run(
    generator,
    source: Source,
    mode: Mode,
    horizon: int,
) -> tuple[Transcript, RunResult]:
    """Play `horizon` rounds of reveal, query, answer and output.

    Every round calls the one `step(x)` bound here: a plain strategy's
    `step`, or a feedback strategy's `play` with the run's `ask`, which
    takes the query phase and records the query and its answer. The loop
    only plays and records; every run fact (mistakes, convergence, unknown
    verdicts, stream checks) is read from the finished transcript.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    _check_compat(generator, source, mode)
    truth = None if source.adaptive else source.truth_view()
    records = Transcript(horizon)
    # every mode decision is made here, once
    if isinstance(generator, FeedbackGenerator):
        budget = horizon if mode.query_budget is None else mode.query_budget
        step = functools.partial(generator.play, _asker(truth, budget, records))
    else:
        step = generator.step
    seen: set[int] = set()  # the reveals, for a source that does not judge
    put_z, codes = records.outputs.append, records.codes
    if source.adaptive:
        # `append` returns None, so each reveal passes through once it is
        # recorded; the adversary keeps its own seen set, and when resumed
        # it reads the output just put, reacts and writes its verdict's code
        played = source.play(records.outputs, codes, horizon)
        for x in itertools.filterfalse(records.reveals.append, played):
            put_z(step(x))
    else:
        if mode.kind == SAMPLELESS:
            reveals = itertools.repeat(None)
        else:
            # `append` and `add` return None, so each reveal passes through once
            # it is recorded
            reveals = itertools.filterfalse(records.reveals.append, source.reveals())
            reveals = itertools.filterfalse(seen.add, reveals)
        target = None
        if mode.kind == IDENTIFICATION:
            target = _identification_target(generator, truth)
        judge = _judge(truth, seen, target)
        # range comes first, so that zip never pulls a reveal past the horizon
        for t, x in zip(range(horizon), reveals):
            z = step(x)
            put_z(z)
            code = judge(t, z)
            if code:  # added to the answer's code, which `ask` set
                codes[t] += code
    if len(records.outputs) < horizon:  # zip stops silently at the shorter input
        raise StreamEnded(
            f"the source stopped revealing at step {len(records.outputs)} of {horizon}"
        )
    mistakes = array("q", itertools.compress(range(horizon), codes.translate(_MISTAKE_CODES)))
    convergence = mistakes[-1] + 1 if mistakes else 0
    staged = isinstance(source, StagedAdversary)
    return records, RunResult(
        mistake_times=mistakes,
        observed_convergence=convergence,
        unknown_count=sum(map(codes.count, _UNKNOWN_CODES)),
        validity_violations=tuple(validate_stream(source, mode, records, seen)),
        no_trigger=staged and not source.trigger_times,
        certified_mistake_times=source.certified_mistake_times if staged else array("q"),
        final_stage_mistakes=source.final_stage_mistakes(horizon) if staged else 0,
        distinct_at_convergence=(
            len(set(records.reveals[:convergence])) if mode.kind == REPETITION else None
        ),
    )


def validate_stream(source: Source, mode: Mode, records: Transcript, seen: set[int]) -> list[str]:
    """Whole-stream checks of a finished run, `seen` being the set of its
    reveals for a source that does not judge. An adaptive source keeps each
    value it played once in its own sets, so `seen` is not read for it.
    Outside repetition mode no sample comes twice, and in sampleless play no
    output does; the column is scanned for repeats only when its distinct
    count falls short of its length. A scripted enumeration must also keep
    its own spec's noise (distinct reveals outside the truth, so a repeated
    noise string counts once), and cover its early elements when samples are
    revealed. The mode's omission and noise counts are not read."""
    sampleless = mode.kind == SAMPLELESS
    if sampleless:  # nothing is revealed; the outputs must not repeat
        label, values, distinct = "output-repeat", records.outputs, len(set(records.outputs))
    else:
        label, values = "repeat", records.reveals
        distinct = source.played_count() if source.adaptive else len(seen)
    violations: list[str] = []
    if mode.kind != REPETITION and distinct < len(values):
        once: set[int] = set()  # `once.add` returns None: a first sighting is no repeat
        violations = [f"{label}@{t}:{v}" for t, v in enumerate(values) if v in once or once.add(v)]
    if not isinstance(source, ScriptedSource):
        return violations
    spec = source.spec
    finite, above, below = _parts(spec.truth)
    # the non-members are [below, above) less the finite part
    ordered = sorted(seen)
    noise = bisect.bisect_left(ordered, above) - bisect.bisect_left(ordered, below)
    noise -= sum(below <= x < above and x in seen for x in finite)
    declared_noise = spec.noise_count
    if noise > declared_noise:
        violations.append(f"noise-budget:{noise}>{declared_noise}")
    canonical = spec.order == "canonical" and spec.repeat_seed is None
    if canonical and isinstance(spec.omissions, frozenset) and not sampleless:
        # coverage: early canonical elements must show up unless omitted
        must_show = min(len(records) // 2, max(len(records) - declared_noise - 1, 0))
        early = itertools.islice(spec.truth.elements(), must_show)
        missed = itertools.filterfalse(seen.__contains__, early)
        missed = itertools.filterfalse(spec.omissions.__contains__, missed)
        violations += [f"coverage-miss:{v}" for v in missed]
    return violations


# --- trace serialization ---------------------------------------------------


def _dump(record: dict) -> str:
    # int64 columns are written as the lists they hold
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=list)


# The step line templates of a run, by (reveals, queries): one per step code,
# which fixes the answer and the verdict. t and z are filled in, x when the
# run reveals samples and y when it asked queries; a column the run lacks is
# the literal null.
_STEP_LINES = {
    (reveals, queries): tuple(
        f'{{"a":{a},"t":%d,"verdict":"{v}","x":{x},"y":{y},"z":%d}}\n'
        for a in ("null", '"Yes"', '"No"')
        for v in _VERDICTS
    )
    for reveals, x in ((False, "null"), (True, "%d"))
    for queries, y in ((False, "null"), (True, "%s"))
}
_CHUNK = 1024  # steps formatted and written at a time


def write_trace(
    fp: IO[str],
    header: dict,
    records: Transcript,
    result: RunResult,
) -> None:
    """One JSON object per line: the header, every step, the summary.

    Step lines are formatted by hand from the transcript's columns, byte for
    byte what `_dump` gives for the step's dict: sorted keys, no spaces,
    `null` for a missing sample or query, the answer as "Yes"/"No". They
    are formatted and written `_CHUNK` steps at a time, with one `%` over
    the chunk's templates and its columns' slices, so the writer's memory
    does not grow with the horizon.
    """
    fp.write(_dump({"header": header}) + "\n")
    reveals, queries, outputs = records.reveals, records.queries, records.outputs
    codes = records.codes
    lines = _STEP_LINES[bool(reveals), bool(queries)]
    width = 2 + bool(reveals) + bool(queries)  # the values of one step line
    pending = iter(queries)  # the queries not yet written, in order
    n = len(records)
    for i in range(0, n, _CHUNK):
        j = min(i + _CHUNK, n)
        args: list = [None] * ((j - i) * width)
        args[::width] = range(i, j)
        if reveals:
            args[1::width] = reveals[i:j]
        if queries:
            ys: list = ["null"] * (j - i)
            asked = itertools.compress(range(j - i), codes[i:j].translate(_ASKED_CODES))
            for k, y in zip(asked, pending):  # zip stops before pulling a later query
                ys[k] = y
            args[width - 2 :: width] = ys
        args[width - 1 :: width] = outputs[i:j]
        fp.write("".join(map(lines.__getitem__, codes[i:j])) % tuple(args))
    fp.write(_dump({"summary": result.to_record()}) + "\n")


def truth_record(source: Source) -> dict:
    """The header's truth: a closed-form truth's record, or a staged
    adversary's limit language, its played and certified sets as sorted
    int64 columns under the promised negatives."""
    if isinstance(source, StagedAdversary):
        return {
            "kind": "transcript_limit",
            "seen": array("q", sorted(source.seen)),
            "excluded": array("q", sorted(source.excluded)),
            "promised": NEGATIVES.to_record(),
        }
    return {"kind": "closed_form", **source.truth_view().to_record()}
