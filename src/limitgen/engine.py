"""The game loop: one generator vs one source under a declared mode.

Per step: the source reveals x_t (skipped in sampleless play), the strategy
may query y_t and receive a_t, it outputs z_t, and the verdict is computed
against the source's declared truth. The loop only plays and records these;
every run fact (mistake times, convergence, the unknown count, repeats and
noise) is read from the finished columns. The reveals come from one iterator,
`source.reveals()`, zipped behind the horizon's range, so the source is
never pulled past the last step; an iterator that stops early is an
invariant breach. Each run binds one `step(x)`: a plain strategy's own
`step`, which never queries, or a feedback strategy's `play` with the run's
`ask`, which answers its queries.

`verdict()` is the reference rule, in strings: a correct output is an
unseen member of the truth. The loop does not call it. It binds one judge
per run, `judge(t, z)`, that returns the verdict's code byte directly
(0 Correct, 1 Mistake, 2 Unknown). An adaptive source is its own judge: its
`observe` sees each output as soon as it is produced, reacts, and then
judges it against its own sets, so certified mistakes show up as Mistake
verdicts in the transcript. Otherwise the judge follows the mode: the
identification target, or a closed-form truth's parts, bound once per run.

`oracle_answer()` is the reference membership rule. The loop does not call
it either: `ask`, bound once per run by `_asker`, counts each query against
the budget, answers it inline from the truth's parts and records it.

A run keeps its steps in a columnar `Transcript` of about 17 bytes a step:
reveals and outputs as int64 columns, the asked queries, and one byte for
the answer and the verdict. The reveal iterator appends each value to its
column as it is pulled. Only for a source that does not judge does it also
add the value to a seen set, which the closed-form judge and the stream
checks read; an adaptive source's own sets hold every value it played, so
the run keeps no second copy. A `RunResult`'s step times, and an adaptive
truth's sorted sets in `truth_record`, are int64 columns as well, so no int
object of a finished run outlives its source. Values live in the int64
domain, which no CLI input can leave: they grow with the horizon and the
level `i`, far short of 2**63 in any run that can finish. A value outside it
raises OverflowError rather than being stored truncated.
`Transcript.asked()` decodes the steps that asked a query; `write_trace`
formats every step straight from the columns, one template per code byte.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from array import array
from dataclasses import dataclass, field
from typing import IO, Callable, Iterator

from .errors import BudgetViolation, ModeMismatch, StreamEnded
from .feedback import FeedbackGenerator
from .langs import IN, OUT, ClosedFormLanguage, TranscriptLimitLanguage
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
    omissions: int | str | None = None  # an int budget or "infinite"
    noise: int | None = None
    noise_known: bool = True
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
            "noise_known": self.noise_known,
            "query_budget": self.query_budget,
        }


# A step's code is its verdict's index, plus 3 for a "Yes" answer or 6 for a "No".
_VERDICTS = (CORRECT, MISTAKE, UNKNOWN_VERDICT)
_YES_CODE, _NO_CODE = 3, 6
# a `bytes.translate` table: 1 at each code whose verdict is a Mistake
_MISTAKE_CODES = bytes(code % 3 == 1 for code in range(256))
_UNKNOWN_CODES = bytes((2, 2 + _YES_CODE, 2 + _NO_CODE))  # an Unknown's codes


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
        codes = self.codes
        times = (t for t, code in enumerate(codes) if code >= _YES_CODE)
        # zip reads the queries first, so a run without any never scans codes
        return ((t, y, codes[t] < _NO_CODE) for y, t in zip(self.queries, times))


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


def verdict(z: int, truth, seen: set[int]) -> str:
    """Correct iff z is an unseen member of the truth; tri-state for
    adaptive limit truths. The reference rule: a run's loop takes the same
    verdict, as a code, from the judge it binds, `_judge`'s or an adaptive
    source's `observe`."""
    if z in seen:
        return MISTAKE
    if isinstance(truth, ClosedFormLanguage):
        return CORRECT if z in truth else MISTAKE
    status = truth.status(z)
    if status == IN:
        return CORRECT
    if status == OUT:
        return MISTAKE
    return UNKNOWN_VERDICT


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
    truth = source.truth_view()
    records = Transcript(horizon)
    # every mode decision is made here, once
    if isinstance(generator, FeedbackGenerator):
        budget = horizon if mode.query_budget is None else mode.query_budget
        step = functools.partial(generator.play, _asker(truth, budget, records))
    else:
        step = generator.step
    seen: set[int] = set()  # the reveals, for a source that does not judge
    if mode.kind == SAMPLELESS:
        reveals = itertools.repeat(None)
    else:
        # `append` and `add` return None, so each reveal passes through once
        # it is recorded; an adaptive source keeps its own seen set
        reveals = itertools.filterfalse(records.reveals.append, source.reveals())
        if not source.adaptive:
            reveals = itertools.filterfalse(seen.add, reveals)
    if source.adaptive:
        judge = source.observe
    else:
        target = None
        if mode.kind == IDENTIFICATION:
            target = _identification_target(generator, truth)
        judge = _judge(truth, seen, target)
    put_z, codes = records.outputs.append, records.codes
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
        validity_violations=tuple(validate_stream(source, mode, horizon, records, seen)),
        no_trigger=staged and source.no_trigger,
        certified_mistake_times=source.certified_mistake_times if staged else array("q"),
        final_stage_mistakes=source.final_stage_mistakes(horizon) if staged else 0,
        distinct_at_convergence=(
            len(set(records.reveals[:convergence])) if mode.kind == REPETITION else None
        ),
    )


def validate_stream(
    source: Source, mode: Mode, horizon: int, records: Transcript, seen: set[int]
) -> list[str]:
    """Whole-stream checks of a finished run, `seen` being the set of its
    reveals for a source that does not judge. An adaptive source keeps each
    value it played once in its own sets, so `seen` is not read for it.
    Outside repetition mode no sample comes twice, and in sampleless play no
    output does; the column is scanned for repeats only when its distinct
    count falls short of its length. A scripted enumeration must also keep
    its noise budgets (distinct reveals outside the truth, so a repeated
    noise string counts once) and its omission budget, and cover its early
    elements when samples are revealed."""
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
    noise = len([x for x in seen if not (x in finite or x >= above or x < below)])
    declared_noise = spec.noise_count
    if noise > declared_noise:
        violations.append(f"noise-budget:{noise}>{declared_noise}")
    if mode.kind == NOISY and mode.noise is not None and noise > mode.noise:
        violations.append(f"noise-mode-budget:{noise}>{mode.noise}")
    if isinstance(spec.omissions, frozenset):
        if mode.kind == LOSSY and isinstance(mode.omissions, int):
            if len(spec.omissions) > mode.omissions:
                violations.append(
                    f"omission-budget:{len(spec.omissions)}>{mode.omissions}"
                )
        if spec.order == "canonical" and spec.repeat_seed is None and not sampleless:
            # coverage: early canonical elements must show up unless omitted
            must_show = min(horizon // 2, max(horizon - declared_noise - 1, 0))
            for k, v in enumerate(spec.truth.elements()):
                if k >= must_show:
                    break
                if v not in seen and v not in spec.omissions:
                    violations.append(f"coverage-miss:{v}")
    return violations


# --- trace serialization ---------------------------------------------------


def _dump(record: dict) -> str:
    # int64 columns are written as the lists they hold
    return json.dumps(record, sort_keys=True, separators=(",", ":"), default=list)


# One line template per step code: the answer and the verdict are fixed by
# the code, and t, x, y and z are filled in.
_STEP_LINES = tuple(
    f'{{"a":{a},"t":%d,"verdict":"{v}","x":%s,"y":%s,"z":%d}}\n'
    for a in ("null", '"Yes"', '"No"')
    for v in _VERDICTS
)


def write_trace(
    fp: IO[str],
    header: dict,
    records: Transcript,
    result: RunResult,
) -> None:
    """One JSON object per line: the header, every step, the summary.

    Step lines are formatted by hand from the transcript's columns, byte for
    byte what `_dump` gives for the step's dict: sorted keys, no spaces,
    `null` for a missing sample or query, the answer as "Yes"/"No".
    """
    n = len(records)
    ys: list = ["null"] * n
    for t, y, _ in records.asked():
        ys[t] = y
    lines = [_dump({"header": header}) + "\n"]
    lines += map(
        operator.mod,
        map(_STEP_LINES.__getitem__, records.codes),
        zip(range(n), records.reveals or itertools.repeat("null"), ys, records.outputs),
    )
    lines.append(_dump({"summary": result.to_record()}) + "\n")
    fp.write("".join(lines))


def truth_record(truth) -> dict:
    if isinstance(truth, ClosedFormLanguage):
        return {"kind": "closed_form", **truth.to_record()}
    if isinstance(truth, TranscriptLimitLanguage):
        return {
            "kind": "transcript_limit",
            "seen": array("q", sorted(truth.seen)),
            "excluded": array("q", sorted(truth.excluded)),
            "promised": truth.promised.to_record() if truth.promised else None,
        }
    raise TypeError(f"unknown truth type {type(truth)!r}")
