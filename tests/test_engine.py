import io
import itertools
import sys

import pytest
from hypothesis import example, given, strategies as st

from limitgen import engine
from limitgen.engine import Mode, oracle_answer, run, verdict, write_trace
from limitgen.errors import BudgetViolation, LimitGenError, ModeMismatch, StreamEnded
from limitgen.experiments import _feedback_parts, run_experiment
from limitgen.families import ExplicitCountable, SuffixFamily, neg_union, ray_prefix_chain
from limitgen.feedback import (
    FeedbackGenerator,
    IndexIdentifier,
    OneShotProbeGenerator,
    StripQueries,
    UnionFeedbackGenerator,
)
from limitgen.generators import (
    ChainGenerator,
    DedupWrapper,
    FollowSuffix,
    MaxPlusOne,
    MinMinusOne,
    NoiseTolerantGenerator,
    OmissionTolerantGenerator,
    SamplelessFromNoisy,
    SensitivityGenerator,
    intersection_generator,
    noisy_from_sampleless,
    reduce_by_prefix,
)
from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from
from limitgen.sources import (
    ScriptedSource,
    ScriptedSpec,
    Source,
    StagedAdversary,
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)
from oracles import (
    TRUTHS,
    NaiveStagedAdversary,
    TranscriptLimitLanguage,
    naive_construction,
    naive_run,
    naive_verdict,
    peak_per_step,
    retained_per_step,
    scripted_specs,
    steps,
)


def scripted(truth, **kwargs):
    return ScriptedSource(ScriptedSpec(truth, **kwargs))


def test_verdict_cases():
    truth = ClosedFormLanguage(frozenset({5}), None, True)
    assert verdict(-4, truth, {5, -1}) == engine.CORRECT
    assert verdict(5, truth, {5, -1}) == engine.MISTAKE  # already seen
    # an adaptive run's limit language, by the reference's tri-state rule
    limit = TranscriptLimitLanguage()
    assert naive_verdict(42, limit, set()) == engine.UNKNOWN_VERDICT
    assert naive_verdict(-3, limit, set()) == engine.CORRECT  # promised
    limit.excluded.add(7)
    assert naive_verdict(7, limit, set()) == engine.MISTAKE


VALUES = st.integers(-12, 14)
VALUE_SETS = st.sets(VALUES, max_size=8)


@given(truth=TRUTHS, seen=VALUE_SETS, z=VALUES)
def test_closed_form_judge_matches_verdict(truth, seen, z):
    # the judge's inlined membership test against `verdict`, which asks the
    # truth's own __contains__; the step does not matter
    code = engine._judge(truth, seen)(0, z)
    assert code == engine._VERDICTS.index(verdict(z, truth, seen))


@given(truth=TRUTHS, target=st.integers(0, 5), seen=VALUE_SETS, z=st.integers(-1, 7))
def test_identification_judge_names_the_target(truth, target, seen, z):
    # identification judges an index, so a seen value or the truth's members
    # do not matter
    code = engine._judge(truth, seen, target)(0, z)
    assert engine._VERDICTS[code] == (engine.CORRECT if z == target else engine.MISTAKE)


def test_oracle_answers():
    assert oracle_answer(NEGATIVES, -3) is True
    assert oracle_answer(suffix_from(5), 2) is False
    assert oracle_answer(ClosedFormLanguage(frozenset({0}), None, True), 0) is True
    with pytest.raises(ModeMismatch):
        oracle_answer(TranscriptLimitLanguage(), -1)


@given(truth=TRUTHS, queries=st.lists(st.integers(-20, 20), min_size=1, max_size=8))
@example(truth=suffix_from(3), queries=[3, 2])
@example(truth=ClosedFormLanguage(frozenset({5}), None, True), queries=[0, -1, 5])
def test_bound_ask_answers_as_oracle_answer(truth, queries):
    # the bound `ask`'s inlined membership test against `oracle_answer`,
    # which asks the truth's own __contains__; each answer's code lands in
    # the byte of the step being played, one query a step here
    records = engine.Transcript(len(queries))
    ask = engine._asker(truth, len(queries), records)
    for y in queries:
        assert ask(y) is oracle_answer(truth, y)
        records.outputs.append(0)
    assert list(records.asked()) == [
        (t, y, oracle_answer(truth, y)) for t, y in enumerate(queries)
    ]


def test_sampleless_run_has_no_mistakes():
    truth = ClosedFormLanguage(frozenset({7}), None, True)
    records, result = run(
        intersection_generator(neg_union()), scripted(truth), Mode.sampleless(), 100
    )
    assert result.mistakes == 0
    assert result.observed_convergence == 0
    assert all(r.x is None for r in steps(records))


def test_sampleless_run_reports_no_coverage_miss():
    # sampleless play reveals nothing, so there is no coverage to check
    plays = [
        (intersection_generator(neg_union()), ClosedFormLanguage(frozenset({7}), None, True)),
        (ChainGenerator(ray_prefix_chain()), suffix_from(7)),
    ]
    for gen, truth in plays:
        _, result = run(gen, scripted(truth), Mode.sampleless(), 100)
        assert result.validity_violations == ()


def test_sampleless_run_flags_output_repeats():
    class Stutter:
        needs_samples = False

        def step(self, revealed=None):
            return -1

    _, result = run(Stutter(), scripted(NEGATIVES), Mode.sampleless(), 5)
    assert any(v.startswith("output-repeat") for v in result.validity_violations)


def test_noise_tolerant_run_converges_quickly():
    records, result = run(
        NoiseTolerantGenerator(0),
        scripted(suffix_from(0), noise=((0, -1),)),
        Mode.noisy(1),
        200,
    )
    assert result.observed_convergence <= 2
    assert all(r.verdict == engine.CORRECT for r in steps(records)[2:])


def test_staged_run_mistake_prefix():
    _, result = run(
        MaxPlusOne(), staged_union_adversary(), Mode.standard(), 1_000
    )
    assert tuple(result.mistake_times[:3]) == (0, 2, 4)
    assert len(result.certified_mistake_times) >= 10
    assert result.certified_mistake_times == result.mistake_times
    assert result.unknown_count > 0  # off-trigger outputs stay undetermined


def test_feedback_run_answers_match_truth():
    truth = ClosedFormLanguage(frozenset({3}), None, True)
    gen = UnionFeedbackGenerator([neg_union(), SuffixFamily(offset=0)])
    records, _ = run(gen, scripted(truth), Mode.feedback(), 50)
    for r in steps(records):
        assert r.y is not None
        assert r.a == (r.y in truth)


def test_mode_mismatch_combinations():
    with pytest.raises(ModeMismatch):
        run(MaxPlusOne(), scripted(NEGATIVES), Mode.feedback(), 5)
    with pytest.raises(ModeMismatch):
        run(
            UnionFeedbackGenerator([neg_union()]),
            scripted(NEGATIVES),
            Mode.standard(),
            5,
        )
    with pytest.raises(ModeMismatch):
        run(
            UnionFeedbackGenerator([neg_union()]),
            staged_union_adversary(),
            Mode.feedback(),
            5,
        )
    with pytest.raises(ModeMismatch):
        run(MaxPlusOne(), staged_union_adversary(), Mode.sampleless(), 5)


class _LimitTruthSource(Source):
    """A non-adaptive source that declares an adaptive run's limit truth."""

    def reveals(self):
        return itertools.count()

    def truth_view(self):
        return TranscriptLimitLanguage()


ENGINE_GUARDS = {
    "identification-of-a-union": (
        lambda: run(UnionFeedbackGenerator([neg_union()]), scripted(NEGATIVES), Mode.identification(), 5),
        ModeMismatch,
        "identification needs an index-outputting strategy",
    ),
    "truth-outside-the-collection": (
        lambda: run(
            IndexIdentifier(ExplicitCountable(languages=(suffix_from(0),))),
            scripted(suffix_from(3)),
            Mode.identification(),
            5,
        ),
        ModeMismatch,
        "the truth is not in the identified collection",
    ),
    "limit-truth-of-a-non-adaptive-source": (
        lambda: run(MaxPlusOne(), _LimitTruthSource(), Mode.standard(), 5),
        ModeMismatch,
        "only an adaptive source can judge a limit truth",
    ),
    "negative-omission-budget": (
        lambda: Mode.lossy(-1), ValueError, "omission budget must be nonnegative"
    ),
    "negative-noise-level": (lambda: Mode.noisy(-1), ValueError, "noise level must be nonnegative"),
    "negative-query-budget": (
        lambda: Mode.feedback(budget=-1), ValueError, "query budget must be nonnegative"
    ),
}


@pytest.mark.parametrize("call, error, message", ENGINE_GUARDS.values(), ids=ENGINE_GUARDS)
def test_engine_guards_raise(call, error, message):
    with pytest.raises(error, match=message):
        call()


SAMPLE_READERS = {
    "MaxPlusOne": MaxPlusOne,
    "MinMinusOne": MinMinusOne,
    "FollowSuffix": FollowSuffix,
    "OmissionTolerantGenerator": lambda: OmissionTolerantGenerator(1),
    "NoiseTolerantGenerator": lambda: NoiseTolerantGenerator(1),
    "SensitivityGenerator": lambda: SensitivityGenerator(1),
    "NoisyFromStream": lambda: noisy_from_sampleless(intersection_generator(neg_union())),
    "DedupWrapper": lambda: DedupWrapper(FollowSuffix()),
    "StripQueries": lambda: StripQueries(OneShotProbeGenerator(probe=-1)),
    "reduce_by_prefix": lambda: reduce_by_prefix(FollowSuffix(), (0, 1, 2)),
    "UnionFeedbackGenerator": lambda: UnionFeedbackGenerator([neg_union()]),
}


@pytest.mark.parametrize("make", SAMPLE_READERS.values(), ids=SAMPLE_READERS)
def test_sampleless_play_refuses_a_sample_reader_before_any_step(make):
    # the pairing is settled once, by _check_compat, not inside a step
    source = scripted(NEGATIVES)
    with pytest.raises(ModeMismatch) as excinfo:
        run(make(), source, Mode.sampleless(), 5)
    assert excinfo.traceback[-1].name == "_check_compat"
    assert not source._played


SAMPLELESS_PLAYERS = {
    "StreamGenerator": (lambda: intersection_generator(neg_union()), NEGATIVES),
    "ChainGenerator": (lambda: ChainGenerator(ray_prefix_chain()), suffix_from(7)),
    "SamplelessFromNoisy": (
        lambda: SamplelessFromNoisy(noisy_from_sampleless(intersection_generator(neg_union()))),
        NEGATIVES,
    ),
}


@pytest.mark.parametrize("make, truth", SAMPLELESS_PLAYERS.values(), ids=SAMPLELESS_PLAYERS)
def test_sampleless_play_takes_a_strategy_that_reads_no_samples(make, truth):
    records, result = run(make(), scripted(truth), Mode.sampleless(), 50)
    assert len(records) == 50
    assert result.validity_violations == ()


def test_validation_catches_repeats_outside_repetition_mode():
    src = scripted(suffix_from(0), repeat_seed=1)
    _, result = run(MaxPlusOne(), src, Mode.standard(), 50)
    assert any(v.startswith("repeat@") for v in result.validity_violations)


def test_repetition_mode_allows_repeats_and_reports_distinct_count():
    src = scripted(suffix_from(5), repeat_seed=1)
    gen = DedupWrapper(FollowSuffix())
    _, result = run(gen, src, Mode.repetition(), 100)
    assert not any(v.startswith("repeat@") for v in result.validity_violations)
    assert result.distinct_at_convergence is not None


def test_validation_coverage_passes_for_canonical_sources():
    src = scripted(ClosedFormLanguage(frozenset({3}), None, True))
    _, result = run(MinMinusOne(), src, Mode.standard(), 100)
    assert not result.validity_violations


def test_trace_round_is_byte_identical():
    def one_trace() -> bytes:
        src = scripted(suffix_from(0), order="blocks:5", noise=((2, -9),))
        records, result = run(
            noisy_from_sampleless(intersection_generator(neg_union())),
            src,
            Mode.noisy(1),
            200,
        )
        buf = io.StringIO()
        write_trace(
            buf,
            {"seed": 5, "truth": engine.truth_record(src)},
            records,
            result,
        )
        return buf.getvalue().encode()

    assert one_trace() == one_trace()


def test_identification_mode_verdicts():
    from limitgen.families import ExplicitCountable
    from limitgen.feedback import IndexIdentifier

    listed = (suffix_from(0), suffix_from(5))
    gen = IndexIdentifier(ExplicitCountable(languages=listed))
    records, result = run(gen, scripted(suffix_from(5)), Mode.identification(), 40)
    assert all(r.verdict == engine.CORRECT for r in steps(records)[1:])
    assert result.observed_convergence <= 1


class AlwaysAsks(FeedbackGenerator):
    """Queries its reveal on every step and outputs one above it."""

    def step_query(self, revealed):
        return revealed

    def step_output(self, revealed, answer):
        return revealed + 1


@pytest.mark.parametrize("budget", [0, 1])
def test_query_budget_is_enforced(budget):
    with pytest.raises(BudgetViolation, match=f"asked {budget + 1} queries, budget {budget}"):
        run(AlwaysAsks(), scripted(NEGATIVES), Mode.feedback(budget=budget), 50)


def test_query_budget_allows_exactly_its_queries():
    records, _ = run(AlwaysAsks(), scripted(NEGATIVES), Mode.feedback(budget=50), 50)
    assert sum(r.y is not None for r in steps(records)) == 50
    records, _ = run(AlwaysAsks(), scripted(NEGATIVES), Mode.feedback(), 50)
    assert sum(r.y is not None for r in steps(records)) == 50


def test_transcript_retains_at_most_24_bytes_per_step():
    horizon = 20_000
    per_step, (records, result) = retained_per_step(
        horizon, lambda: run(FollowSuffix(), scripted(suffix_from(0)), Mode.standard(), horizon)
    )
    assert len(records) == horizon
    assert result.mistakes == 0
    assert per_step <= 24

    # with the strategy and the source kept alive: the source keeps none of
    # the values it played
    def kept():
        generator, source = FollowSuffix(), scripted(suffix_from(0))
        return run(generator, source, Mode.standard(), 2 * horizon), generator, source

    per_step, ((records, result), _, _) = retained_per_step(2 * horizon, kept)
    assert len(records) == 2 * horizon
    assert result.mistakes == 0
    assert per_step <= 24, f"{per_step:.1f} B per step with the source alive"


def test_staged_union_run_peaks_under_210_bytes_per_step():
    # the adversary's own sets are the run's only seen set; a second copy in
    # the loop would add about 80 B per step
    steps = 40_000
    per_step, (records, result) = peak_per_step(
        steps, lambda: run(MaxPlusOne(), staged_union_adversary(), Mode.standard(), steps)
    )
    assert len(result.certified_mistake_times) == steps // 2
    assert per_step <= 210, f"{per_step:.0f} B per step at the peak"


def test_finished_defeat_row_retains_under_48_bytes_per_step():
    # the transcript, the step-time columns and the header's sorted truth
    # sets, all int64 columns: no int object outlives the adversary
    steps = 40_000
    per_step, (rows, subs) = retained_per_step(
        steps,
        lambda: run_experiment("thm3.1", steps, params={"generators": ["max_plus_one"]}),
    )
    assert [row.passed for row in rows] == [True]
    assert len(subs[0].header["truth"]["seen"]) == steps
    assert per_step <= 48, f"{per_step:.1f} B per step held"


class ReplaysZero(StagedAdversary):
    """The staged union construction, except that step 3 plays step 0's
    value again past `play`'s own repeat check: in place of the value
    `play` yields there, it hands out 0, and it forgets the value it
    replaced, as if that was never played."""

    def play(self, outputs, codes, horizon):
        for t, x in enumerate(super().play(outputs, codes, horizon)):
            if t == 3:
                self.seen.discard(x)
                x = 0
            yield x

    def reference(self):
        return _NaiveReplaysZero(*naive_construction("union", 0))


class _NaiveReplaysZero(NaiveStagedAdversary):
    """`ReplaysZero`'s reference: the union reference, with step 3's value
    forgotten and 0 played in its place."""

    def emit(self, t):
        x = super().emit(t)
        if t != 3:
            return x
        self.emitted.remove(x)
        self.emitted_set.discard(x)
        self.limit.seen.discard(x)
        return 0


def test_repeat_check_covers_adaptive_sources():
    def adversary():
        return ReplaysZero("union")

    records, result = run(MaxPlusOne(), adversary(), Mode.standard(), 8)
    assert list(records.reveals[:4]) == [0, -1, 3, 0]
    assert result.validity_violations == ("repeat@3:0",)
    assert result == naive_run(MaxPlusOne(), adversary(), Mode.standard(), 8)[1]


class Reveals(Source):
    """Reveals the given values, then the number of each later step."""

    def __init__(self, values):
        self.values = values

    def reveals(self):
        return itertools.chain(self.values, itertools.count(len(self.values)))

    def truth_view(self):
        return NEGATIVES


class StopsAfterTwo(Source):
    """Reveals two values and then stops."""

    def reveals(self):
        return iter([3, 4])

    def truth_view(self):
        return NEGATIVES


def test_a_stream_that_stops_before_the_horizon_is_a_breach():
    with pytest.raises(StreamEnded, match="stopped revealing at step 2 of 5"):
        run(FollowSuffix(), StopsAfterTwo(), Mode.standard(), 5)
    assert issubclass(StreamEnded, LimitGenError)  # exit 3 from the CLI
    records, _ = run(FollowSuffix(), StopsAfterTwo(), Mode.standard(), 2)
    assert [r.x for r in steps(records)] == [3, 4]


def test_transcript_keeps_int64_values_and_refuses_wider_ones():
    widest = [2**63 - 1, -(2**63)]
    records, _ = run(MinMinusOne(), Reveals(widest[:1]), Mode.standard(), 1)
    records_low, _ = run(MaxPlusOne(), Reveals(widest[1:]), Mode.standard(), 1)
    assert [r.x for r in steps(records) + steps(records_low)] == widest
    for wider in (2**63, -(2**63) - 1):
        with pytest.raises(OverflowError):
            run(FollowSuffix(), Reveals([5, wider]), Mode.standard(), 2)


# --- differential: the one loop against the two-protocol, two-pass loop -------


class Stutter:
    """A sampleless strategy that outputs every value twice."""

    needs_samples = False

    def __init__(self):
        self.t = -1

    def step(self, revealed=None):
        self.t += 1
        return self.t // 2


class AskEveryOther(FeedbackGenerator):
    """Queries one above its reveal on even steps and passes on odd ones."""

    def __init__(self):
        self.t = -1

    def step_query(self, revealed):
        self.t += 1
        return revealed + 1 if self.t % 2 == 0 else None

    def step_output(self, revealed, answer):
        return revealed + 2 if answer else -abs(revealed) - 1


def _plays(truth, budget):
    """(strategy factory, mode) for every mode a scripted source fits."""
    listed = (NEGATIVES, truth, suffix_from(3))
    return [
        (MaxPlusOne, Mode.standard()),
        (lambda: StripQueries(OneShotProbeGenerator(probe=-1)), Mode.standard()),
        (lambda: FollowSuffix(), Mode.lossy(budget)),
        (lambda: OmissionTolerantGenerator(1), Mode.lossy("infinite")),
        (lambda: NoiseTolerantGenerator(1), Mode.noisy(budget)),
        (lambda: intersection_generator(neg_union()), Mode.sampleless()),
        (lambda: Stutter(), Mode.sampleless()),
        (lambda: OneShotProbeGenerator(probe=-1), Mode.feedback(budget=1)),
        (lambda: AskEveryOther(), Mode.feedback()),
        (lambda: IndexIdentifier(ExplicitCountable(languages=listed)), Mode.identification()),
        (lambda: DedupWrapper(FollowSuffix()), Mode.repetition()),
        (MinMinusOne, Mode.repetition()),
    ]


def _same_play(make_generator, make_source, mode, horizon):
    got = run(make_generator(), make_source(), mode, horizon)
    want = naive_run(make_generator(), make_source(), mode, horizon)
    assert steps(got[0]) == want[0]
    assert got[1] == want[1]


@given(spec=scripted_specs(), budget=st.integers(0, 3), horizon=st.integers(1, 60))
def test_one_loop_matches_naive_run_on_scripted_sources(spec, budget, horizon):
    for make, mode in _plays(spec.truth, budget):
        _same_play(make, lambda: ScriptedSource(spec), mode, horizon)


CONSTRUCTIONS = {
    "union": staged_union_adversary,
    "omission": lambda: omission_adversary(1),
    "noise_prefix": lambda: noise_prefix_adversary(2),
    "sensitivity": sensitivity_adversary,
}
ADVERSARIES = st.sampled_from(list(CONSTRUCTIONS.values()))
PLAIN = st.sampled_from(
    [
        MaxPlusOne,
        MinMinusOne,
        FollowSuffix,
        lambda: OmissionTolerantGenerator(1),
        lambda: NoiseTolerantGenerator(2),
        lambda: SensitivityGenerator(0),
        lambda: StripQueries(OneShotProbeGenerator(probe=-1)),
    ]
)


@given(adversary=ADVERSARIES, make=PLAIN, horizon=st.integers(1, 150))
def test_one_loop_matches_naive_run_on_staged_adversaries(adversary, make, horizon):
    _same_play(make, adversary, Mode.standard(), horizon)


class Plays(ScriptedSource):
    """A scripted source whose stream is a given list, whatever its spec
    declares: repeats, leaked non-members and missing early elements break
    the spec's promises."""

    def __init__(self, spec, values):
        super().__init__(spec)
        self.values = values

    def reveals(self):
        return iter(self.values)


FAULTY_PLAYS = [
    (MaxPlusOne, lambda k: Mode.standard()),
    (FollowSuffix, Mode.lossy),
    (lambda: NoiseTolerantGenerator(1), Mode.noisy),
    (lambda: DedupWrapper(FollowSuffix()), lambda k: Mode.repetition()),
    (Stutter, lambda k: Mode.sampleless()),
    (lambda: intersection_generator(neg_union()), lambda k: Mode.sampleless()),
]


@given(
    spec=scripted_specs(),
    values=st.lists(st.integers(-30, 30), min_size=1, max_size=40),
    budget=st.integers(0, 3),
)
@example(
    spec=ScriptedSpec(suffix_from(0)),
    values=[-1, -1, 2, -2, 2, 5, 6, 7],
    budget=1,
)
def test_one_loop_matches_naive_run_on_faulty_streams(spec, values, budget):
    # every stream check, noise-budget and coverage-miss included, and the
    # order of the violations, against the reference's checks
    for make, mode in FAULTY_PLAYS:
        _same_play(make, lambda: Plays(spec, values), mode(budget), len(values))


@pytest.mark.parametrize("construction", sorted(CONSTRUCTIONS))
@pytest.mark.parametrize("horizon", [1, 2, 3, 57])
def test_run_pulls_no_reveal_past_the_horizon(construction, horizon):
    # an extra pull would play one more value, which the adversary's seen
    # set would then hold
    adversary = CONSTRUCTIONS[construction]()
    run(MaxPlusOne(), adversary, Mode.standard(), horizon)
    shown = sum(adversary.emitted(v) for v in adversary.prefix)
    assert len(adversary.seen) + shown == horizon


def test_repeated_noise_is_counted_once():
    # under repetition the one declared noise string comes out several times,
    # and it is still one noise string
    src = scripted(suffix_from(0), noise=((0, -1),), repeat_seed=0)
    records, result = run(DedupWrapper(FollowSuffix()), src, Mode.repetition(), 50)
    assert [r.x for r in steps(records)].count(-1) > 1
    assert result.validity_violations == ()


# --- the per-step cost of the loop, in Python calls -------------------------


def _calls_per_step(generator, source, mode, horizon=2_000):
    """Python-level calls (profiler "call" events, generator resumes
    included) per step of one run; the run's setup and its stream checks
    count too."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        run(generator, source, mode, horizon)
    finally:
        sys.setprofile(None)
    return calls / horizon


# (strategy, source, mode, calls per step at most); an adversary's step is the
# strategy's `step` and one resume of the adversary's `play`
CALL_SHAPES = {
    "follow_suffix": (FollowSuffix, lambda: scripted(suffix_from(0)), Mode.standard(), 2.0),
    "omission_tolerant": (
        lambda: OmissionTolerantGenerator(1),
        lambda: scripted(ClosedFormLanguage(frozenset({0, 1}), 3)),
        Mode.lossy(1),
        2.0,
    ),
    "max_plus_one_staged": (MaxPlusOne, staged_union_adversary, Mode.standard(), 2.0),
    "sensitivity_staged": (
        lambda: SensitivityGenerator(1),
        sensitivity_adversary,
        Mode.standard(),
        2.0,
    ),
    "union_feedback": (
        lambda: UnionFeedbackGenerator(_feedback_parts()),
        lambda: scripted(ClosedFormLanguage(frozenset({-30}), 5)),
        Mode.feedback(),
        7.0,
    ),
    "index_identifier": (
        lambda: IndexIdentifier(
            ExplicitCountable(languages=(suffix_from(0), suffix_from(5), suffix_from(9)))
        ),
        lambda: scripted(suffix_from(5)),
        Mode.identification(),
        7.0,
    ),
    "intersection_sampleless": (
        lambda: intersection_generator(neg_union()),
        lambda: scripted(NEGATIVES),
        Mode.sampleless(),
        2.0,
    ),
}


@pytest.mark.parametrize("shape", sorted(CALL_SHAPES))
def test_calls_per_step(shape):
    make_generator, make_source, mode, most = CALL_SHAPES[shape]
    per_step = _calls_per_step(make_generator(), make_source(), mode)
    # a run's setup adds a few dozen calls in all, under 0.05 a step
    assert per_step <= most + 0.05, f"{per_step:.3f} calls per step"
