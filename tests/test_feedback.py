import copy
import itertools

import pytest
from hypothesis import given, strategies as st

from limitgen import engine, experiments
from limitgen.engine import Mode
from limitgen.errors import BudgetViolation, SearchExhausted
from limitgen.families import ExplicitCountable, SuffixFamily, neg_union, ray_family
from limitgen.feedback import (
    YES,
    FeedbackGenerator,
    IndexIdentifier,
    OneShotProbeGenerator,
    PlainAsFeedback,
    StripQueries,
    UnionFeedbackGenerator,
    preorder_index,
)
from limitgen.generators import FollowSuffix, MaxPlusOne, MinMinusOne
from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from
from limitgen.sources import ScriptedSource, ScriptedSpec

from oracles import (
    NaiveIndexIdentifier,
    NaiveStripQueries,
    NaiveUnionFeedback,
    retained_per_step,
)


def drive(gen, reveals, truth):
    """Reveal / query / answer / output, answering from the committed truth."""
    steps = []
    for x in reveals:
        y = gen.step_query(x)
        a = None if y is None else (y in truth)
        z = gen.step_output(x, a)
        steps.append((x, y, a, z))
    return steps


# --- the union strategy -------------------------------------------------------


def test_union_single_neg_part_streams_negatives():
    truth = ClosedFormLanguage(frozenset({7}), None, True)
    gen = UnionFeedbackGenerator([neg_union()])
    reveals = [7, -1, -2, -3, -4]
    steps = drive(gen, reveals, truth)
    assert [z for (_, _, _, z) in steps] == [-1, -2, -3, -4, -5]
    assert all(a is True for (_, _, a, _) in steps)
    assert gen.part_idx == 0


def test_union_single_suffix_part():
    truth = suffix_from(5)
    gen = UnionFeedbackGenerator([SuffixFamily(offset=5)])
    steps = drive(gen, [5, 6, 7], truth)
    assert [z for (_, _, _, z) in steps] == [6, 7, 8]


def test_union_breaks_to_suffix_part_on_refusal():
    truth = suffix_from(0)
    gen = UnionFeedbackGenerator([neg_union(), SuffixFamily(offset=0)])
    steps = drive(gen, [0, 1, 2, 3], truth)
    # part 0 offers a negative, gets refused, then part 1 streams fresh naturals
    assert steps[0][3] == -1 and steps[0][2] is False
    assert [z for (_, _, _, z) in steps[1:]] == [2, 3, 4]
    assert gen.part_idx == 1


def test_union_gather_phase_for_positive_dimension_part():
    truth = suffix_from(2)
    gen = UnionFeedbackGenerator([ray_family()])
    steps = drive(gen, [2, 3, 4, 5], truth)
    # dimension 0: one gathering step outputs the initial candidate 0
    assert steps[0][3] == 0
    assert [z for (_, _, _, z) in steps[1:]] == [4, 5, 6]


def test_union_needs_a_part():
    with pytest.raises(ValueError, match="need at least one part"):
        UnionFeedbackGenerator([])


def test_union_runs_out_of_parts_on_a_truth_beyond_them():
    gen = UnionFeedbackGenerator([SuffixFamily(offset=0)])
    source = ScriptedSource(ScriptedSpec(NEGATIVES))
    with pytest.raises(SearchExhausted, match="ran out of parts: target beyond the declared union"):
        engine.run(gen, source, Mode.feedback(), 5)


def test_union_rejects_unbounded_parts():
    from limitgen.errors import UnboundedClosureDimension
    from limitgen.families import suffix_union

    with pytest.raises(UnboundedClosureDimension):
        UnionFeedbackGenerator([suffix_union()])


def test_union_candidate_repeats_until_revealed():
    # the running candidate is re-offered while the adversary withholds it
    truth = ClosedFormLanguage(frozenset({2}), 4, False)
    gen = UnionFeedbackGenerator([SuffixFamily(offset=4)])
    steps = drive(gen, [2, 6, 7, 4], truth)
    assert [z for (_, _, _, z) in steps] == [4, 4, 4, 5]


def test_union_skips_a_part_with_no_consistent_member():
    # no ray holds -5, so once the sample outgrows the ray family's dimension
    # its closure is None and the strategy moves on unasked
    parts = [ray_family(), SuffixFamily(offset=0)]
    gen = UnionFeedbackGenerator(parts)
    source = ScriptedSource(ScriptedSpec(ClosedFormLanguage({-5}, 0, False)))
    records, result = engine.run(gen, source, Mode.feedback(), 30)
    assert gen.part_idx == 1
    assert all(a for _, _, a in records.asked())  # no "No" answer shows the skip
    assert list(records.outputs) == list(range(30))
    assert result.mistakes == 0


UNION_PARTS = [neg_union()] + [SuffixFamily(offset=j) for j in range(10)]
# a finite part plus either the negatives (part 0) or a ray from 0..9
UNION_TRUTHS = st.builds(
    lambda finite, j: ClosedFormLanguage(finite, j, j is None),
    st.frozensets(st.integers(-12, 12), max_size=4),
    st.one_of(st.none(), st.integers(0, 9)),
)


@given(truth=UNION_TRUTHS, order=st.sampled_from(["canonical", "blocks:0", "blocks:1", "blocks:7"]))
def test_alg4_reads_each_part_move_from_a_no_answer(truth, order):
    # alg4 takes its part bound and its t* from the "No" answers: over its
    # parts, the strategy moves once per "No", on the step of the "No"
    gen = NaiveUnionFeedback(UNION_PARTS)
    records, _ = engine.run(gen, ScriptedSource(ScriptedSpec(truth, order)), Mode.feedback(), 80)
    refused = records.refused()
    assert gen.part_idx == refused.count(1)
    assert gen.last_part_move == refused.rfind(1)


def _play_union(gen, truth, order, horizon):
    """The run's transcript columns, or the message it stopped with when the
    truth lies beyond the parts."""
    try:
        records, _ = engine.run(gen, ScriptedSource(ScriptedSpec(truth, order)), Mode.feedback(), horizon)
    except SearchExhausted as exc:
        return ("exhausted", str(exc), len(gen.sample))
    return (records.reveals, records.queries, records.outputs, records.codes)


@given(
    truth=st.builds(
        lambda finite, j: ClosedFormLanguage(finite, j, j is None),
        st.frozensets(st.integers(-12, 12), max_size=4),
        # rays from 10 up start beyond every part, so most such runs exhaust
        st.one_of(st.none(), st.integers(0, 16)),
    ),
    order=st.one_of(st.just("canonical"), st.integers(0, 2**20).map("blocks:{}".format)),
)
def test_union_matches_the_settle_every_step_reference(truth, order):
    fast, naive = UnionFeedbackGenerator(UNION_PARTS), NaiveUnionFeedback(UNION_PARTS)
    assert _play_union(fast, truth, order, 60) == _play_union(naive, truth, order, 60)
    assert fast.part_idx == naive.part_idx


def test_union_reference_sees_an_exhausting_truth():
    # the drawn truths above reach the exhaustion branch; pin one that does
    truth = suffix_from(15)
    fast, naive = UnionFeedbackGenerator(UNION_PARTS), NaiveUnionFeedback(UNION_PARTS)
    got = _play_union(fast, truth, "canonical", 60)
    assert got[:2] == ("exhausted", "ran out of parts: target beyond the declared union")
    assert got == _play_union(naive, truth, "canonical", 60)


@pytest.mark.parametrize("flip", [False, True])
def test_alg4_flags_a_flipped_oracle_answer(flip, monkeypatch):
    """Flip the answer byte of the first asked step of alg4's first case
    when `flip` is set: the row's answer walk must name that step. (The
    flip's "No" also counts as a part move, so the row says more.)"""
    run = engine.run
    asked = []

    def flipping_run(*args):
        records, result = run(*args)
        if not asked:
            t, _, _ = next(records.asked())
            asked.append(t)
            if flip:
                code = records.codes[t]
                records.codes[t] = code + 3 if code < 6 else code - 3  # "Yes" <-> "No"
        return records, result

    monkeypatch.setattr(engine, "run", flipping_run)
    rows, subs = experiments.run_experiment("alg4-feedback", 100)
    mismatch = f"{subs[0].name}: oracle answer mismatch at t={asked[0]}"
    assert (mismatch in rows[0].detail.split("; ")) if flip else rows[0].detail == ""


class _RegressingStrip(StripQueries):
    """Overwrites each step's decision-tree position so that it alternates."""

    def step(self, revealed):
        z = super().step(revealed)
        self.positions[-1] = len(self.positions) % 2
        return z


class _RepeatsAfterAPartMove(UnionFeedbackGenerator):
    """Outputs the step's reveal, a value already seen, on the step after
    each part move, which is its t* after its last "No"."""

    _moved = False

    def _next_part(self):
        super()._next_part()
        self._moved = True

    def step_output(self, revealed, answer):
        moved, self._moved = self._moved, False
        z = super().step_output(revealed, answer)
        return revealed if moved else z


@pytest.mark.parametrize(
    "name, value, ident, message",
    [
        (
            "UnionFeedbackGenerator",
            _RepeatsAfterAPartMove,
            "alg4-feedback",
            "alg4[case3,1:canonical]: mistakes at [1] despite t*=1",
        ),
        (
            "_first_part_index",
            lambda truth: 0,
            "alg4-feedback",
            "alg4[case3,0:canonical]: reached part 1, first fit is 0",
        ),
        (
            "StripQueries",
            lambda base: StripQueries(OneShotProbeGenerator(probe=5)),
            "alg5-queries",
            "alg5[1]: tail verdicts diverge at offset 0",
        ),
        ("StripQueries", _RegressingStrip, "alg5-queries", "alg5[0]: decision-tree position regressed"),
    ],
)
def test_feedback_row_checks_fail_their_row(name, value, ident, message, monkeypatch):
    """A union strategy that errs from its t* on, a wrong first-fit bound, a
    stripped strategy that is not the oracle strategy and a regressing
    position must each fail their row."""
    monkeypatch.setattr(experiments, name, value)
    (row,), _ = experiments.run_experiment(ident)
    assert not row.passed
    assert message in row.detail.split("; ")


# --- query elimination ---------------------------------------------------------


def test_strip_queries_replay_example():
    truth = ClosedFormLanguage(frozenset({5}), None, True)
    stripped = StripQueries(OneShotProbeGenerator(probe=-1))
    assert stripped.step(5) == 6  # -1 unseen: replay answers No, plays high
    assert stripped.step(-1) == -2  # now Yes: replay re-decides and plays low


def test_strip_queries_budget_zero_is_identity():
    reveals = [4, -2, 9, 0, 13, -5]
    plain = MaxPlusOne()
    stripped = StripQueries(PlainAsFeedback(MaxPlusOne()))
    assert [stripped.step(x) for x in reveals] == [plain.step(x) for x in reveals]


def test_strip_queries_flags_budget_violations():
    class Chatty(OneShotProbeGenerator):
        def step_query(self, revealed):
            super().step_query(revealed)
            return self.probe  # queries every step: violates budget 1

    stripped = StripQueries(Chatty())
    stripped.step(3)
    with pytest.raises(BudgetViolation):
        stripped.step(4)


def test_strip_queries_takes_budgets_whose_positions_fit_int64():
    deepest = OneShotProbeGenerator(probe=5)
    deepest.budget = 62
    stripped = StripQueries(deepest)
    stripped.step(5)
    assert list(stripped.positions) == [2**62]
    for budget in (None, 63):
        base = OneShotProbeGenerator(probe=5)
        base.budget = budget
        with pytest.raises(ValueError):
            StripQueries(base)


def test_monitor_moves_no_to_yes_once():
    truth = ClosedFormLanguage(frozenset({5}), None, True)
    stripped = StripQueries(OneShotProbeGenerator(probe=-1))
    for x in [5, -1, -3, -4]:
        stripped.step(x)
    assert list(stripped.positions) == [1, 2, 2, 2]


class TwoProbes(FeedbackGenerator):
    """Budget-2 fixture: asks `first` at step 0 and, at step 2, `second` or
    `second + 1` depending on the first answer; outputs encode both answers."""

    budget = 2

    def __init__(self, first: int, second: int) -> None:
        self.first = first
        self.second = second
        self.t = -1
        self.top = 0
        self.answers: list[bool] = []

    def step_query(self, revealed):
        self.t += 1
        self.top = max(self.top, revealed, self.t)
        if self.t == 0:
            return self.first
        if self.t == 2:
            return self.second if self.answers[0] is YES else self.second + 1
        return None

    def step_output(self, revealed, answer):
        if answer is not None:
            self.answers.append(answer)
        code = sum(2**k for k, a in enumerate(self.answers) if a)
        self.top += 1 + code
        return self.top


class AsksAgainOnYes(OneShotProbeGenerator):
    """Declares budget 1 but asks again every step once its probe came back
    Yes, so a replay breaks the budget once the probe has been revealed."""

    def step_query(self, revealed):
        y = super().step_query(revealed)
        return self.probe if y is not None or isinstance(self._strategy, MinMinusOne) else None


PROBES = st.integers(-6, 6)
BASES = st.one_of(
    PROBES.map(lambda p: lambda: OneShotProbeGenerator(probe=p)),
    st.just(lambda: PlainAsFeedback(MaxPlusOne())),
    st.just(lambda: PlainAsFeedback(FollowSuffix())),
    st.tuples(PROBES, PROBES).map(lambda ps: lambda: TwoProbes(*ps)),
    PROBES.map(lambda p: lambda: AsksAgainOnYes(probe=p)),
)


def _strip_play(stripped, reveals):
    outputs = []
    for x in reveals:
        try:
            outputs.append(stripped.step(x))
        except BudgetViolation:
            outputs.append("budget violation")
            break
    return outputs, list(stripped.positions)


@given(make=BASES, reveals=st.lists(st.integers(-6, 6), max_size=30))
def test_strip_queries_matches_from_scratch_replay(make, reveals):
    fast = _strip_play(StripQueries(make()), reveals)
    naive = _strip_play(NaiveStripQueries(make()), reveals)
    assert fast == naive
    assert all(a <= b for a, b in itertools.pairwise(fast[1]))


def test_strip_queries_restarts_on_each_flipped_answer():
    # -1 flips the first answer (so the second query moves from -2 to -3),
    # then -3 flips the second
    reveals = [5, 6, 7, -1, 8, -3, 9]
    base = TwoProbes(-1, -3)
    fast = _strip_play(StripQueries(base), reveals)
    assert base.t == -1 and base.answers == []  # every restart copies the unplayed base
    assert fast == _strip_play(NaiveStripQueries(TwoProbes(-1, -3)), reveals)
    # 6 is reached only if the second query moved to -3 and heard Yes;
    # asking -2 would end at 5
    assert fast[1] == [1, 1, 2, 5, 5, 6, 6]


class _CountingProbe(OneShotProbeGenerator):
    """Counts its `step_query` calls into `calls`, which every copy shares."""

    def __init__(self, probe, calls):
        super().__init__(probe)
        self.calls = calls

    def step_query(self, revealed):
        self.calls[0] += 1
        return super().step_query(revealed)

    def __deepcopy__(self, memo):
        memo[id(self.calls)] = self.calls
        clone = object.__new__(type(self))
        clone.__dict__.update(copy.deepcopy(vars(self), memo))
        return clone


ALG5_TRUTHS = [
    ClosedFormLanguage(frozenset({5}), None, True),
    suffix_from(3),
    ClosedFormLanguage(frozenset({-3, 7}), 0, False),
    NEGATIVES,
]


@pytest.mark.parametrize("truth", ALG5_TRUTHS)
def test_strip_queries_replay_work_is_linear(truth):
    steps = 2_000
    calls = [0]
    base = _CountingProbe(-1, calls)
    stripped = StripQueries(base)
    reveals = ScriptedSource(ScriptedSpec(truth)).reveals()
    for x in itertools.islice(reveals, steps):
        stripped.step(x)
    # one pass, plus one restart when the probe -1 is revealed
    assert steps <= calls[0] <= 2 * steps
    assert base._strategy is None  # the replays step copies; the base as given is never stepped


@pytest.mark.parametrize("truth", ALG5_TRUTHS[:2])
def test_strip_queries_retains_under_120_bytes_per_step(truth):
    steps = 12_800

    def play():
        stripped = StripQueries(OneShotProbeGenerator(probe=-1))
        for x in itertools.islice(ScriptedSource(ScriptedSpec(truth)).reveals(), steps):
            stripped.step(x)
        return stripped

    per_step, stripped = retained_per_step(steps, play)
    assert len(stripped.positions) == steps
    assert per_step < 120, f"{per_step:.0f} B per step"


def test_preorder_index_full_depth_two_tree():
    no, yes = False, True
    assert preorder_index([], 2) == 0
    assert preorder_index([no], 2) == 1
    assert preorder_index([no, no], 2) == 2
    assert preorder_index([no, yes], 2) == 3
    assert preorder_index([yes], 2) == 4
    assert preorder_index([yes, no], 2) == 5
    assert preorder_index([yes, yes], 2) == 6


# --- identification -------------------------------------------------------------


def make_identifier(langs):
    return IndexIdentifier(ExplicitCountable(languages=tuple(langs)))


def test_identifier_stabilizes_on_second_ray():
    truth = suffix_from(5)
    gen = make_identifier([suffix_from(0), suffix_from(5)])
    steps = drive(gen, list(range(5, 25)), truth)
    outputs = [z for (_, _, _, z) in steps]
    assert all(z == 1 for z in outputs[1:])


def test_identifier_trivial_collection():
    truth = suffix_from(0)
    gen = make_identifier([suffix_from(0)])
    steps = drive(gen, list(range(0, 30)), truth)
    assert all(z == 0 for (_, _, _, z) in steps)


def test_identifier_walks_to_third_ray():
    truth = suffix_from(2)
    gen = make_identifier([suffix_from(0), suffix_from(1), suffix_from(2)])
    steps = drive(gen, list(range(2, 30)), truth)
    outputs = [z for (_, _, _, z) in steps]
    assert outputs[-1] == 2
    assert all(z == 2 for z in outputs[2:])
    assert outputs[0] in (0, 1, 2) and sorted(set(outputs)) == sorted(set(outputs))


def test_identifier_queries_are_step_numbers():
    gen = make_identifier([suffix_from(0), suffix_from(5)])
    steps = drive(gen, list(range(5, 15)), suffix_from(5))
    assert [y for (_, y, _, _) in steps] == list(range(10))


def test_identifier_never_backslides():
    truth = suffix_from(9)
    gen = make_identifier([suffix_from(0), suffix_from(5), suffix_from(9)])
    steps = drive(gen, list(range(9, 60)), truth)
    outputs = [z for (_, _, _, z) in steps]
    settled = outputs.index(2)
    assert all(z == 2 for z in outputs[settled:])


class _CountingLanguage:
    def __init__(self, lang, calls):
        self.lang = lang
        self.calls = calls

    def __contains__(self, x):
        self.calls[0] += 1
        return x in self.lang


LANGS = st.builds(
    lambda fin, tail: ClosedFormLanguage(fin, tail, tail is None),
    st.frozensets(st.integers(-4, 12), max_size=3),
    st.one_of(st.none(), st.integers(-2, 12)),
)


@given(
    langs=st.lists(LANGS, min_size=1, max_size=5),
    k=st.integers(0, 4),
    steps=st.lists(st.tuples(st.integers(-4, 14), st.integers(0, 9)), max_size=30),
)
def test_identifier_matches_full_retest(langs, k, steps):
    # mostly honest play against one listed truth, with occasional foreign
    # reveals (noise 0) and wrong answers (noise 1), so that some languages
    # survive for a while and others fail late
    truth = langs[k % len(langs)]
    fast = make_identifier(langs)
    naive = NaiveIndexIdentifier(ExplicitCountable(languages=tuple(langs)))
    for x, noise in steps:
        if noise != 0 and x not in truth:
            continue
        y = fast.step_query(x)
        assert naive.step_query(x) == y
        answer = (y in truth) != (noise == 1)
        assert fast.step_output(x, answer) == naive.step_output(x, answer)


def test_identifier_membership_work_is_linear():
    steps = 4_000
    calls = [0]
    listed = [suffix_from(0), suffix_from(5), suffix_from(9)]
    gen = make_identifier(_CountingLanguage(lang, calls) for lang in listed)
    truth = suffix_from(9)
    outputs = [z for (_, _, _, z) in drive(gen, range(9, 9 + steps), truth)]
    assert outputs[-1] == 2
    n = len(listed)
    # two tests (reveal, step number) per listed language and step
    assert calls[0] <= 2 * n * steps


def test_index_identifier_retains_no_per_step_state():
    # alg6's collection on its last truth: every step's evidence is tested
    # once and dropped, so nothing grows with the horizon
    steps = 12_800
    truth = suffix_from(9)

    def play():
        gen = make_identifier([suffix_from(0), suffix_from(5), suffix_from(9)])
        for x in range(9, 9 + steps):
            y = gen.step_query(x)
            z = gen.step_output(x, y in truth)
        return gen, z  # the strategy stays alive while it is measured

    per_step, (_, z) = retained_per_step(steps, play)
    assert z == 2
    assert per_step < 8, f"{per_step:.1f} B per step"
