import gc
import itertools
import weakref
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from limitgen import engine
from limitgen.engine import Mode
from limitgen.errors import AdversaryRepeat, CertificateBroken
from limitgen.families import neg_union
from limitgen.generators import (
    FollowSuffix,
    MaxPlusOne,
    MinMinusOne,
    NoiseTolerantGenerator,
    OmissionTolerantGenerator,
    SensitivityGenerator,
    intersection_generator,
)
from limitgen.langs import ClosedFormLanguage, suffix_from
from limitgen.sources import (
    ScriptedSource,
    ScriptedSpec,
    StagedAdversary,
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)

from oracles import (
    FaultyStagedAdversary,
    NaiveStagedAdversary,
    TranscriptLimitLanguage,
    members_in,
    naive_construction,
    naive_stream,
    retained_per_step,
    scripted_specs,
    stage_language,
)


def first(source, n):
    """The first n values a source reveals."""
    return list(itertools.islice(source.reveals(), n))


def play(adversary, gen, horizon):
    """Minimal reveal/output loop against an adaptive source."""
    xs, zs = [], []
    for x in adversary.play(zs, bytearray(horizon), horizon):
        xs.append(x)
        zs.append(gen.step(x))
    return xs, zs


# --- scripted sources ---------------------------------------------------------


def test_scripted_canonical_ray():
    src = ScriptedSource(ScriptedSpec(suffix_from(0)))
    assert first(src, 4) == [0, 1, 2, 3]


def test_scripted_single_noise_insertion():
    src = ScriptedSource(ScriptedSpec(suffix_from(0), noise=((0, -1),)))
    assert first(src, 4) == [-1, 0, 1, 2]


def test_scripted_omission():
    truth = ClosedFormLanguage(frozenset({5}), None, True)
    src = ScriptedSource(ScriptedSpec(truth, omissions=frozenset({5})))
    assert first(src, 3) == [-1, -2, -3]


def test_scripted_every_other():
    src = ScriptedSource(ScriptedSpec(suffix_from(0), omissions="every_other"))
    assert first(src, 4) == [0, 2, 4, 6]


def test_scripted_rejects_bad_specs():
    with pytest.raises(ValueError):
        ScriptedSpec(suffix_from(0), noise=((0, 3),))  # noise inside the truth
    with pytest.raises(ValueError):
        ScriptedSpec(suffix_from(0), omissions=frozenset({-4}))  # not a member
    with pytest.raises(ValueError):
        ScriptedSpec(suffix_from(0), noise=((0, -1), (0, -2)))  # position clash
    with pytest.raises(ValueError):
        ScriptedSpec(suffix_from(0), order="sorted")
    # a seed is an integer spelt as `str` spells it, so the header names the order played
    for order in ["blocks:x", "blocks:", "blocks:1.5", "blocks: 3", "blocks:+3", "blocks:03"]:
        with pytest.raises(ValueError, match="unknown order"):
            ScriptedSpec(suffix_from(0), order=order)


def test_scripted_block_shuffle_is_deterministic_and_complete():
    spec = ScriptedSpec(suffix_from(0), order="blocks:7")
    played = first(ScriptedSource(spec), 96)
    assert played == first(ScriptedSource(spec), 96)
    assert played != list(range(96))  # the shuffle does something
    assert set(played) == set(range(96))  # blocks permute in place


def test_scripted_repetitions_dedup_to_base():
    spec = ScriptedSpec(suffix_from(0), repeat_seed=3)
    stream = first(ScriptedSource(spec), 200)
    deduped = list(dict.fromkeys(stream))
    assert deduped == list(range(len(deduped)))
    runs = [len(list(g)) for _, g in itertools.groupby(stream)]
    assert max(runs) <= 5 and max(runs) > 1


def test_dropped_scripted_source_is_freed_without_the_cycle_collector():
    spec = ScriptedSpec(suffix_from(0), order="blocks:1", noise=((2, -1),), repeat_seed=0)
    src = ScriptedSource(spec)
    stream = src.reveals()
    for _ in range(51):
        next(stream)
    ref = weakref.ref(src)
    gc.disable()
    try:
        del src
        assert ref() is None
    finally:
        gc.enable()


@settings(max_examples=200)
@given(spec=scripted_specs(), ahead=st.integers(0, 40), steps=st.integers(1, 80))
def test_scripted_source_plays_its_spec_stream(spec, ahead, steps):
    # a look-ahead reads its own stream of the spec first, as t* look-aheads
    # do; the source then still plays the spec's stream from its start
    look_ahead = list(itertools.islice(spec.stream(), ahead))
    played = first(ScriptedSource(spec), steps)
    assert played == list(itertools.islice(spec.stream(), steps))
    assert played[:ahead] == look_ahead[:steps]


@settings(max_examples=300)
@given(spec=scripted_specs())
def test_stream_stages_match_the_four_stage_pipeline(spec):
    # the stream skips the stages its spec does not use; the reference
    # passes every value through all four
    assert list(itertools.islice(spec.stream(), 200)) == list(
        itertools.islice(naive_stream(spec), 200)
    )


def test_scripted_source_plays_its_stream_once():
    src = ScriptedSource(ScriptedSpec(suffix_from(0)))
    stream = src.reveals()
    with pytest.raises(ValueError, match="plays its stream once"):
        src.reveals()
    assert list(itertools.islice(stream, 3)) == [0, 1, 2]


# --- the staged union adversary -------------------------------------------------


def test_staged_union_exact_replay_against_ascender():
    adversary = staged_union_adversary()
    xs, zs = play(adversary, MaxPlusOne(), 9)
    assert xs == [0, -1, 3, -2, 6, -3, 9, -4, 12]
    assert zs == [1, 2, 4, 5, 7, 8, 10, 11, 13]
    assert tuple(adversary.certified_mistake_times) == (0, 2, 4, 6, 8)
    assert adversary.excluded == {1, 4, 7, 10, 13}
    assert stage_language(adversary, xs, 1) == ClosedFormLanguage(frozenset({0, -1}), 3, False)
    assert stage_language(adversary, xs, 2) == ClosedFormLanguage(
        frozenset({0, -1, 3, -2}), 6, False
    )


def test_staged_union_never_triggers_on_fresh_negatives():
    adversary = staged_union_adversary()
    gen = intersection_generator(neg_union())
    play(adversary, gen, 500)
    assert not adversary.trigger_times
    assert tuple(adversary.certified_mistake_times) == ()
    assert adversary.final_stage_mistakes(500) == 500


def test_staged_union_stream_validity():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, FollowSuffix(), 2_000)
    assert len(set(xs)) == len(xs)
    stages = len(adversary.certified_mistake_times)
    assert stages >= 10
    for k in range(1, min(stages, 10) + 1):
        assert adversary.emitted(-k)


def test_staged_union_certificates_are_sound():
    adversary = staged_union_adversary()
    _, zs = play(adversary, MaxPlusOne(), 1_000)
    limit = TranscriptLimitLanguage.of(adversary)
    for t in adversary.certified_mistake_times:
        assert limit.status(zs[t]) == "Out"
    assert not (adversary.seen & adversary.excluded)


def test_staged_union_ramps_exceed_prior_outputs():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, FollowSuffix(), 500)
    nonneg = [x for x in xs if x >= 0]
    assert nonneg == sorted(nonneg) and len(set(nonneg)) == len(nonneg)
    # every excluded output stayed un-emitted
    assert not any(adversary.emitted(v) for v in adversary.excluded)


# --- the omission adversary ------------------------------------------------------


def test_omission_adversary_defeats_weaker_tolerance():
    adversary = omission_adversary(0)
    gen = OmissionTolerantGenerator(0)
    xs, zs = play(adversary, gen, 1_000)
    # stage 0 never reveals the marker, so the strategy stays low forever
    assert all(z < 0 for z in zs)
    assert not adversary.trigger_times
    assert adversary.final_stage_mistakes(1_000) == 1_000
    assert not adversary.emitted(0)


def test_omission_adversary_triggers_on_ascender():
    for level in (0, 1, 2):
        adversary = omission_adversary(level)
        play(adversary, MaxPlusOne(), 2_000)
        assert len(adversary.certified_mistake_times) >= 10
        assert not any(adversary.emitted(v) for v in range(level + 1))
        assert adversary.noise_count() == 0


def test_omission_adversary_stage_zero_stream():
    adversary = omission_adversary(2)
    xs, _ = play(adversary, MinMinusOne(), 5)
    assert xs == [3, 4, 5, 6, 7]


# --- the noise-prefix adversary ---------------------------------------------------


def test_noise_prefix_emits_markers_first():
    adversary = noise_prefix_adversary(2)
    xs, _ = play(adversary, MinMinusOne(), 6)
    assert xs[:3] == [0, 1, 2]
    assert xs[3:] == [3, 4, 5]  # stage 0 continues above the markers


def test_noise_prefix_defeats_matching_tolerance():
    for level in (0, 1, 2):
        adversary = noise_prefix_adversary(level)
        gen = NoiseTolerantGenerator(level)
        play(adversary, gen, 2_000)
        assert len(adversary.certified_mistake_times) >= 10
        assert adversary.noise_count() == level + 1


def test_noise_prefix_stage_languages_avoid_markers():
    adversary = noise_prefix_adversary(1)
    xs, _ = play(adversary, NoiseTolerantGenerator(1), 200)
    for index in (1, 2, 3):
        lang = stage_language(adversary, xs, index)
        assert 0 not in lang.finite_part and 1 not in lang.finite_part


# --- the sensitivity adversary -----------------------------------------------------


def test_sensitivity_adversary_exhausts_fixed_levels():
    for level in range(3):
        adversary = sensitivity_adversary()
        gen = SensitivityGenerator(level)
        _, zs = play(adversary, gen, 2_000)
        certified = adversary.certified_mistake_times
        # one trigger per probe negative, then permanently quiet and wrong
        assert len(certified) == level + 1
        assert adversary.final_stage_mistakes(2_000) > 0
        assert all(z < 0 for z in zs[certified[-1] + 2 :])


def test_sensitivity_adversary_triggers_forever_on_ascender():
    adversary = sensitivity_adversary()
    play(adversary, MaxPlusOne(), 2_000)
    assert len(adversary.certified_mistake_times) >= 10


# --- every construction's stage 0 ---------------------------------------------------

# each factory, and for a level the j of the ray P_j that the paper gives as
# its stage-0 language and the first value stage 0 reveals after the prefix
_FIRST_STAGES = [
    pytest.param(lambda level: staged_union_adversary(), lambda level: (0, 0), id="union"),
    pytest.param(omission_adversary, lambda level: (0, level + 1), id="omission"),
    pytest.param(noise_prefix_adversary, lambda level: (level + 1, level + 1), id="noise-prefix"),
    pytest.param(lambda level: sensitivity_adversary(), lambda level: (0, 0), id="sensitivity"),
]


@pytest.mark.parametrize("level", range(4))
@pytest.mark.parametrize("factory, expected", _FIRST_STAGES)
def test_first_stage_is_the_papers_ray_played_as_a_ramp(factory, expected, level):
    adversary = factory(level)
    j, first_reveal = expected(level)
    window = range(-20, 61)
    stage0 = stage_language(adversary, [], 0)
    assert members_in(stage0, window) == members_in(suffix_from(j), window)
    # while no output triggers, stage 0 plays its ramp after the noise prefix
    reveals, _ = play(adversary, MinMinusOne(), len(adversary.prefix) + 8)
    assert reveals[len(adversary.prefix) :] == list(range(first_reveal, first_reveal + 8))


# --- flat stage state against the one-record-per-stage reference -----------------


CONSTRUCTIONS = ("union", "omission", "noise_prefix", "sensitivity")
MARKED = ("omission", "noise_prefix")  # the constructions that take a level


def _adversary(construction: str, level: int) -> StagedAdversary:
    """The construction at `level` if it takes one, else at level 0."""
    return StagedAdversary(construction, level if construction in MARKED else 0)


def _construction(which: int, level: int, prefix: list[int], start: int, shift: int):
    """A staged adversary and its reference: one of the four constructions
    at `level`, or a faulty plan whose stage 0 plays the ray from `start`."""
    if which < len(CONSTRUCTIONS):
        fast = _adversary(CONSTRUCTIONS[which], level)
    else:
        fast = FaultyStagedAdversary(prefix, start, shift)
    return fast, NaiveStagedAdversary.twin(fast)


_OPPONENTS = [  # each built from the drawn level
    lambda level: MaxPlusOne(),
    lambda level: MinMinusOne(),
    lambda level: FollowSuffix(),
    OmissionTolerantGenerator,
    NoiseTolerantGenerator,
    SensitivityGenerator,
]


def _opponent(choice, level: int):
    """A fresh pool strategy, or one that plays drawn outputs: each either a
    value or an offset from the step's reveal."""
    if isinstance(choice, int):
        return _OPPONENTS[choice](level)
    outputs = itertools.cycle(choice)

    class Drawn:
        def step(self, x):
            relative, value = next(outputs)
            return x + value if relative else value

    return Drawn()


def _play_until_raise(adversary, gen, horizon):
    """Reveals, outputs and the verdict codes `adversary.play` writes, and
    the number of reveals played, the exception type and its message that
    ended play early, if any."""
    xs, zs, codes = [], [], bytearray(horizon)
    try:
        for x in adversary.play(zs, codes, horizon):
            xs.append(x)
            zs.append(gen.step(x))
    except (AdversaryRepeat, CertificateBroken, ValueError) as exc:
        return xs, zs, codes, (len(xs), type(exc), str(exc))
    return xs, zs, codes, None


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 4),
    level=st.integers(0, 2),
    prefix=st.lists(st.integers(-3, 6), max_size=4),
    start=st.integers(-3, 3),
    shift=st.integers(-3, 3),
    choice=st.integers(0, len(_OPPONENTS) - 1)
    | st.lists(st.tuples(st.booleans(), st.integers(-6, 40)), min_size=1, max_size=60),
    horizon=st.integers(1, 300),
)
# the ascender triggers on every even step, the last one included, so the run
# stops with a rebuild pending
@example(which=0, level=0, prefix=[], start=0, shift=0, choice=0, horizon=9)
# a faulty plan reaching each guard: a ramp below zero plays -2 before the
# second trigger owes it, the ramp replays the prefix's 0, a rebuilt ramp
# starts on the certified 1, the prefix repeats 4, and an output of -1 would
# certify a negative
@example(which=4, level=0, prefix=[], start=0, shift=-3, choice=0, horizon=5)
@example(which=4, level=0, prefix=[0], start=0, shift=2, choice=0, horizon=3)
@example(which=4, level=0, prefix=[], start=0, shift=0, choice=0, horizon=5)
@example(which=4, level=0, prefix=[4, 4], start=0, shift=2, choice=0, horizon=3)
@example(which=4, level=0, prefix=[], start=-2, shift=2, choice=[(False, -1)], horizon=3)
def test_flat_adversary_matches_stage_record_reference(
    which, level, prefix, start, shift, choice, horizon
):
    fast, naive = _construction(which, level, prefix, start, shift)
    xs, zs, codes, ended = _play_until_raise(fast, _opponent(choice, level), horizon)
    naive_xs, naive_zs, naive_codes, naive_ended = _play_until_raise(
        naive, _opponent(choice, level), horizon
    )
    assert xs == naive_xs
    assert zs == naive_zs
    assert codes == naive_codes
    assert ended == naive_ended
    assert fast.certified_mistake_times == naive.certified_mistake_times
    triggered = [s for s in naive.stages if s.trigger_time is not None]
    assert [zs[t] for t in fast.trigger_times] == [s.trigger_output for s in triggered]
    # a later stage's tail start is its first ramp value, played at its start
    later = [s for s in naive.stages[1:] if s.started_at < len(xs)]
    assert [xs[s.started_at] for s in later] == [s.tail_start for s in later]
    # each later stage starts two steps after the trigger that ended the one before
    started = [s.started_at for s in naive.stages[1:]]
    assert started == [t + 2 for t in fast.trigger_times[: len(started)]]
    if ended is None:  # `final_stage_mistakes` reads a finished play's trigger times
        assert fast.final_stage_mistakes(horizon) == naive.final_stage_mistakes(horizon)
    assert fast.seen == naive.limit.seen
    assert fast.excluded == naive.limit.excluded
    if ended is None or ended[1] is AdversaryRepeat:
        # a refused add_seen leaves the value in the reference's emitted list
        assert fast.noise_count() == naive.noise_count()
        assert all(fast.emitted(v) == (v in naive.emitted_set) for v in range(-12, 60))
        assert all(fast.emitted(v) for v in naive.emitted)


# faulty plans, each reaching one guard of `play`: (prefix, start, shift,
# outputs, horizon), then the reveals played, the trigger times, and the
# exception and message that ended play
_GUARDS = {
    # a ramp below zero plays -2 before the second trigger owes it
    "negative-replayed": (
        ((), 0, -3, 0, 5), [0, -1, -2], [0, 2], AdversaryRepeat, "adversary repeated -2"
    ),
    # the ramp replays the prefix's 0
    "prefix-replayed": (((0,), 0, 2, 0, 3), [0], [], AdversaryRepeat, "adversary repeated 0"),
    # a rebuilt ramp starts on the certified 1
    "certified-played": (
        ((), 0, 0, 0, 5), [0, -1], [0], CertificateBroken, "1 was committed as never-enumerated"
    ),
    # the prefix repeats 4
    "prefix-repeats": (((4, 4), 0, 2, 0, 3), [4], [], AdversaryRepeat, "adversary repeated 4"),
    # an output of -1 triggers, and would certify a negative
    "negative-certified": (
        ((), -2, 2, [(False, -1)], 3), [-2], [0], CertificateBroken, "-1 lies in the promised part"
    ),
}


@pytest.mark.parametrize("guard", sorted(_GUARDS))
def test_each_guard_ends_play_at_its_step(guard):
    # a value's guard ends play before the value is played, and the trigger
    # guard on the step of its trigger
    (prefix, start, shift, choice, horizon), xs, triggers, kind, message = _GUARDS[guard]
    fast = FaultyStagedAdversary(prefix, start, shift)
    played, _, _, ended = _play_until_raise(fast, _opponent(choice, 0), horizon)
    assert played == xs
    assert list(fast.trigger_times) == triggers
    assert ended == (len(xs), kind, message)


@pytest.mark.parametrize(
    "construction, level",
    [("union", 5), ("sensitivity", 1), ("omission", -1), ("noise_prefix", -1), ("union", -1)],
)
def test_a_level_the_construction_would_not_play_is_refused(construction, level):
    with pytest.raises(ValueError, match="level"):
        StagedAdversary(construction, level)


@pytest.mark.parametrize("level", range(3))
@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_a_fresh_adversary_replays_a_run_from_its_outputs(construction, level):
    # `play` reads each output after yielding its step's value, so a
    # finished run's output column drives a fresh adversary through the
    # same play, and judges every step the same way
    horizon = 300
    for make in _OPPONENTS:
        adversary = _adversary(construction, level)
        records, result = engine.run(make(level), adversary, Mode.standard(), horizon)
        fresh, codes = _adversary(construction, level), bytearray(horizon)
        assert array("q", fresh.play(records.outputs, codes, horizon)) == records.reveals
        assert codes == records.codes
        assert fresh.trigger_times == adversary.trigger_times
        assert fresh.final_stage_mistakes(horizon) == result.final_stage_mistakes


def test_reference_limit_writes_are_checked():
    naive = NaiveStagedAdversary(*naive_construction("union", 0))
    naive.add_seen(3)
    with pytest.raises(ValueError):
        naive.add_excluded(3)  # already enumerated
    with pytest.raises(CertificateBroken):
        naive.add_excluded(-2)  # promised
    naive.add_excluded(9)
    with pytest.raises(CertificateBroken):
        naive.add_seen(9)


def test_staged_union_retains_under_200_bytes_per_step():
    steps = 40_000

    def play():
        adversary = staged_union_adversary()
        engine.run(MaxPlusOne(), adversary, Mode.standard(), steps)
        return adversary

    per_step, adversary = retained_per_step(steps, play)
    assert len(adversary.certified_mistake_times) == steps // 2
    assert per_step < 200, f"{per_step:.0f} B per step"
