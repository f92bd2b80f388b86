import gc
import itertools
import random
import re
import weakref

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
    short_games,
    stage_language,
)


def first(source, n):
    """The first n values a source reveals."""
    return list(itertools.islice(source.reveals(), n))


def play(adversary, gen, horizon):
    """The reveals and outputs of an adaptive source's `play` against a
    strategy's `step`."""
    records = engine.Transcript(horizon)
    adversary.play(gen.step, records, horizon)
    return list(records.reveals), list(records.outputs)


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


@pytest.mark.parametrize(
    "spec, error, message",
    [
        # a position the stream never reaches, or a bool played at 1 but written `true`
        ({"noise": ((-1, -5),)}, ValueError, "position must be a non-negative int, got -1"),
        ({"noise": ((1.5, -5),)}, ValueError, "position must be a non-negative int, got 1.5"),
        ({"noise": ((True, -5),)}, ValueError, "position must be a non-negative int, got True"),
        ({"repeat_seed": True}, TypeError, "repeat_seed must be an int or None, got True"),
        ({"repeat_seed": 1.0}, TypeError, "repeat_seed must be an int or None, got 1.0"),
        # random.Random(-n) plays random.Random(n)'s draws, so -n would replay n
        ({"repeat_seed": -1}, ValueError, "repeat_seed must be non-negative, got -1"),
        ({"order": "blocks:-1"}, ValueError, "unknown order 'blocks:-1'"),
    ],
    ids=[
        "negative-position", "float-position", "bool-position", "bool-seed", "float-seed",
        "negative-seed", "negative-order-seed",
    ],
)
def test_scripted_spec_refuses_what_its_header_would_misstate(spec, error, message):
    with pytest.raises(error, match=re.escape(message)):
        ScriptedSpec(suffix_from(3), **spec)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ScriptedSpec(suffix_from(3), noise=((0, True),)), "noise value must be an int, got True"),
        (lambda: ScriptedSpec(suffix_from(3), noise=((0, 1.5),)), "noise value must be an int, got 1.5"),
        (lambda: ScriptedSpec(suffix_from(3), noise=((0, "a"),)), "noise value must be an int, got 'a'"),
        (lambda: ScriptedSpec(suffix_from(0), omissions={True}), "omission must be an int, got True"),
        (lambda: ClosedFormLanguage({True}, 5, False), "member must be an int, got True"),
        (lambda: ClosedFormLanguage({1.5}, 5, False), "member must be an int, got 1.5"),
        (lambda: ClosedFormLanguage(tail_start=True), "tail_start must be an int or None, got True"),
        (lambda: ClosedFormLanguage(tail_start=2.5), "tail_start must be an int or None, got 2.5"),
        (lambda: ClosedFormLanguage(include_negatives=1), "include_negatives must be a bool, got 1"),
    ],
    ids=[
        "bool-noise", "float-noise", "str-noise", "bool-omission", "bool-member",
        "float-member", "bool-tail", "float-tail", "int-negatives",
    ],
)
def test_a_record_that_would_misstate_a_value_is_refused(build, message):
    # a header writes a bool as `true` and keeps a float, while the game
    # plays the bool as 1 and cannot store the float, so each is refused
    # before the spec or language exists
    with pytest.raises(TypeError, match=re.escape(message)):
        build()


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


def _no_python_level_draw(*args, **kwargs):
    raise AssertionError("a stream stage drew through random.shuffle or randint")


def test_stream_draws_only_through_getrandbits(monkeypatch):
    # the `random` docs allow shuffle's and randint's algorithms to change
    # across Python versions, so the played orders rest on the seeding and
    # getrandbits alone
    seeds = [0, 1, 3, 7, 255, 2**32 + 1, 10**20]
    specs = [ScriptedSpec(suffix_from(0), f"blocks:{n}") for n in seeds]
    specs += [ScriptedSpec(suffix_from(-2), repeat_seed=n) for n in seeds]
    specs += [ScriptedSpec(suffix_from(0), f"blocks:{n}", noise=((5, -1),), repeat_seed=n + 1) for n in seeds]
    expected = [list(itertools.islice(naive_stream(spec), 200)) for spec in specs]
    for name in ("shuffle", "randint", "randrange"):
        monkeypatch.setattr(random.Random, name, _no_python_level_draw)
    assert [list(itertools.islice(spec.stream(), 200)) for spec in specs] == expected


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
    assert tuple(adversary.trigger_times) == (0, 2, 4, 6, 8)
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
    assert tuple(adversary.trigger_times) == ()
    assert adversary.final_stage_mistakes(500) == 500


def test_staged_union_stream_validity():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, FollowSuffix(), 2_000)
    assert len(set(xs)) == len(xs)
    stages = len(adversary.trigger_times)
    assert stages >= 10
    for k in range(1, min(stages, 10) + 1):
        assert -k in adversary.seen


def test_staged_union_certificates_are_sound():
    adversary = staged_union_adversary()
    _, zs = play(adversary, MaxPlusOne(), 1_000)
    limit = TranscriptLimitLanguage.of(adversary)
    for t in adversary.trigger_times:
        assert limit.status(zs[t]) == "Out"
    assert not (adversary.seen & adversary.excluded)


def test_staged_union_ramps_exceed_prior_outputs():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, FollowSuffix(), 500)
    nonneg = [x for x in xs if x >= 0]
    assert nonneg == sorted(nonneg) and len(set(nonneg)) == len(nonneg)
    # every excluded output stayed un-emitted
    assert adversary.seen.isdisjoint(adversary.excluded)


# --- the omission adversary ------------------------------------------------------


def test_omission_adversary_defeats_weaker_tolerance():
    adversary = omission_adversary(0)
    gen = OmissionTolerantGenerator(0)
    xs, zs = play(adversary, gen, 1_000)
    # stage 0 never reveals the marker, so the strategy stays low forever
    assert all(z < 0 for z in zs)
    assert not adversary.trigger_times
    assert adversary.final_stage_mistakes(1_000) == 1_000
    assert 0 not in adversary.seen


def test_omission_adversary_triggers_on_ascender():
    for level in (0, 1, 2):
        adversary = omission_adversary(level)
        play(adversary, MaxPlusOne(), 2_000)
        assert len(adversary.trigger_times) >= 10
        assert adversary.seen.isdisjoint(range(level + 1))
        assert not adversary.seen.intersection(adversary.prefix)


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
        assert len(adversary.trigger_times) >= 10
        assert len(adversary.seen.intersection(adversary.prefix)) == level + 1


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
        certified = adversary.trigger_times
        # one trigger per probe negative, then permanently quiet and wrong
        assert len(certified) == level + 1
        assert adversary.final_stage_mistakes(2_000) > 0
        assert all(z < 0 for z in zs[certified[-1] + 2 :])


def test_sensitivity_adversary_triggers_forever_on_ascender():
    adversary = sensitivity_adversary()
    play(adversary, MaxPlusOne(), 2_000)
    assert len(adversary.trigger_times) >= 10


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


def _construction(which: int, level: int, k: int, start: int, shift: int):
    """A staged adversary and its reference: one of the four constructions
    at `level`, or a faulty plan whose stage 0 plays the ray from `start`
    after a noise prefix of `k` values."""
    if which < len(CONSTRUCTIONS):
        fast = _adversary(CONSTRUCTIONS[which], level)
    else:
        fast = FaultyStagedAdversary(k, start, shift)
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
    """Reveals, outputs and the verdict codes `adversary.play` records, and
    the number of reveals played, the exception type and its message that
    ended play early, if any."""
    records = engine.Transcript(horizon)
    ended = None
    try:
        adversary.play(gen.step, records, horizon)
    except (AdversaryRepeat, CertificateBroken, ValueError) as exc:
        ended = (len(records.reveals), type(exc), str(exc))
    return list(records.reveals), list(records.outputs), records.codes, ended


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 4),
    level=st.integers(0, 2),
    k=st.integers(0, 4),
    start=st.integers(-3, 3),
    shift=st.integers(-3, 3),
    choice=st.integers(0, len(_OPPONENTS) - 1)
    | st.lists(st.tuples(st.booleans(), st.integers(-6, 40)), min_size=1, max_size=60),
    horizon=st.integers(1, 300),
)
# the ascender triggers on every even step, the last one included, so the run
# stops with a rebuild pending
@example(which=0, level=0, k=0, start=0, shift=0, choice=0, horizon=9)
# a faulty plan reaching each guard: a ramp below zero plays -2 before the
# second trigger owes it, the first owed negative repeats the prefix's -1, a
# rebuilt ramp starts on the certified 1, and an output of -1 would certify
# a negative
@example(which=4, level=0, k=0, start=0, shift=-3, choice=0, horizon=5)
@example(which=4, level=0, k=1, start=0, shift=2, choice=0, horizon=3)
@example(which=4, level=0, k=0, start=0, shift=0, choice=0, horizon=5)
@example(which=4, level=0, k=0, start=-2, shift=2, choice=[(False, -1)], horizon=3)
def test_flat_adversary_matches_stage_record_reference(
    which, level, k, start, shift, choice, horizon
):
    fast, naive = _construction(which, level, k, start, shift)
    xs, zs, codes, ended = _play_until_raise(fast, _opponent(choice, level), horizon)
    naive_xs, naive_zs, naive_codes, naive_ended = _play_until_raise(
        naive, _opponent(choice, level), horizon
    )
    assert xs == naive_xs
    assert zs == naive_zs
    assert codes == naive_codes
    assert ended == naive_ended
    assert fast.trigger_times == naive.certified_mistake_times
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
    # the reference keeps its noise prefix out of `limit.seen`
    assert fast.seen - set(fast.prefix) == naive.limit.seen
    assert fast.excluded == naive.limit.excluded
    if ended is None or ended[1] is AdversaryRepeat:
        # a refused add_seen leaves the value in the reference's emitted list
        # the prefix values played outside the promised negatives
        assert sum(v >= 0 for v in fast.seen.intersection(fast.prefix)) == naive.noise_count()
        assert fast.seen == naive.emitted_set


# faulty plans, each reaching one guard of `play`: (prefix length, start,
# shift, outputs, horizon), then the reveals played, the trigger times, and
# the exception and message that ended play
_GUARDS = {
    # a ramp below zero plays -2 before the second trigger owes it
    "negative-replayed": (
        (0, 0, -3, 0, 5), [0, -1, -2], [0, 2], AdversaryRepeat, "adversary repeated -2"
    ),
    # the prefix below a ray from 0 plays -1 before the first trigger owes it
    "prefix-owed": ((1, 0, 2, 0, 3), [-1, 0], [1], AdversaryRepeat, "adversary repeated -1"),
    # a rebuilt ramp starts on the certified 1
    "certified-played": (
        (0, 0, 0, 0, 5), [0, -1], [0], CertificateBroken, "1 was committed as never-enumerated"
    ),
    # an output of -1 triggers, and would certify a negative
    "negative-certified": (
        (0, -2, 2, [(False, -1)], 3), [-2], [0], CertificateBroken, "-1 lies in the promised part"
    ),
}


@pytest.mark.parametrize("guard", sorted(_GUARDS))
def test_each_guard_ends_play_at_its_step(guard):
    # a value's guard ends play before the value is played, and the trigger
    # guard on the step of its trigger
    (k, start, shift, choice, horizon), xs, triggers, kind, message = _GUARDS[guard]
    fast = FaultyStagedAdversary(k, start, shift)
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


@pytest.mark.parametrize("level", [True, False, 1.0, "1", None])
def test_a_level_that_is_not_an_int_is_refused(level):
    # a bool is an int to Python, and would play the level-0 or level-1 game
    # with `level` a bool
    with pytest.raises(TypeError, match="level must be an int"):
        StagedAdversary("omission", level)


@pytest.mark.parametrize("construction", ["bogus", "Union", "", "noise-prefix"])
def test_an_unknown_construction_is_refused_by_name(construction):
    with pytest.raises(ValueError) as refused:
        StagedAdversary(construction)
    assert f"unknown construction {construction!r}" in str(refused.value)
    assert all(repr(name) in str(refused.value) for name in CONSTRUCTIONS)


@pytest.mark.parametrize("level", range(3))
@pytest.mark.parametrize("construction", CONSTRUCTIONS)
def test_a_fresh_adversary_replays_a_run_from_its_outputs(construction, level):
    # `play` reads each output only from what `step` returns, so a `step`
    # that returns a finished run's outputs in order drives a fresh
    # adversary through the same play, handing `step` the run's reveals,
    # and judges every step the same way
    horizon = 300
    for make in _OPPONENTS:
        adversary = _adversary(construction, level)
        records, result = engine.run(make(level), adversary, Mode.standard(), horizon)
        fresh, replayed = _adversary(construction, level), engine.Transcript(horizon)

        def recorded(x):
            t = len(replayed.outputs)
            assert x == records.reveals[t]
            return records.outputs[t]

        fresh.play(recorded, replayed, horizon)
        assert replayed.reveals == records.reveals
        assert replayed.outputs == records.outputs
        assert replayed.codes == records.codes
        assert fresh.trigger_times == adversary.trigger_times
        assert fresh.final_stage_mistakes(horizon) == result.final_stage_mistakes


@pytest.mark.parametrize(
    "construction, first",
    # a noise-prefix adversary played for fewer steps than its prefix has
    # played noise values only
    [pytest.param(c, 50, id=c) for c in CONSTRUCTIONS]
    + [pytest.param("noise_prefix", 1, id="noise_prefix-inside-its-prefix")],
)
def test_a_played_adversary_is_refused_before_it_records_anything(construction, first):
    # a second game would replay the first one's values, and read as a
    # broken construction (AdversaryRepeat) rather than a misused one
    adversary = _adversary(construction, 1)
    _, result = engine.run(MaxPlusOne(), adversary, Mode.standard(), first)
    played, times = set(adversary.seen), adversary.trigger_times[:]
    for horizon in (1, 50):
        records = engine.Transcript(horizon)
        with pytest.raises(ValueError, match="plays its game once"):
            adversary.play(MaxPlusOne().step, records, horizon)
        assert not records.reveals and not records.outputs
        assert records.codes == bytes(horizon)
    with pytest.raises(ValueError, match="plays its game once"):
        engine.run(MaxPlusOne(), adversary, Mode.standard(), 50)
    assert adversary.seen == played
    assert adversary.trigger_times == times
    assert adversary.final_stage_mistakes(first) == result.final_stage_mistakes


@pytest.mark.parametrize(
    "construction, level",
    [("union", 0), ("sensitivity", 0)] + [(c, level) for c in MARKED for level in range(3)],
)
def test_every_short_game_keeps_the_constructions_promises(construction, level):
    # all 12**4 output sequences over -3..8 at horizon 4; no guard may fire,
    # and each game that breaks a promise is listed under it
    horizon = 4
    (_, extras), _, prefix, _ = naive_construction(construction, level)
    markers = range(level + 1) if construction in MARKED else ()
    broken = {"prefix": [], "order": [], "verdict": [], "final stage": []}
    for outputs, records, adversary in short_games(construction, level, horizon, range(-3, 9)):
        xs, times = records.reveals.tolist(), adversary.trigger_times
        if xs[: len(prefix)] != list(prefix[:horizon]):
            broken["prefix"].append(outputs)
        truth = [x for x in xs[len(prefix) :] if x >= 0]
        if truth != sorted(set(truth)):
            broken["order"].append(outputs)
        # a played, certified or marker output is a Mistake, a negative
        # Correct, any other Unknown
        played, certified, codes = set(), set(markers), bytearray(horizon)
        for t, z in enumerate(outputs):
            played.add(xs[t])
            if t in times:
                certified.add(z)
            codes[t] = 1 if z in played or z in certified else 0 if z < 0 else 2
        if codes != records.codes:
            broken["verdict"].append(outputs)
        # the last stage starts after the last trigger's owed negative, or
        # after the noise prefix; no output from there on is an unseen member
        # of its language
        k = len(times)
        start = (xs.index(-k) + 1 if -k in xs else horizon) if k else len(prefix)
        if start < horizon:
            last = stage_language(adversary, xs, k, extras)
            if any(z not in xs[: t + 1] and z in last for t, z in enumerate(outputs) if t >= start):
                broken["final stage"].append(outputs)
        if adversary.final_stage_mistakes(horizon) != max(0, horizon - start):
            broken["final stage"].append(outputs)
    assert broken == {promise: [] for promise in broken}


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
    assert len(adversary.trigger_times) == steps // 2
    assert per_step < 200, f"{per_step:.0f} B per step"
