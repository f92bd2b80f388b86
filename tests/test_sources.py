import gc
import itertools
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from limitgen import engine
from limitgen.engine import Mode
from limitgen.errors import AdversaryRepeat
from limitgen.generators import baseline, intersection_generator
from limitgen.families import neg_union
from limitgen.generators import (
    FollowSuffix,
    MaxPlusOne,
    MinMinusOne,
    NoiseTolerantGenerator,
    OmissionTolerantGenerator,
    SensitivityGenerator,
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
    NaiveStagedAdversary,
    members_in,
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
    for t in range(horizon):
        x = adversary.emit(t)
        z = gen.step(x)
        adversary.observe(t, z)
        xs.append(x)
        zs.append(z)
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
    xs, zs = play(adversary, baseline("max_plus_one"), 9)
    assert xs == [0, -1, 3, -2, 6, -3, 9, -4, 12]
    assert zs == [1, 2, 4, 5, 7, 8, 10, 11, 13]
    assert tuple(adversary.certified_mistake_times) == (0, 2, 4, 6, 8)
    assert adversary.limit.excluded == {1, 4, 7, 10, 13}
    assert stage_language(adversary, xs, 1) == ClosedFormLanguage(frozenset({0, -1}), 3, False)
    assert stage_language(adversary, xs, 2) == ClosedFormLanguage(
        frozenset({0, -1, 3, -2}), 6, False
    )


def test_staged_union_never_triggers_on_fresh_negatives():
    adversary = staged_union_adversary()
    gen = intersection_generator(neg_union())
    play(adversary, gen, 500)
    assert adversary.no_trigger
    assert tuple(adversary.certified_mistake_times) == ()
    assert adversary.final_stage_mistakes(500) == 500


def test_staged_union_stream_validity():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, baseline("follow_suffix"), 2_000)
    assert len(set(xs)) == len(xs)
    stages = len(adversary.certified_mistake_times)
    assert stages >= 10
    for k in range(1, min(stages, 10) + 1):
        assert adversary.emitted(-k)


def test_staged_union_certificates_are_sound():
    adversary = staged_union_adversary()
    _, zs = play(adversary, baseline("max_plus_one"), 1_000)
    for t in adversary.certified_mistake_times:
        assert adversary.limit.status(zs[t]) == "Out"
    assert not (adversary.limit.seen & adversary.limit.excluded)


def test_staged_union_ramps_exceed_prior_outputs():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, baseline("follow_suffix"), 500)
    nonneg = [x for x in xs if x >= 0]
    assert nonneg == sorted(nonneg) and len(set(nonneg)) == len(nonneg)
    # every excluded output stayed un-emitted
    assert not any(adversary.emitted(v) for v in adversary.limit.excluded)


# --- the omission adversary ------------------------------------------------------


def test_omission_adversary_defeats_weaker_tolerance():
    adversary = omission_adversary(0)
    gen = OmissionTolerantGenerator(0)
    xs, zs = play(adversary, gen, 1_000)
    # stage 0 never reveals the marker, so the strategy stays low forever
    assert all(z < 0 for z in zs)
    assert adversary.no_trigger
    assert adversary.final_stage_mistakes(1_000) == 1_000
    assert not adversary.emitted(0)


def test_omission_adversary_triggers_on_ascender():
    for level in (0, 1, 2):
        adversary = omission_adversary(level)
        play(adversary, baseline("max_plus_one"), 2_000)
        assert len(adversary.certified_mistake_times) >= 10
        assert not any(adversary.emitted(v) for v in range(level + 1))
        assert adversary.noise_count() == 0


def test_omission_adversary_stage_zero_stream():
    adversary = omission_adversary(2)
    xs, _ = play(adversary, baseline("min_minus_one"), 5)
    assert xs == [3, 4, 5, 6, 7]


# --- the noise-prefix adversary ---------------------------------------------------


def test_noise_prefix_emits_markers_first():
    adversary = noise_prefix_adversary(2)
    xs, _ = play(adversary, baseline("min_minus_one"), 6)
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
    for index in range(1, len(adversary.tail_starts) + 1)[:3]:
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
    play(adversary, baseline("max_plus_one"), 2_000)
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
    # with no output observed, stage 0 plays its ramp after the noise prefix
    reveals = [adversary.emit(t) for t in range(len(adversary.prefix) + 8)]
    assert reveals[len(adversary.prefix) :] == list(range(first_reveal, first_reveal + 8))


# --- flat stage state against the one-record-per-stage reference -----------------


def _construction(which: int, level: int, prefix: list[int], shift: int) -> StagedAdversary:
    """The four constructions, and a plan whose ramps and noise prefix may
    repeat a value or replay a certified output, with stage 0 playing the
    ray from `level`."""
    if which == 0:
        return staged_union_adversary()
    if which == 1:
        return omission_adversary(level)
    if which == 2:
        return noise_prefix_adversary(level)
    if which == 3:
        return sensitivity_adversary()
    return StagedAdversary(
        first_stage=(level, frozenset()),
        next_stage=lambda z, _m: (z + shift, frozenset()),
        prefix=prefix,
    )


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


def _play_until_raise(adversary, gen, horizon, judge):
    """Reveals, the verdict code `judge(adversary, t, output)` gives each
    step after its reaction, and the step and exception that ended play
    early, if any."""
    xs, codes = [], []
    for t in range(horizon):
        try:
            x = adversary.emit(t)
            xs.append(x)
            codes.append(judge(adversary, t, gen.step(x)))
        except (AdversaryRepeat, ValueError) as exc:
            return xs, codes, (t, type(exc), str(exc))
    return xs, codes, None


def _reference_verdict(naive, t, z):
    """The reference's reaction, then `verdict` against its limit language,
    with every value it played as the seen set."""
    naive.observe(t, z)
    return engine._VERDICTS.index(engine.verdict(z, naive.limit, naive.emitted_set))


@settings(max_examples=300, deadline=None)
@given(
    which=st.integers(0, 4),
    level=st.integers(0, 2),
    prefix=st.lists(st.integers(-3, 6), max_size=4),
    shift=st.integers(-3, 3),
    choice=st.integers(0, len(_OPPONENTS) - 1)
    | st.lists(st.tuples(st.booleans(), st.integers(-6, 40)), min_size=1, max_size=60),
    horizon=st.integers(1, 300),
)
def test_flat_adversary_matches_stage_record_reference(which, level, prefix, shift, choice, horizon):
    fast = _construction(which, level, prefix, shift)
    naive = NaiveStagedAdversary.twin(fast)
    xs, codes, ended = _play_until_raise(
        fast, _opponent(choice, level), horizon, StagedAdversary.observe
    )
    naive_xs, naive_codes, naive_ended = _play_until_raise(
        naive, _opponent(choice, level), horizon, _reference_verdict
    )
    assert xs == naive_xs
    assert codes == naive_codes
    assert ended == naive_ended
    assert fast.certified_mistake_times == naive.certified_mistake_times
    triggered = [s for s in naive.stages if s.trigger_time is not None]
    assert list(fast.trigger_outputs) == [s.trigger_output for s in triggered]
    assert list(fast.tail_starts) == [s.tail_start for s in naive.stages[1:]]
    assert fast.final_stage_mistakes(horizon) == naive.final_stage_mistakes(horizon)
    assert fast.limit.seen == naive.limit.seen
    assert fast.limit.excluded == naive.limit.excluded
    if ended is None or ended[1] is AdversaryRepeat:
        # a refused add_seen leaves the value in the reference's emitted list
        assert fast.noise_count() == naive.noise_count()
        assert all(fast.emitted(v) == (v in naive.emitted_set) for v in range(-12, 60))
        assert all(fast.emitted(v) for v in naive.emitted)


def test_reference_limit_writes_are_checked():
    naive = NaiveStagedAdversary((0, frozenset()), lambda z, _m: (z + 2, frozenset()))
    naive.add_seen(3)
    with pytest.raises(ValueError):
        naive.add_excluded(3)  # already enumerated
    with pytest.raises(ValueError):
        naive.add_excluded(-2)  # promised
    naive.add_excluded(9)
    with pytest.raises(ValueError):
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
