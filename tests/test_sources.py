import itertools

import pytest

from limitgen.generators import baseline, intersection_generator
from limitgen.families import neg_union
from limitgen.generators import (
    NoiseTolerantGenerator,
    OmissionTolerantGenerator,
    SensitivityGenerator,
)
from limitgen.langs import ClosedFormLanguage, suffix_from
from limitgen.sources import (
    ScriptedSource,
    ScriptedSpec,
    noise_prefix_adversary,
    omission_adversary,
    sensitivity_adversary,
    staged_union_adversary,
)

from oracles import stage_language


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
    assert [src.emit(t) for t in range(4)] == [0, 1, 2, 3]


def test_scripted_single_noise_insertion():
    src = ScriptedSource(ScriptedSpec(suffix_from(0), noise=((0, -1),)))
    assert [src.emit(t) for t in range(4)] == [-1, 0, 1, 2]


def test_scripted_omission():
    truth = ClosedFormLanguage(frozenset({5}), None, True)
    src = ScriptedSource(ScriptedSpec(truth, omissions=frozenset({5})))
    assert [src.emit(t) for t in range(3)] == [-1, -2, -3]


def test_scripted_every_other():
    src = ScriptedSource(ScriptedSpec(suffix_from(0), omissions="every_other"))
    assert [src.emit(t) for t in range(4)] == [0, 2, 4, 6]


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
    first = [ScriptedSource(spec).emit(t) for t in range(96)]
    second = [ScriptedSource(spec).emit(t) for t in range(96)]
    assert first == second
    assert first != list(range(96))  # the shuffle does something
    assert set(first) == set(range(96))  # blocks permute in place


def test_scripted_repetitions_dedup_to_base():
    spec = ScriptedSpec(suffix_from(0), repeat_seed=3)
    src = ScriptedSource(spec)
    stream = [src.emit(t) for t in range(200)]
    deduped = list(dict.fromkeys(stream))
    assert deduped == list(range(len(deduped)))
    runs = [len(list(g)) for _, g in itertools.groupby(stream)]
    assert max(runs) <= 5 and max(runs) > 1


# --- the staged union adversary -------------------------------------------------


def test_staged_union_exact_replay_against_ascender():
    adversary = staged_union_adversary()
    xs, zs = play(adversary, baseline("max_plus_one"), 9)
    assert xs == [0, -1, 3, -2, 6, -3, 9, -4, 12]
    assert zs == [1, 2, 4, 5, 7, 8, 10, 11, 13]
    assert adversary.certified_mistake_times == (0, 2, 4, 6, 8)
    assert adversary.limit.excluded == {1, 4, 7, 10, 13}
    assert stage_language(adversary, 1) == ClosedFormLanguage(frozenset({0, -1}), 3, False)
    assert stage_language(adversary, 2) == ClosedFormLanguage(
        frozenset({0, -1, 3, -2}), 6, False
    )


def test_staged_union_never_triggers_on_fresh_negatives():
    adversary = staged_union_adversary()
    gen = intersection_generator(neg_union())
    play(adversary, gen, 500)
    assert adversary.no_trigger
    assert adversary.certified_mistake_times == ()
    assert adversary.final_stage_mistakes(500) == 500


def test_staged_union_stream_validity():
    adversary = staged_union_adversary()
    xs, _ = play(adversary, baseline("follow_suffix"), 2_000)
    assert len(set(xs)) == len(xs)
    stages = len(adversary.certified_mistake_times)
    assert stages >= 10
    for k in range(1, min(stages, 10) + 1):
        assert -k in adversary.emitted_set


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
    assert not (adversary.limit.excluded & adversary.emitted_set)


# --- the omission adversary ------------------------------------------------------


def test_omission_adversary_defeats_weaker_tolerance():
    adversary = omission_adversary(0)
    gen = OmissionTolerantGenerator(0)
    xs, zs = play(adversary, gen, 1_000)
    # stage 0 never reveals the marker, so the strategy stays low forever
    assert all(z < 0 for z in zs)
    assert adversary.no_trigger
    assert adversary.final_stage_mistakes(1_000) == 1_000
    assert 0 not in adversary.emitted_set


def test_omission_adversary_triggers_on_ascender():
    for level in (0, 1, 2):
        adversary = omission_adversary(level)
        play(adversary, baseline("max_plus_one"), 2_000)
        assert len(adversary.certified_mistake_times) >= 10
        assert not (set(range(level + 1)) & adversary.emitted_set)
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
    play(adversary, NoiseTolerantGenerator(1), 200)
    for stage in adversary.stages[1:4]:
        lang = stage_language(adversary, stage.index)
        assert 0 not in lang.finite_part and 1 not in lang.finite_part


# --- the sensitivity adversary -----------------------------------------------------


def test_sensitivity_adversary_declared_noise_levels():
    adversary = sensitivity_adversary()
    play(adversary, baseline("max_plus_one"), 300)
    for stage in adversary.stages[1:6]:
        prev = adversary.stages[stage.index - 1]
        assert stage.declared_noise_level == prev.trigger_time + 2


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
