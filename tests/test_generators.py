import copy
import functools
import itertools
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from limitgen import engine, generators
from limitgen.engine import Mode
from limitgen.experiments import _feedback_parts, union_generator
from limitgen.errors import SearchExhausted
from limitgen.families import ExplicitCountable, SuffixFamily, neg_union, ray_prefix_chain
from limitgen.generators import (
    ChainGenerator,
    DedupWrapper,
    FollowSuffix,
    Generator,
    MaxPlusOne,
    MinMinusOne,
    NoiseTolerantGenerator,
    NoisyFromStream,
    OmissionTolerantGenerator,
    SamplelessFromNoisy,
    SensitivityGenerator,
    StreamGenerator,
    intersection_generator,
    noisy_from_sampleless,
    reduce_by_prefix,
)
from limitgen.feedback import (
    FeedbackGenerator,
    OneShotProbeGenerator,
    PlainAsFeedback,
    UnionFeedbackGenerator,
)
from limitgen.langs import NEGATIVES, ClosedFormLanguage, suffix_from
from limitgen.sources import ScriptedSource, ScriptedSpec
from oracles import (
    NaiveFollowSuffix,
    NaiveMaxPlusOne,
    NaiveMinMinusOne,
    NaiveNoiseTolerant,
    NaiveNoisyFromStream,
    NaiveOmissionTolerant,
    NaiveOneShotProbe,
    NaiveSamplelessFromNoisy,
    NaiveSensitivity,
    retained_per_step,
)


def counting_stream(start=0, step=1):
    return StreamGenerator(itertools.count(start, step))


def feed(gen: Generator, reveals) -> list[int]:
    return [gen.step(x) for x in reveals]


# --- skip-seen play over a fixed stream (noisy play) ------------------------


def test_skip_seen_examples():
    gen = NoisyFromStream(itertools.count(0))
    assert gen.step(5) == 0

    gen = NoisyFromStream(itertools.count(0))
    assert feed(gen, [5, 1]) == [0, 2]

    gen = NoisyFromStream(itertools.count(-1, -1))
    assert feed(gen, [7, 8, 9]) == [-1, -2, -3]


@given(reveals=st.lists(st.integers(-30, 30), min_size=1, max_size=60, unique=True))
def test_skip_seen_never_collides(reveals):
    gen = NoisyFromStream(itertools.count(0))
    seen = set()
    for x in reveals:
        seen.add(x)
        assert gen.step(x) not in seen


def test_skip_seen_safety_long_run():
    gen = noisy_from_sampleless(intersection_generator(neg_union()))
    seen = set()
    for t in range(1_000):
        x = -2 * t - 1  # reveal odd negatives: collides with half the stream
        seen.add(x)
        z = gen.step(x)
        assert z not in seen
        assert z < 0


# --- sampleless play recovered from a sample-consuming strategy -------------


def test_stream_recovery_from_ascender():
    gen = SamplelessFromNoisy(MaxPlusOne())
    assert [gen.step(None) for _ in range(3)] == [1, 2, 3]


def test_stream_recovery_rejects_constant(monkeypatch):
    class Constant(Generator):
        def step(self, revealed=None):
            return 7

    monkeypatch.setattr(generators, "PROBE_CAP", 50)
    gen = SamplelessFromNoisy(Constant())
    assert gen.step(None) == 7
    with pytest.raises(SearchExhausted):
        gen.step(None)


def test_stream_recovery_composed_with_skip_seen():
    base = NoisyFromStream(itertools.count(0))
    gen = SamplelessFromNoisy(base)
    assert [gen.step(None) for _ in range(5)] == [1, 2, 3, 4, 5]


def test_round_trip_is_injective_and_settles_negative():
    base = noisy_from_sampleless(intersection_generator(neg_union()))
    gen = SamplelessFromNoisy(base)
    outputs = [gen.step(None) for _ in range(10_000)]
    assert len(set(outputs)) == len(outputs)
    assert all(z < 0 for z in outputs[21:])


# --- the forward-only converters against their memoised references ---------


class Replay(Generator):
    """Outputs `values` in turn, over and over, and records what it is fed."""

    def __init__(self, values):
        self.values = values
        self.fed = []

    def step(self, revealed=None):
        self.fed.append(revealed)
        return self.values[(len(self.fed) - 1) % len(self.values)]


def _injective(head):
    """The drawn values in [-40, 40], then every integer from 41 up."""
    return itertools.chain(head, itertools.count(41))


def _play_until_exhausted(gen, reveals):
    """The outputs for `reveals`, and whether a step found no fresh value."""
    outputs = []
    for x in reveals:
        try:
            outputs.append(gen.step(x))
        except SearchExhausted:
            return outputs, True
    return outputs, False


_HEADS = st.lists(st.integers(-40, 40), min_size=1, max_size=60, unique=True)


@given(
    head=_HEADS,
    picks=st.lists(
        st.tuples(st.booleans(), st.integers(0, 100), st.integers(-45, 45)), min_size=1, max_size=60
    ),
)
def test_skip_seen_matches_memoised_reference(head, picks):
    # a reveal either hits a stream value, often one still to come, or is
    # drawn, and then may hit the stream's tail too
    reveals = [head[k % len(head)] if hit else x for hit, k, x in picks]
    fast = feed(NoisyFromStream(_injective(head)), reveals)
    assert fast == feed(NaiveNoisyFromStream(_injective(head)), reveals)


@given(
    values=st.lists(st.integers(-5, 5), min_size=1, max_size=12),
    head=_HEADS,
    cap=st.integers(0, 12),
    steps=st.integers(1, 40),
)
def test_stream_recovery_matches_memoised_reference(values, head, cap, steps):
    # a repeating base runs out of fresh values under a small cap; a
    # skip-seen base is fed zigzag reveals that hit its upcoming entries
    reveals = [None] * steps
    with mock.patch.object(generators, "PROBE_CAP", cap):
        fast_base, naive_base = Replay(values), Replay(values)
        fast = _play_until_exhausted(SamplelessFromNoisy(fast_base), reveals)
        assert fast == _play_until_exhausted(NaiveSamplelessFromNoisy(naive_base), reveals)
        assert fast_base.fed == naive_base.fed
        fast = _play_until_exhausted(SamplelessFromNoisy(NoisyFromStream(_injective(head))), reveals)
        naive_play = NaiveSamplelessFromNoisy(NaiveNoisyFromStream(_injective(head)))
        assert fast == _play_until_exhausted(naive_play, reveals)


# --- chain play --------------------------------------------------------------


def test_chain_on_ray_prefixes():
    gen = ChainGenerator(ray_prefix_chain())
    assert [gen.step(None) for _ in range(6)] == [0, 1, 2, 3, 4, 5]


def test_chain_on_constant_link():
    from limitgen.families import ChainSpec

    chain = ChainSpec(lambda i: ExplicitCountable(languages=(suffix_from(5),)))
    gen = ChainGenerator(chain)
    assert [gen.step(None) for _ in range(3)] == [5, 6, 7]


def test_chain_rejects_a_finite_core():
    # the negatives meet the ray from 0 nowhere: the only guard left on the scan
    from limitgen.families import ChainSpec

    gen = ChainGenerator(ChainSpec(lambda t: ExplicitCountable((suffix_from(0), NEGATIVES))))
    with pytest.raises(SearchExhausted, match="^chain link 0 has a finite common core$"):
        gen.step(None)


def test_chain_on_shrinking_neg_requirements():
    from limitgen.families import ChainSpec

    required = [frozenset({5, 6, 7}), frozenset({6, 7}), frozenset({7}), frozenset()]
    links = [ExplicitCountable(languages=(ClosedFormLanguage(r, None, True),)) for r in required]
    gen = ChainGenerator(ChainSpec(lambda i: links[min(i, 3)]))
    assert [gen.step(None) for _ in range(5)] == [5, 6, 7, -1, -2]


def test_chain_correct_for_every_link_target():
    gen = ChainGenerator(ray_prefix_chain())
    outputs = [gen.step(None) for _ in range(1_000)]
    for m in range(0, 51, 10):
        target = suffix_from(m)
        assert all(z in target for z in outputs[m:])


def test_chain_injective_long():
    gen = ChainGenerator(ray_prefix_chain())
    outputs = [gen.step(None) for _ in range(10_000)]
    assert len(set(outputs)) == len(outputs)


def test_chain_generator_retains_under_120_bytes_per_step():
    steps = 4_000

    def play():
        generator = ChainGenerator(ray_prefix_chain())
        source = ScriptedSource(ScriptedSpec(suffix_from(7)))
        return engine.run(generator, source, Mode.sampleless(), steps), generator, source

    per_step, ((records, result), _, _) = retained_per_step(steps, play)
    assert len(records) == steps
    assert not result.validity_violations
    assert per_step < 120, f"{per_step:.0f} B per step"


# --- two-branch marker strategies -------------------------------------------


def test_omission_tolerant_traces():
    assert feed(OmissionTolerantGenerator(1), [0]) == [1]
    assert feed(OmissionTolerantGenerator(1), [-3]) == [-4]
    assert feed(OmissionTolerantGenerator(0), [0, 5]) == [1, 6]


def test_noise_tolerant_traces():
    assert feed(NoiseTolerantGenerator(0), [0]) == [1]
    assert feed(NoiseTolerantGenerator(0), [-3]) == [-4]
    assert feed(NoiseTolerantGenerator(1), [0, 1]) == [-1, 2]


def test_sensitivity_traces():
    assert feed(SensitivityGenerator(0), [-1]) == [-2]
    assert feed(SensitivityGenerator(0), [4]) == [5]
    assert feed(SensitivityGenerator(1), [-1, 3]) == [1, 4]


@given(
    level=st.integers(0, 3),
    reveals=st.lists(st.integers(-6, 6) | st.integers(-(2**40), 2**40), max_size=40),
)
def test_marker_strategies_match_set_walking_references(level, reveals):
    pairs = [
        (OmissionTolerantGenerator, NaiveOmissionTolerant),
        (NoiseTolerantGenerator, NaiveNoiseTolerant),
        (SensitivityGenerator, NaiveSensitivity),
    ]
    for fast, naive in pairs:
        assert feed(fast(level), reveals) == feed(naive(level), reveals)


_POOL_REVEALS = st.lists(
    st.integers(-6, 6)
    | st.integers(2**40 - 2, 2**40 + 2)
    | st.integers(-(2**40) - 2, -(2**40) + 2),
    max_size=40,
) | st.lists(st.integers(-(2**40), -1), max_size=40)


@given(reveals=_POOL_REVEALS, probe=st.integers(-6, 6), answer=st.booleans())
def test_pool_strategies_match_builtin_references(reveals, probe, answer):
    pairs = [
        (MaxPlusOne, NaiveMaxPlusOne),
        (MinMinusOne, NaiveMinMinusOne),
        (FollowSuffix, NaiveFollowSuffix),
    ]
    for fast, naive in pairs:
        assert feed(fast(), reveals) == feed(naive(), reveals)
    plays = []
    for gen in (OneShotProbeGenerator(probe), NaiveOneShotProbe(probe)):
        play = []
        for x in reveals:
            y = gen.step_query(x)
            play.append((y, gen.step_output(x, None if y is None else answer)))
        plays.append(play)
    assert plays[0] == plays[1]


def test_baseline_traces():
    assert feed(MaxPlusOne(), [0]) == [1]
    assert feed(MinMinusOne(), [0, -1]) == [-1, -2]
    assert feed(FollowSuffix(), [0, 1, 2]) == [1, 2, 3]
    assert feed(FollowSuffix(), [-9, -8, 5]) == [1, 2, 6]
    with pytest.raises(ValueError, match="unknown baseline 'nope'"):
        union_generator("nope")


@given(reveals=st.lists(st.integers(-50, 50), min_size=1, max_size=40, unique=True))
def test_pool_strategies_never_repeat_or_collide(reveals):
    steps = [make().step for make in (MaxPlusOne, MinMinusOne, FollowSuffix)]
    steps += [
        make(level).step
        for make in (OmissionTolerantGenerator, NoiseTolerantGenerator, SensitivityGenerator)
        for level in range(3)
    ]
    steps += [
        functools.partial(OneShotProbeGenerator(-1).play, lambda y, a=answer: a)
        for answer in (True, False)
    ]
    for step in steps:
        outputs = []
        seen = set()
        for x in reveals:
            seen.add(x)
            z = step(x)
            assert z not in seen
            assert z not in outputs
            outputs.append(z)


# --- wrappers ----------------------------------------------------------------


def test_dedup_reemits_on_repeats():
    wrapped = DedupWrapper(MaxPlusOne())
    plain = MaxPlusOne()
    expect = [plain.step(5), None, None, plain.step(6)]
    got = feed(wrapped, [5, 5, 5, 6])
    assert got[0] == expect[0]
    assert got[1] == got[0] and got[2] == got[0]
    assert got[3] == expect[3]


def test_dedup_transparent_without_repeats():
    reveals = list(range(0, 2_000, 2))
    assert feed(DedupWrapper(FollowSuffix()), reveals) == feed(
        FollowSuffix(), reveals
    )


def test_dedup_constant_on_constant_input():
    gen = DedupWrapper(MaxPlusOne())
    outputs = feed(gen, [1] * 50)
    assert len(set(outputs)) == 1


def test_reduce_by_prefix_trace():
    gen = reduce_by_prefix(NoiseTolerantGenerator(0), (0,))
    assert gen.step(-3) == 2  # sees the prefix 0 first, then -3

    base = MaxPlusOne()
    assert reduce_by_prefix(base, ()) is base


def test_reduce_by_prefix_evaluates_on_concatenation():
    direct = NoiseTolerantGenerator(1)
    for x in (0, 1, 7):
        last = direct.step(x)
    prefixed = reduce_by_prefix(NoiseTolerantGenerator(1), (0, 1))
    assert prefixed.step(7) == last


# --- stream generators --------------------------------------------------------


def test_intersection_generator_requires_infinite_core():
    stream = intersection_generator(neg_union())
    assert [stream.step(None) for _ in range(3)] == [-1, -2, -3]
    from limitgen.families import suffix_union

    with pytest.raises(ValueError):
        intersection_generator(suffix_union())


def test_intersection_generator_with_required_part():
    stream = intersection_generator(
        ExplicitCountable(languages=(ClosedFormLanguage(frozenset({3}), None, True),))
    )
    assert [stream.step(None) for _ in range(3)] == [3, -1, -2]


def test_fresh_replays_identically():
    # StripQueries restarts each replay from a deep copy of its unplayed
    # base: every such fresh copy must replay what the original plays
    gens = [
        MaxPlusOne(),
        FollowSuffix(),
    ] + [
        make(level)
        for make in (OmissionTolerantGenerator, NoiseTolerantGenerator, SensitivityGenerator)
        for level in range(3)
    ] + [OneShotProbeGenerator(-1), PlainAsFeedback(FollowSuffix())]
    # each fresh-value draw must filter against the copy's own used set, not
    # the original's, which a filter kept from `__init__` would share
    gens += [NoisyFromStream(itertools.count()), ChainGenerator(ray_prefix_chain())]
    # the union strategy keeps a filter over its live sample once a part
    # streams, so it too is copied only unplayed
    gens += [UnionFeedbackGenerator(_feedback_parts())]
    reveals = [3, -1, 3, 8, 0, -7, 11]

    def outputs(gen):
        if isinstance(gen, FeedbackGenerator):
            return [gen.play(lambda y: y in reveals, x) for x in reveals]
        return feed(gen, reveals)

    for gen in gens:
        first = outputs(copy.deepcopy(gen))
        second = outputs(copy.deepcopy(gen))
        assert first == second == outputs(gen)


def test_fresh_union_replays_identically():
    # as above, on reveals from a truth in the union, so that it streams
    # from both parts
    truth = ClosedFormLanguage({-1, -7}, 2, False)
    reveals = [3, -1, 8, 2, -7, 11, 4]
    gen = UnionFeedbackGenerator([neg_union(), SuffixFamily(offset=2)])

    def outputs(gen):
        return [gen.play(truth.__contains__, x) for x in reveals]

    assert outputs(copy.deepcopy(gen)) == outputs(copy.deepcopy(gen)) == outputs(gen)
